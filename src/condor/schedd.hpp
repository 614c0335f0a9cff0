// The schedd: mini-Condor's job queue.
//
// Jobs are submitted as ClassAds, examined by the negotiator in FIFO
// order, and may be edited in place with qedit (the mechanism the paper's
// add-on uses, via condor_qedit, to pin jobs to nodes). The schedd also
// records the lifecycle timestamps experiments report on; a terminal job
// keeps only that compact record (its ad and signature are dropped).
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "classad/classad.hpp"
#include "common/types.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {

enum class JobState {
  kPending,   ///< in the queue, waiting to be matched
  kMatched,   ///< matched to a node, dispatch in flight
  kRunning,   ///< starter spawned the job on a node
  kCompleted, ///< finished normally
  kFailed,    ///< killed (OOM / container violation)
};

[[nodiscard]] const char* job_state_name(JobState s);

/// What a job declares it needs of each coprocessor it runs on: the
/// RequestPhi* attributes of its ad.
struct JobRequests {
  MiB memory_mib = 0;
  ThreadCount threads = 0;
  int devices = 1;
  double bandwidth = 0.0;  ///< declared memory-bandwidth share

  bool operator==(const JobRequests&) const = default;
};

/// Evaluates the declared requests of `ad`; an absent attribute reads as
/// the default above.
[[nodiscard]] JobRequests read_requests(const classad::ClassAd& ad);

struct JobRecord {
  JobId id = 0;
  /// The job's ClassAd; emptied once the job is terminal (after the
  /// terminal hook ran), together with `signature`.
  classad::ClassAd ad;
  JobState state = JobState::kPending;
  NodeId node = -1;  ///< where it was matched/ran
  SimTime submit_time = 0.0;
  SimTime start_time = -1.0;
  SimTime finish_time = -1.0;
  int retries = 0;  ///< times the job was requeued after a failure
  /// Position in submission order (the FIFO tie-break).
  std::size_t fifo_index = 0;
  /// The ad's JobPrio (0 when absent), read once per ad change.
  std::int64_t prio = 0;
  /// What the two-way match reads of `ad` — the job's autocluster key.
  /// Recomputed whenever the ad changes (submit, qedit, requeue).
  classad::MatchSignature signature;
  /// read_requests(ad), filled on the first requests() call after the ad
  /// changed; the schedd resets it on every change (submit, qedit,
  /// requeue) and at retirement.
  mutable std::optional<JobRequests> cached_requests;

  /// The ad's declared requests, evaluated at most once per ad change.
  [[nodiscard]] const JobRequests& requests() const;
};

class Schedd {
 public:
  explicit Schedd(Simulator& sim) : sim_(sim) {}

  Schedd(const Schedd&) = delete;
  Schedd& operator=(const Schedd&) = delete;

  /// Enqueues a job ad. `id` must be unique; FIFO order is submission
  /// order (ties by id).
  void submit(JobId id, classad::ClassAd ad);

  /// condor_qedit: replaces one attribute of a PENDING job's ad.
  void qedit(JobId id, const std::string& attr, classad::ExprPtr expr);
  void qedit_expr(JobId id, const std::string& attr,
                  const std::string& expr_source);

  /// Pending job ids in FIFO order; O(pending).
  [[nodiscard]] std::vector<JobId> pending() const;

  [[nodiscard]] const JobRecord& record(JobId id) const;
  [[nodiscard]] bool known(JobId id) const;

  // Lifecycle transitions (driven by negotiator / starter / node).
  void mark_matched(JobId id, NodeId node);
  void mark_running(JobId id);
  void mark_completed(JobId id);
  void mark_failed(JobId id);
  /// Returns a matched-but-not-running job to the pending queue (its
  /// dispatch was refused).
  void release_match(JobId id);

  /// Requeues a killed job for another attempt instead of failing it
  /// (Condor's on-failure retry): the job returns to the pending queue
  /// with a fresh ad (e.g. a boosted memory declaration) and its retry
  /// counter incremented. Does NOT count as a terminal transition.
  void requeue(JobId id, classad::ClassAd new_ad);

  [[nodiscard]] std::size_t submitted_count() const { return jobs_.size(); }
  [[nodiscard]] std::size_t completed_count() const { return completed_; }
  [[nodiscard]] std::size_t failed_count() const { return failed_; }
  [[nodiscard]] std::size_t pending_count() const {
    return pending_fifo_.size();
  }
  /// Ad changes so far (submits, qedits, requeues).
  [[nodiscard]] std::uint64_t ad_changes() const { return ad_changes_; }
  /// True when every submitted job reached a terminal state.
  [[nodiscard]] bool drained() const {
    return completed_ + failed_ == jobs_.size();
  }

  /// Invoked after every terminal transition (completed or failed),
  /// while the record still carries the job's ad. The schedd then drops
  /// the ad and signature; ids, state, node, times and retries stay.
  void set_on_terminal(std::function<void(const JobRecord&)> fn) {
    on_terminal_ = std::move(fn);
  }

  /// Time the last job reached a terminal state — the makespan once
  /// drained() holds.
  [[nodiscard]] SimTime last_finish_time() const { return last_finish_; }

  /// Registers queue-lifecycle instruments under `prefix` (e.g.
  /// "condor.schedd"): submit/complete/fail/requeue counters plus a
  /// terminal event per job carrying its turnaround time.
  void attach_telemetry(obs::Recorder& recorder, const std::string& prefix);

 private:
  /// Cached instrument pointers; all null until attach_telemetry.
  struct Telemetry {
    obs::Recorder* rec = nullptr;
    std::string prefix;
    obs::Counter* jobs_submitted = nullptr;
    obs::Counter* jobs_completed = nullptr;
    obs::Counter* jobs_failed = nullptr;
    obs::Counter* jobs_requeued = nullptr;
  };

  void note_terminal(const JobRecord& rec, const char* type);
  /// Frees what only a non-terminal job needs (ad, signature).
  static void retire(JobRecord& rec);

  JobRecord& mutable_record(JobId id);
  /// Refreshes what the negotiator reads of `rec.ad` every cycle, drops
  /// the cached requests, and counts the change.
  void note_ad_change(JobRecord& rec);
  /// Moves `rec` into or out of the pending queue.
  void set_state(JobRecord& rec, JobState state);

  Simulator& sim_;
  // Looked up by id only, never iterated; node-based, so a JobRecord
  // reference stays valid while later jobs are submitted.
  std::unordered_map<JobId, JobRecord> jobs_;
  std::vector<JobId> fifo_;  // submission order
  std::set<std::size_t> pending_fifo_;  // fifo_ indices of pending jobs
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::uint64_t ad_changes_ = 0;
  SimTime last_finish_ = 0.0;
  std::function<void(const JobRecord&)> on_terminal_;
  Telemetry obs_;
};

}  // namespace phisched::condor
