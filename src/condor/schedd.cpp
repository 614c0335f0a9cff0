#include "condor/schedd.hpp"

#include "classad/parser.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "condor/ads.hpp"

namespace phisched::condor {

JobRequests read_requests(const classad::ClassAd& ad) {
  JobRequests r;
  r.memory_mib = ad.eval_integer(kAttrRequestPhiMemory).value_or(0);
  r.threads = static_cast<ThreadCount>(
      ad.eval_integer(kAttrRequestPhiThreads).value_or(0));
  r.devices =
      static_cast<int>(ad.eval_integer(kAttrRequestPhiDevices).value_or(1));
  r.bandwidth = ad.eval_real(kAttrRequestPhiMemBandwidth).value_or(0.0);
  return r;
}

const JobRequests& JobRecord::requests() const {
  if (!cached_requests.has_value()) cached_requests = read_requests(ad);
  PHISCHED_DCHECK(*cached_requests == read_requests(ad),
                  "job ", id, ": cached requests are stale");
  return *cached_requests;
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kPending: return "pending";
    case JobState::kMatched: return "matched";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

void Schedd::submit(JobId id, classad::ClassAd ad) {
  const auto [it, fresh] = jobs_.try_emplace(id);
  PHISCHED_REQUIRE(fresh, "submit: duplicate job id");
  JobRecord& rec = it->second;
  rec.id = id;
  rec.ad = std::move(ad);
  rec.submit_time = sim_.now();
  rec.fifo_index = fifo_.size();
  note_ad_change(rec);
  pending_fifo_.insert(pending_fifo_.end(), rec.fifo_index);
  fifo_.push_back(id);
  if (obs_.rec != nullptr) obs_.jobs_submitted->inc();
}

void Schedd::attach_telemetry(obs::Recorder& recorder,
                              const std::string& prefix) {
  obs_.rec = &recorder;
  obs_.prefix = prefix;
  auto& m = recorder.metrics();
  obs_.jobs_submitted = &m.counter(prefix + ".jobs_submitted");
  obs_.jobs_completed = &m.counter(prefix + ".jobs_completed");
  obs_.jobs_failed = &m.counter(prefix + ".jobs_failed");
  obs_.jobs_requeued = &m.counter(prefix + ".jobs_requeued");
}

void Schedd::note_terminal(const JobRecord& rec, const char* type) {
  if (obs_.rec == nullptr) return;
  const SimTime turnaround = rec.finish_time - rec.submit_time;
  // The event type flows in as a parameter, so the schema extractor
  // cannot see the names; declare them for the lint's telemetry pass.
  // phisched-lint: emits(event job_completed, event job_failed)
  obs_.rec->event(sim_.now(), type,
                  {{"job", std::to_string(rec.id)},
                   {"node", std::to_string(rec.node)},
                   {"retries", std::to_string(rec.retries)},
                   {"turnaround_s", json_number(turnaround)}});
}

void Schedd::note_ad_change(JobRecord& rec) {
  rec.signature = classad::match_signature(rec.ad);
  rec.prio = rec.ad.eval_integer(kAttrJobPrio).value_or(0);
  rec.cached_requests.reset();
  ++ad_changes_;
}

JobRecord& Schedd::mutable_record(JobId id) {
  auto it = jobs_.find(id);
  PHISCHED_REQUIRE(it != jobs_.end(), "schedd: unknown job");
  return it->second;
}

void Schedd::qedit(JobId id, const std::string& attr, classad::ExprPtr expr) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kPending,
                   "qedit: job is no longer pending");
  rec.ad.insert(attr, std::move(expr));
  note_ad_change(rec);
}

void Schedd::qedit_expr(JobId id, const std::string& attr,
                        const std::string& expr_source) {
  qedit(id, attr, classad::parse(expr_source));
}

std::vector<JobId> Schedd::pending() const {
  std::vector<JobId> out;
  out.reserve(pending_fifo_.size());
  for (const std::size_t i : pending_fifo_) out.push_back(fifo_[i]);
  return out;
}

const JobRecord& Schedd::record(JobId id) const {
  auto it = jobs_.find(id);
  PHISCHED_REQUIRE(it != jobs_.end(), "schedd: unknown job");
  return it->second;
}

bool Schedd::known(JobId id) const { return jobs_.find(id) != jobs_.end(); }

void Schedd::set_state(JobRecord& rec, JobState state) {
  if (rec.state == JobState::kPending) pending_fifo_.erase(rec.fifo_index);
  if (state == JobState::kPending) pending_fifo_.insert(rec.fifo_index);
  rec.state = state;
}

void Schedd::mark_matched(JobId id, NodeId node) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kPending, "mark_matched: not pending");
  set_state(rec, JobState::kMatched);
  rec.node = node;
}

void Schedd::mark_running(JobId id) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kMatched, "mark_running: not matched");
  set_state(rec, JobState::kRunning);
  rec.start_time = sim_.now();
}

void Schedd::mark_completed(JobId id) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kRunning, "mark_completed: not running");
  set_state(rec, JobState::kCompleted);
  rec.finish_time = sim_.now();
  last_finish_ = sim_.now();
  ++completed_;
  if (obs_.rec != nullptr) {
    obs_.jobs_completed->inc();
    note_terminal(rec, "job_completed");
  }
  if (on_terminal_) on_terminal_(rec);
  retire(rec);
}

void Schedd::mark_failed(JobId id) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kRunning ||
                       rec.state == JobState::kMatched,
                   "mark_failed: job not active");
  set_state(rec, JobState::kFailed);
  rec.finish_time = sim_.now();
  last_finish_ = sim_.now();
  ++failed_;
  if (obs_.rec != nullptr) {
    obs_.jobs_failed->inc();
    note_terminal(rec, "job_failed");
  }
  if (on_terminal_) on_terminal_(rec);
  retire(rec);
}

void Schedd::retire(JobRecord& rec) {
  // Nothing matches a terminal job again: free its ad, signature and
  // cached requests and keep only the compact lifecycle record.
  rec.ad = classad::ClassAd();
  rec.signature = classad::MatchSignature();
  rec.cached_requests.reset();
}

void Schedd::requeue(JobId id, classad::ClassAd new_ad) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kRunning ||
                       rec.state == JobState::kMatched,
                   "requeue: job not active");
  set_state(rec, JobState::kPending);
  rec.node = -1;
  rec.start_time = -1.0;
  rec.ad = std::move(new_ad);
  note_ad_change(rec);
  rec.retries += 1;
  if (obs_.rec != nullptr) obs_.jobs_requeued->inc();
}

void Schedd::release_match(JobId id) {
  JobRecord& rec = mutable_record(id);
  PHISCHED_REQUIRE(rec.state == JobState::kMatched, "release_match: not matched");
  set_state(rec, JobState::kPending);
  rec.node = -1;
}

}  // namespace phisched::condor
