// Benchmark-side tracing and the small statistics the benchmark reports.
//
// Spans are recorded by the benchmark around its calls into the program's
// public API (nothing here reaches into src/). They stay in memory and are
// written out once the run ends; self time is a span's duration minus the
// part of it that its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< host seconds since the tracer's epoch
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 at top level
  int run = 0;           ///< which measured iteration the span belongs to
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  void set_run(int run) { run_ = run; }

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now_s(), 0.0, parent, run_});
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
  }

  /// Closes span `id`, which must be the innermost open one.
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    open_.pop_back();
  }

  /// Renames a span after the fact (a step is known to be a negotiation
  /// cycle only once it has run).
  void rename(int id, std::string name) {
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }

  /// Drops the innermost open span, which must be the last one opened.
  void cancel() {
    open_.pop_back();
    spans_.pop_back();
  }

  [[nodiscard]] double duration_s(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as CSV: name,start_s,end_s,self_s,parent,run.
  bool write_csv(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the union of the
/// intervals its direct children cover (clipped to the span).
[[nodiscard]] inline std::vector<double> self_times(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, reach);
      hi = std::min(hi, s.end_s);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = (s.end_s - s.start_s) - covered;
  }
  return self;
}

inline bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times(spans_);
  std::fprintf(f, "name,start_s,end_s,self_s,parent,run\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%.9f,%.9f,%.9f,%d,%d\n", s.name.c_str(), s.start_s,
                 s.end_s, self[i], s.parent, s.run);
  }
  return std::fclose(f) == 0;
}

/// Linear-interpolated percentile `p` (0..100) of `values`; 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// The highest of p99/p95/p90/p75 that is at most `wanted` and has at
/// least ten samples beyond it; the median when none does.
[[nodiscard]] inline double tail_percentile_rank(std::size_t n, double wanted) {
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (p <= wanted && static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) {
      return p;
    }
  }
  return 50.0;
}

[[nodiscard]] inline double tail_percentile(const std::vector<double>& values,
                                            double wanted) {
  return percentile(values, tail_percentile_rank(values.size(), wanted));
}

/// A harness step ran a negotiation cycle when the clock it leaves behind
/// sits on the negotiator's period (cycles fire at k * interval in a
/// closed batch; the benchmark checks the count against the program's).
[[nodiscard]] inline bool is_cycle_step(double now, double interval) {
  return std::fmod(now, interval) == 0.0;
}

/// (simulated time, host seconds) pairs in non-decreasing simulated time.
using Stamps = std::vector<std::pair<double, double>>;

/// Host time at simulated time `t`, interpolated between the stamps that
/// bracket it and clamped to the first/last stamp outside their range.
[[nodiscard]] inline double host_at(const Stamps& stamps, double t) {
  if (stamps.empty()) return 0.0;
  if (t <= stamps.front().first) return stamps.front().second;
  if (t >= stamps.back().first) return stamps.back().second;
  const auto it = std::lower_bound(
      stamps.begin(), stamps.end(), t,
      [](const std::pair<double, double>& s, double x) { return s.first < x; });
  const auto& [t1, h1] = *it;
  const auto& [t0, h0] = *(it - 1);
  if (t1 == t0) return h1;
  return h0 + (t - t0) / (t1 - t0) * (h1 - h0);
}

/// Host milliseconds spent on each simulated window [k*w, (k+1)*w) of
/// [0, end); the last window may be partial.
[[nodiscard]] inline std::vector<double> window_host_ms(const Stamps& stamps,
                                                        double window,
                                                        double end) {
  std::vector<double> out;
  for (std::size_t k = 0; static_cast<double>(k) * window < end; ++k) {
    const double t = static_cast<double>(k) * window;
    const double next = std::min(t + window, end);
    out.push_back(1e3 * (host_at(stamps, next) - host_at(stamps, t)));
  }
  return out;
}

/// Host seconds spent on the first and on the last quarter of [0, end].
struct Quarters {
  double first = 0.0;
  double last = 0.0;
};

[[nodiscard]] inline Quarters quarters(const Stamps& stamps, double end) {
  return {host_at(stamps, 0.25 * end) - host_at(stamps, 0.0),
          host_at(stamps, end) - host_at(stamps, 0.75 * end)};
}

/// Host time per simulated second over the last quarter of [0, end],
/// divided by the same over the first quarter. 1.0 means the simulator
/// costs the same late in the run as early on.
[[nodiscard]] inline double late_slowdown(const Quarters& q) {
  return q.first > 0.0 ? q.last / q.first : 0.0;
}

}  // namespace perfbench
