// Shared plumbing for the repo benchmark: options, timing, in-memory spans,
// the seeded Zipf cohort, and the outcome run.py turns into the final JSON
// line.
//
// The benchmark times the program from outside: every span wraps a call
// into one layer's public API from this directory's code, nothing inside
// src/ is instrumented.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string scratch;    // private directory for this run (removed by the caller)
  std::string spans_out;  // where a traced run writes its spans (JSON lines)
};

// Setup and probe failures abort the run: a benchmark that skips a broken
// step measures nothing.  Failures inside the measured loop are counted
// instead (Outcome::Fail).
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void Must(const prochlo::Status& status, const std::string& what);
template <typename T>
T Must(prochlo::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw BenchError(what + ": " + result.error().message);
  }
  return std::move(result).value();
}

// Quantile by linear interpolation between closest ranks (q in [0, 1]).
double Quantile(std::vector<double> samples, double q);

double PeakRssMb();
double ProcessCpuSeconds();

// ---------------------------------------------------------------- spans

struct Span {
  const char* name;  // layer.operation, a string literal
  int64_t start_ns;
  int64_t end_ns;     // -1 while open
  uint64_t trace_id;  // spans of one window / epoch share it
  int64_t parent;     // id of the span that caused this one, -1 at a root
};

// Spans are kept in memory while the run measures and written out at the
// end.  A disabled tracer records nothing, so the untraced path pays one
// branch per wrapped call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  // Opens a span and returns its id (-1 when disabled); End closes it.
  int64_t Begin(const char* name, uint64_t trace_id, int64_t parent = -1);
  void End(int64_t id);

  // Durations (seconds) of every closed span named `name`, and their sum.
  std::vector<double> Durations(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;
  // Mean duration in seconds (0 when there is no such span).
  double MeanSeconds(const std::string& name) const;

  void WriteJsonLines(const std::string& path) const;

 private:
  int64_t Now() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Wraps one call into a layer in a span; always returns the call's result.
template <typename F>
auto Traced(Tracer& tracer, const char* name, uint64_t trace_id, int64_t parent, F&& call) {
  int64_t id = tracer.Begin(name, trace_id, parent);
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    tracer.End(id);
  } else {
    auto result = call();
    tracer.End(id);
    return result;
  }
}

// ---------------------------------------------------------------- inputs

// The epoch-drain / cluster-epoch client cohort: kCohortReports reports
// whose values are Zipf(1.0) over 300 strings, crowd ID = value (the paper's
// Vocab arrangement); at this size ~65% of the reports sit in crowds of at
// least kCrowdThreshold.  `expected` is the exact histogram a naive
// threshold must produce: every value reported at least that often.
inline constexpr size_t kCohortReports = 4000;
inline constexpr uint64_t kCrowdThreshold = 20;  // the PipelineConfig default
struct Cohort {
  std::vector<std::pair<std::string, std::string>> inputs;  // (crowd, value)
  std::map<std::string, uint64_t> expected;
  uint64_t reports_in_crowds_over_threshold = 0;
};
Cohort MakeEpochCohort(uint64_t seed);

std::string PipelineSeed(uint64_t seed);

// ---------------------------------------------------------------- outcome

using Metrics = std::map<std::string, std::pair<double, std::string>>;  // name -> (value, unit)

// What one run attempted and what went wrong.  Every failed check counts the
// reports it covers as failed; a non-empty `errors` makes the run incorrect.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  Metrics metrics;
  // Extra human-readable facts (the per-workload metric names README.md
  // maps to, sample counts) printed before the result line.
  std::vector<std::pair<std::string, std::string>> info;

  void Fail(uint64_t reports, const std::string& why) {
    failed += reports;
    errors.push_back(why);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Info(const std::string& key, const std::string& value) { info.emplace_back(key, value); }
  // A number, with its unit when it has one.
  void Info(const std::string& key, double value, const std::string& unit = "");
};

// Fills the end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> setup_seconds;  // one per set-up repetition
  // Per-report Encoder::BatchSealReports time of each set-up's reports.
  std::vector<double> seal_us;
  double reports_per_s = 0;
  // The workload's per-operation wait.
  double wait_p50_ms = 0;
  double wait_max_ms = 0;
  size_t wait_samples = 0;
  // Sets the wait's median and maximum over every sample of the run.
  void SetWaits(const std::vector<double>& wait_ms);

  // The mean over the set-ups, which seal equally many reports: all the
  // run's seal time over all its sealed reports.  Like the drain rates, a
  // total evens out the host's speed swings better than a median of ~10.
  double SealUsPerReport() const {
    double total = 0;
    for (double us : seal_us) {
      total += us;
    }
    return total / static_cast<double>(seal_us.size());
  }
};
void ReportEndToEnd(const EndToEnd& e2e, Outcome& out);

// Set-up repetitions per run (setup_s is their median): at least five,
// and more while they have taken less than a second in total, so a set-up
// of a few milliseconds still gets a steady median.  The epoch workloads
// repeat the set-up after every untraced epoch and top up to this minimum
// at the end, so the repetitions sample the whole run, not just its first
// seconds (the host's speed swings over a few seconds); ingest-acked, whose
// load never pauses, repeats it before the load.
inline bool MoreSetups(const std::vector<double>& setup_seconds) {
  double total = 0;
  for (double s : setup_seconds) {
    total += s;
  }
  return setup_seconds.size() < 5 || (total < 1.0 && setup_seconds.size() < 64);
}

Outcome RunIngestAcked(const Options& options);
Outcome RunEpochDrain(const Options& options);
Outcome RunClusterEpoch(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
