#include "perfbench/src/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "src/util/rng.h"
#include "src/workload/zipf.h"

namespace perfbench {

void Must(const prochlo::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw BenchError(what + ": " + status.error().message);
  }
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------- spans

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

int64_t Tracer::Begin(const char* name, uint64_t trace_id, int64_t parent) {
  if (!enabled_) {
    return -1;
  }
  int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, -1, trace_id, parent});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) {
    return;
  }
  int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_ns >= 0 && name == span.name) {
      out.push_back(1e-9 * static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (double d : Durations(name)) {
    total += d;
  }
  return total;
}

double Tracer::MeanSeconds(const std::string& name) const {
  std::vector<double> durations = Durations(name);
  return durations.empty() ? 0.0 : TotalSeconds(name) / static_cast<double>(durations.size());
}

void Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream file(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    file << "{\"id\":" << i << ",\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
         << ",\"end_ns\":" << span.end_ns << ",\"trace\":" << span.trace_id
         << ",\"parent\":" << span.parent << "}\n";
  }
  if (!file) {
    throw BenchError("cannot write spans to " + path);
  }
}

// ---------------------------------------------------------------- inputs

Cohort MakeEpochCohort(uint64_t seed) {
  constexpr size_t kDistinctValues = 300;
  constexpr double kZipfExponent = 1.0;
  Cohort cohort;
  prochlo::ZipfSampler zipf(kDistinctValues, kZipfExponent);
  prochlo::Rng rng(seed ^ 0x5a1f0c0401ull);
  std::map<std::string, uint64_t> counts;
  cohort.inputs.reserve(kCohortReports);
  for (size_t i = 0; i < kCohortReports; ++i) {
    std::string value = "word-" + std::to_string(zipf.Sample(rng));
    counts[value]++;
    cohort.inputs.emplace_back(value, value);
  }
  for (const auto& [value, count] : counts) {
    if (count >= kCrowdThreshold) {
      cohort.expected[value] = count;
      cohort.reports_in_crowds_over_threshold += count;
    }
  }
  return cohort;
}

std::string PipelineSeed(uint64_t seed) { return "perfbench-" + std::to_string(seed); }

// ---------------------------------------------------------------- outcome

void Outcome::Info(const std::string& key, double value, const std::string& unit) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  info.emplace_back(key, unit.empty() ? std::string(buffer) : buffer + (" " + unit));
}

void ReportEndToEnd(const EndToEnd& e2e, Outcome& out) {
  out.Set("setup_s", Quantile(e2e.setup_seconds, 0.5), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  out.Set("ok_frac", std::max(0.0, 1.0 - failed_frac), "frac");
  out.Set("reports_per_s", e2e.reports_per_s, "1/s");
  out.Set("wait_p50_ms", e2e.wait_p50_ms, "ms");

  out.Info("failed_frac", failed_frac, "frac");
  out.Info("encode_reports_per_s", 1e6 / e2e.SealUsPerReport(), "1/s");
  out.Info("setups", static_cast<double>(e2e.setup_seconds.size()));
  out.Info("wait_samples", static_cast<double>(e2e.wait_samples));
  out.Info("wait_max_ms", e2e.wait_max_ms, "ms");
}

void EndToEnd::SetWaits(const std::vector<double>& wait_ms) {
  wait_p50_ms = Quantile(wait_ms, 0.5);
  wait_max_ms = Quantile(wait_ms, 1.0);
  wait_samples = wait_ms.size();
}

}  // namespace perfbench
