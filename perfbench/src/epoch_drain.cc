// epoch-drain: what an analyst waits for once an epoch is cut.
//
// Clients seal a seeded Zipf cohort (4000 reports over 300 values,
// exponent 1.0, crowd ID = value) with Encoder::BatchSealReports during
// set-up.  Each epoch accepts it, untimed, into a spooled ShufflerFrontend
// (no fsync), and CutEpoch + DrainSealedEpochs is timed: the shuffler's
// outer open, naive thresholding at T=20 (about 65% of the reports sit in
// crowds >= T), and the analyzer's inner open, sequentially (default
// PipelineConfig).
//
// The traced run owns the Shuffler/Analyzer keys: it seals the same inputs
// for them, spools them, and calls Spool::OpenEpochStream,
// Shuffler::ProcessStream/OpenStream, Analyzer::DecryptBatch and the crypto
// opens itself, checking that its histogram equals the untraced run's.
#include <filesystem>
#include <memory>
#include <optional>

#include "perfbench/src/bench.h"
#include "src/core/analyzer.h"
#include "src/core/encoder.h"
#include "src/core/report.h"
#include "src/core/shuffler.h"
#include "src/crypto/keys.h"
#include "src/service/frontend.h"
#include "src/service/ingest.h"
#include "src/service/spool.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using prochlo::Bytes;
using prochlo::KeyPair;
using prochlo::ShufflerFrontend;

// Hollow-benchmark guard: the cohort is designed to forward ~65% of its
// reports; outside this band the analyzer is not doing the designed work.
constexpr double kMinForwardedFrac = 0.45;
constexpr double kMaxForwardedFrac = 0.85;
constexpr int kOwnedIterations = 2;
constexpr size_t kHybridOpenSamples = 64;

prochlo::FrontendConfig DrainFrontendConfig(uint64_t seed, const std::string& spool_dir) {
  prochlo::FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = prochlo::ThresholdMode::kNaive;
  config.pipeline.seed = PipelineSeed(seed);
  config.spool_dir = spool_dir;
  config.fsync_spool = false;  // no fsync on the timed path
  return config;
}

struct Service {
  explicit Service(prochlo::FrontendConfig config) : frontend(std::move(config)) {}

  ShufflerFrontend frontend;
  std::vector<Bytes> cohort;
  // The pipeline's shuffler stats accumulate across epochs; each epoch's
  // share is the difference.
  uint64_t forwarded_so_far = 0;
};

std::unique_ptr<Service> SetUp(uint64_t seed, const std::string& dir, const Cohort& cohort,
                               std::vector<double>* seal_us) {
  auto service = std::make_unique<Service>(DrainFrontendConfig(seed, dir));
  Must(service->frontend.Start(), "frontend start");
  const prochlo::Encoder encoder = service->frontend.MakeEncoder();
  prochlo::SecureRandom sealing(prochlo::ToBytes("perfbench-drain-" + std::to_string(seed)));
  Clock::time_point t0 = Clock::now();
  service->cohort = Must(encoder.BatchSealReports(cohort.inputs, sealing), "seal cohort");
  seal_us->push_back(1e6 * SecondsBetween(t0, Clock::now()) /
                     static_cast<double>(cohort.inputs.size()));
  return service;
}

// One epoch through the real frontend: accept (untimed), then cut + drain.
struct Drained {
  double seconds = 0;
  bool ok = false;
  std::string error;
  uint64_t forwarded = 0;
};

Drained DrainOneEpoch(Service& service, const Cohort& cohort, Tracer& tracer, uint64_t epoch) {
  Drained drained;
  for (const Bytes& report : service.cohort) {
    if (!service.frontend.AcceptReport(report).ok()) {
      drained.error = "accept failed";
      return drained;
    }
  }
  Clock::time_point t0 = Clock::now();
  int64_t span = tracer.Begin("pipeline.cut_and_drain", epoch);
  prochlo::Status cut = service.frontend.CutEpoch();
  prochlo::DrainReport report = service.frontend.DrainSealedEpochs();
  tracer.End(span);
  drained.seconds = SecondsBetween(t0, Clock::now());
  if (!cut.ok() || !report.ok() || report.results.size() != 1) {
    drained.error = "cut/drain of epoch " + std::to_string(epoch) + " failed";
    return drained;
  }
  const prochlo::EpochResult& result = report.results[0];
  drained.forwarded = result.result.shuffler_stats.forwarded - service.forwarded_so_far;
  service.forwarded_so_far = result.result.shuffler_stats.forwarded;
  if (result.reports != cohort.inputs.size()) {
    drained.error = "epoch " + std::to_string(epoch) + " drained " +
                    std::to_string(result.reports) + " reports";
  } else if (result.result.histogram != cohort.expected) {
    drained.error = "epoch " + std::to_string(epoch) + " histogram differs from the plaintext counts";
  } else if (drained.forwarded != cohort.reports_in_crowds_over_threshold) {
    drained.error = "epoch " + std::to_string(epoch) + " forwarded " +
                    std::to_string(drained.forwarded) + " reports, expected " +
                    std::to_string(cohort.reports_in_crowds_over_threshold);
  } else {
    drained.ok = true;
  }
  return drained;
}

// Times the spool's replay: every pull the shuffler makes goes through here.
class TimedStream : public prochlo::RecordStream {
 public:
  explicit TimedStream(prochlo::RecordStream& inner) : inner_(inner) {}
  size_t size() const override { return inner_.size(); }
  std::optional<Bytes> Next() override {
    Clock::time_point t0 = Clock::now();
    std::optional<Bytes> record = inner_.Next();
    seconds_ += SecondsBetween(t0, Clock::now());
    return record;
  }
  void Reset() override { inner_.Reset(); }
  double seconds() const { return seconds_; }

 private:
  prochlo::RecordStream& inner_;
  double seconds_ = 0;
};

// The decomposed drain over benchmark-owned keys (traced run only).
void RunOwnedDrain(const Options& options, const Cohort& cohort, double frontend_drain_s,
                   Tracer& tracer, Outcome& out) {
  const std::string pipeline_seed = PipelineSeed(options.seed);
  prochlo::SecureRandom key_rng(prochlo::ToBytes("perfbench-owned-keys-" + pipeline_seed));
  KeyPair shuffler_keys = KeyPair::Generate(key_rng);
  KeyPair analyzer_keys = KeyPair::Generate(key_rng);
  prochlo::EncoderConfig encoder_config;
  encoder_config.shuffler_public = shuffler_keys.public_key;
  encoder_config.analyzer_public = analyzer_keys.public_key;
  const prochlo::Encoder encoder(encoder_config);
  prochlo::SecureRandom sealing(prochlo::ToBytes("perfbench-owned-" + pipeline_seed));
  std::vector<Bytes> reports = Traced(tracer, "encoder.seal", 0, -1, [&] {
    return Must(encoder.BatchSealReports(cohort.inputs, sealing), "owned seal");
  });

  prochlo::Spool spool(prochlo::SpoolConfig{options.scratch + "/owned-spool", false});
  (void)Must(spool.Open(), "owned spool open");  // fresh directory: nothing to recover
  for (const Bytes& report : reports) {
    Must(spool.Append(prochlo::ShardedIngest::ShardOfReport(report, 4), 0, report),
         "owned spool append");
  }
  Must(spool.SealEpoch(0), "owned spool seal");

  prochlo::ShufflerConfig shuffler_config;
  shuffler_config.threshold_mode = prochlo::ThresholdMode::kNaive;
  const double n = static_cast<double>(reports.size());
  double replay_seconds = 0;
  double layer_seconds = 0;
  uint64_t forwarded = 0;
  uint64_t crowds_forwarded = 0;
  std::vector<Bytes> inner_boxes;
  for (int i = 0; i < kOwnedIterations; ++i) {
    uint64_t epoch = static_cast<uint64_t>(i);
    prochlo::Shuffler shuffler(shuffler_keys, shuffler_config);
    prochlo::Analyzer analyzer(analyzer_keys);
    prochlo::SecureRandom rng = prochlo::DeriveEpochRng(pipeline_seed, epoch);
    prochlo::Rng noise_rng = prochlo::DeriveEpochNoiseRng(pipeline_seed, epoch);
    int64_t root = tracer.Begin("pipeline.owned_drain", epoch);
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<prochlo::RecordStream> stream = spool.OpenEpochStream(0);
    replay_seconds += SecondsBetween(t0, Clock::now());
    TimedStream timed(*stream);
    inner_boxes = Traced(tracer, "shuffler.process", epoch, root, [&] {
      return Must(shuffler.ProcessStream(timed, rng, noise_rng), "owned ProcessStream");
    });
    replay_seconds += timed.seconds();
    std::vector<Bytes> payloads = Traced(tracer, "analyzer.decrypt", epoch, root,
                                         [&] { return analyzer.DecryptBatch(inner_boxes); });
    std::map<std::string, uint64_t> histogram = Traced(
        tracer, "analyzer.histogram", epoch, root,
        [&] { return prochlo::Analyzer::HistogramOfValues(payloads); });
    tracer.End(root);
    layer_seconds += SecondsBetween(t0, Clock::now());
    if (histogram != cohort.expected) {
      out.Fail(reports.size(), "owned-key drain histogram differs from the untraced run's");
    }
    forwarded = shuffler.stats().forwarded;
    crowds_forwarded = shuffler.stats().crowds_forwarded;
  }

  // Probes that split ProcessStream: the outer open alone, batched and
  // through the shuffler, and single inner-box opens.
  {
    prochlo::Shuffler shuffler(shuffler_keys, shuffler_config);
    std::unique_ptr<prochlo::RecordStream> stream = spool.OpenEpochStream(0);
    auto views = Traced(tracer, "shuffler.open", 0, -1,
                        [&] { return Must(shuffler.OpenStream(*stream), "owned OpenStream"); });
    if (views.size() != reports.size()) {
      out.Fail(reports.size(), "OpenStream opened " + std::to_string(views.size()) + " reports");
    }
  }
  auto opened = Traced(tracer, "crypto.batch_open", 0, -1,
                       [&] { return prochlo::BatchOpenReports(shuffler_keys, reports); });
  for (const auto& view : opened) {
    if (!view.has_value()) {
      out.Fail(1, "BatchOpenReports failed on a well-formed report");
    }
  }
  for (size_t i = 0; i < std::min(kHybridOpenSamples, inner_boxes.size()); ++i) {
    auto box = prochlo::HybridBox::Deserialize(inner_boxes[i]);
    if (!box.has_value()) {
      out.Fail(1, "forwarded inner box does not parse");
      continue;
    }
    auto payload = Traced(tracer, "crypto.hybrid_open", i, -1, [&] {
      return prochlo::HybridOpen(analyzer_keys, *box, prochlo::kAnalyzerLayerContext);
    });
    if (!payload.has_value()) {
      out.Fail(1, "HybridOpen failed on a forwarded inner box");
    }
  }

  const double iterations = kOwnedIterations;
  out.Set("spool.replay_us_per_report", 1e6 * replay_seconds / iterations / n, "us");
  out.Set("shuffler.open_us_per_report", 1e6 * tracer.MeanSeconds("shuffler.open") / n, "us");
  out.Set("shuffler.process_us_per_report", 1e6 * tracer.MeanSeconds("shuffler.process") / n,
          "us");
  out.Set("shuffler.forwarded_frac", static_cast<double>(forwarded) / n, "frac");
  out.Set("shuffler.crowds_forwarded", static_cast<double>(crowds_forwarded), "count");
  out.Set("analyzer.decrypt_us_per_box",
          forwarded == 0 ? 0.0
                         : 1e6 * tracer.MeanSeconds("analyzer.decrypt") /
                               static_cast<double>(forwarded),
          "us");
  out.Set("analyzer.histogram_us", 1e6 * tracer.MeanSeconds("analyzer.histogram"), "us");
  out.Set("crypto.batch_open_us_per_item", 1e6 * tracer.MeanSeconds("crypto.batch_open") / n,
          "us");
  out.Set("crypto.hybrid_open_us", 1e6 * tracer.MeanSeconds("crypto.hybrid_open"), "us");
  // Share of the real drain (cut -> histogram, traced phase) that replay +
  // shuffle + analyze do not explain: the frontend's own epoch handling.
  out.Set("pipeline.unattributed_frac", 1.0 - layer_seconds / iterations / frontend_drain_s,
          "frac");
}

}  // namespace

Outcome RunEpochDrain(const Options& options) {
  if (prochlo::ShufflerConfig{}.policy.threshold != static_cast<double>(kCrowdThreshold)) {
    throw BenchError("the default crowd threshold is no longer T=20");
  }
  const Cohort cohort = MakeEpochCohort(options.seed);
  Outcome out;
  EndToEnd e2e;
  int setups = 0;
  auto timed_set_up = [&] {
    const std::string dir = options.scratch + "/drain-" + std::to_string(setups++);
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Service> set_up = SetUp(options.seed, dir, cohort, &e2e.seal_us);
    e2e.setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
    return set_up;
  };
  // A set-up repetition whose service is torn down (untimed) unused.
  auto spare_set_up = [&] {
    timed_set_up().reset();
    fs::remove_all(options.scratch + "/drain-" + std::to_string(setups - 1));
  };
  std::unique_ptr<Service> service = timed_set_up();

  Tracer off(false);
  Tracer tracer(options.trace);
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const double n = static_cast<double>(kCohortReports);
  uint64_t epoch = 0;
  double forwarded_frac = 0;
  struct Phase {
    std::vector<double> drain_s;
    double drain_total_s = 0;
  };
  // The untraced phase repeats the set-up after every epoch (see MoreSetups).
  auto run_phase = [&](double seconds, Tracer& phase_tracer, bool spare_set_ups) {
    Phase phase;
    Clock::time_point deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    do {
      Drained drained = DrainOneEpoch(*service, cohort, phase_tracer, epoch++);
      out.attempted += kCohortReports;
      if (!drained.ok) {
        out.Fail(kCohortReports, drained.error);
        break;
      }
      phase.drain_s.push_back(drained.seconds);
      phase.drain_total_s += drained.seconds;
      forwarded_frac = static_cast<double>(drained.forwarded) / n;
      if (spare_set_ups) {
        spare_set_up();
      }
    } while (Clock::now() < deadline);
    while (spare_set_ups && MoreSetups(e2e.setup_seconds)) {
      spare_set_up();
    }
    return phase;
  };
  const Phase plain = run_phase(untraced_seconds, off, /*spare_set_ups=*/true);
  Phase traced;
  if (options.trace && out.errors.empty()) {
    traced = run_phase(options.seconds - untraced_seconds, tracer, /*spare_set_ups=*/false);
  }
  if (out.errors.empty() &&
      (forwarded_frac < kMinForwardedFrac || forwarded_frac > kMaxForwardedFrac)) {
    out.Fail(out.attempted, "hollow drain: shuffler forwarded " + std::to_string(forwarded_frac) +
                                " of the reports, designed ~0.65");
  }

  const double epochs = static_cast<double>(plain.drain_s.size());
  e2e.reports_per_s = n * epochs / plain.drain_total_s;
  std::vector<double> wait_ms;
  for (double s : plain.drain_s) {
    wait_ms.push_back(1e3 * s);
  }
  e2e.SetWaits(wait_ms);
  ReportEndToEnd(e2e, out);
  out.Info("epochs", epochs);
  out.Info("drain_reports_per_s", e2e.reports_per_s, "1/s");
  out.Info("forwarded_frac", forwarded_frac);
  out.Info("crowds_at_or_over_T", static_cast<double>(cohort.expected.size()));

  if (!options.trace || !out.errors.empty()) {
    return out;
  }
  const double traced_mean_s = traced.drain_total_s / static_cast<double>(traced.drain_s.size());
  RunOwnedDrain(options, cohort, traced_mean_s, tracer, out);
  out.Set("encoder.seal_us_per_report", e2e.SealUsPerReport(), "us");
  out.Set("trace.overhead_frac", traced_mean_s / (plain.drain_total_s / epochs) - 1.0, "frac");
  if (!options.spans_out.empty()) {
    tracer.WriteJsonLines(options.spans_out);
  }
  return out;
}

}  // namespace perfbench
