// ingest-acked: what a client fleet needs from the service — ACKs that mean
// the report is on disk.
//
// One ShardGroup (2 ingest workers, the default WAL, fsync on) listens on an
// ephemeral loopback port.  Two FrameClients over TcpConnect run a closed
// loop: send a window of 32 pre-sealed 64 B-payload reports, block in
// WaitForAcks, repeat (ingest_probes.h).  The wait is window send -> all
// ACKed; throughput and its percentiles are over every window of the run.
//
// The traced run repeats the loop with spans around SendReport/WaitForAcks,
// then probes the layers the server runs internally on the same reports.
//
// Not in BENCHMARK.json: every window waits for an fsync of the shared host
// disk, and on the host the benchmark was built on its ten-run spread was
// far wider than any bound the benchmark may set.  Run it by hand for work
// on the WAL or the network tier; the traced cluster-epoch run probes the
// same durable-ACK path.
#include <filesystem>
#include <memory>

#include "perfbench/src/bench.h"
#include "perfbench/src/ingest_probes.h"
#include "src/core/pipeline.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using prochlo::Bytes;
using prochlo::ShufflerFrontend;
using prochlo::Status;

constexpr size_t kClients = 2;
constexpr size_t kPoolReports = 4096;

prochlo::PipelineConfig AckedPipeline(uint64_t seed) {
  prochlo::PipelineConfig pipeline;
  pipeline.seed = PipelineSeed(seed);
  return pipeline;
}

std::unique_ptr<AckedService> SetUp(uint64_t seed, const std::string& dir,
                                    std::vector<double>* seal_us) {
  // Distinct random values, crowd ID = value; sealed once per set-up.
  prochlo::Rng value_rng(seed);
  std::vector<std::pair<std::string, std::string>> inputs;
  for (size_t i = 0; i < kPoolReports; ++i) {
    std::string value = "r" + std::to_string(value_rng.Next());
    inputs.emplace_back(value, value);
  }
  const prochlo::FrontendConfig config = DurableFrontendConfig(AckedPipeline(seed), dir);
  prochlo::SecureRandom sealing(prochlo::ToBytes("perfbench-ingest-" + std::to_string(seed)));
  const prochlo::Encoder encoder = prochlo::Pipeline(config.pipeline).MakeEncoder();
  Clock::time_point t0 = Clock::now();
  std::vector<Bytes> pool = Must(encoder.BatchSealReports(inputs, sealing), "seal report pool");
  seal_us->push_back(1e6 * SecondsBetween(t0, Clock::now()) / static_cast<double>(kPoolReports));
  return StartAckedService(config, std::move(pool), kClients);
}

}  // namespace

Outcome RunIngestAcked(const Options& options) {
  Outcome out;
  EndToEnd e2e;
  std::unique_ptr<AckedService> service;
  for (int k = 0; MoreSetups(e2e.setup_seconds); ++k) {
    service.reset();
    fs::remove_all(options.scratch + "/ingest-" + std::to_string(k - 1));
    std::string dir = options.scratch + "/ingest-" + std::to_string(k);
    Clock::time_point t0 = Clock::now();
    service = SetUp(options.seed, dir, &e2e.seal_us);
    e2e.setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
  }
  ShufflerFrontend& frontend = service->frontend();

  // Untraced load; a traced run splits its time between an untraced and a
  // traced phase so it can report what the spans cost.
  Tracer off(false);
  Tracer tracer(options.trace);
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  AckedLoad plain = RunAckedLoad(*service, untraced_seconds, off);
  CheckAckedLoad(plain, "untraced load", out);
  AckedLoad traced;
  if (options.trace) {
    traced = RunAckedLoad(*service, options.seconds - untraced_seconds, tracer);
    CheckAckedLoad(traced, "traced load", out);
  }

  // ---- correctness: every report ACKed once, and the cut epoch holds them all ----
  const uint64_t sent = plain.sent + traced.sent;
  out.attempted = sent;
  service->CloseClients();
  const size_t in_epoch = frontend.current_epoch_size();
  Status cut = frontend.CutEpoch();
  const prochlo::IngestStats ingest = frontend.ingest_stats();
  if (!cut.ok() || in_epoch != sent || ingest.epochs_sealed != 1 ||
      frontend.current_epoch_size() != 0) {
    out.Fail(sent, "the epoch cut after the run holds " + std::to_string(in_epoch) +
                       " reports, " + std::to_string(sent) + " were sent");
  }
  Must(service->group->Stop(), "shard group stop");
  const prochlo::ConnectionAckBook book = service->group->server().ack_book();
  if (book.acked != sent || book.duplicates_suppressed != 0 || book.nacked != 0) {
    out.Fail(sent, "server books: acked " + std::to_string(book.acked) + ", nacked " +
                       std::to_string(book.nacked) + ", duplicates " +
                       std::to_string(book.duplicates_suppressed) + " for " +
                       std::to_string(sent) + " sent");
  }

  e2e.reports_per_s = static_cast<double>(plain.acked) / plain.seconds;
  e2e.SetWaits(plain.window_ms);
  ReportEndToEnd(e2e, out);
  out.Info("ingest_reports_per_s", e2e.reports_per_s, "1/s");
  out.Info("ack_window_p50_ms", e2e.wait_p50_ms, "ms");
  // p99 has >= 10 of the run's tens of thousands of windows beyond it.
  out.Info("ack_window_p99_ms", Quantile(plain.window_ms, 0.99), "ms");
  out.Info("ack_window_p999_ms", Quantile(plain.window_ms, 0.999), "ms");
  out.Info("wal_fsyncs_per_report",
           static_cast<double>(plain.wal.fsyncs) / static_cast<double>(plain.sent));

  if (!options.trace) {
    return out;
  }
  const IngestProbes probes = ProbeIngestLayers(
      DurableFrontendConfig(AckedPipeline(options.seed), options.scratch + "/wal-probe"),
      service->pool, tracer);
  SetIngestLayerMetrics(probes, traced, tracer, out);
  out.Set("connection.nacks", static_cast<double>(book.nacked), "count");
  out.Set("connection.duplicates_suppressed", static_cast<double>(book.duplicates_suppressed),
          "count");
  out.Set("encoder.seal_us_per_report", e2e.SealUsPerReport(), "us");
  out.Set("trace.overhead_frac",
          (static_cast<double>(plain.acked) / plain.seconds) /
                  (static_cast<double>(traced.acked) / traced.seconds) -
              1.0,
          "frac");
  if (!options.spans_out.empty()) {
    tracer.WriteJsonLines(options.spans_out);
  }
  return out;
}

}  // namespace perfbench
