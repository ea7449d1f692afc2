// cluster-epoch: the epoch-drain cohort through the cluster tier.
//
// Four ShardGroups (2 ingest workers each, WAL on, no fsync) sit behind a
// Router; one ClusterClient on loopback sends the Zipf cohort of
// epoch-drain, sealed during set-up, once per epoch.  An epoch ends when
// EpochCoordinator::CutEpochAll and MergeEpoch have returned the merged
// histogram.  The wait is CutEpochAll -> MergeEpoch returned.
//
// Today every group decrypts its sub-threshold crowds too, and the groups
// drain one after another on the merging thread; the traced run measures
// both (decrypted payloads per forwarded report, merge CPU over wall time).
// Every other traced epoch replaces MergeEpoch with its parts, called from
// here: ShufflerFrontend::DrainNextEpochPartial per group, then
// HistogramMerge.  The traced run then sends the cohort through the
// durable-ACK path (an fsyncing group under a closed FrameClient loop) and
// probes the ingest layers one by one (ingest_probes.h).
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "perfbench/src/bench.h"
#include "perfbench/src/ingest_probes.h"
#include "src/core/pipeline.h"
#include "src/service/cluster/coordinator.h"
#include "src/service/cluster/merge.h"
#include "src/service/cluster/router.h"
#include "src/service/cluster/shard_group.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using prochlo::Bytes;
using prochlo::ShardGroup;

constexpr size_t kGroups = 4;
constexpr auto kTimeout = std::chrono::seconds(60);
constexpr size_t kAckProbeClients = 2;
constexpr double kAckProbeSeconds = 3;

prochlo::FrontendConfig GroupFrontendConfig(uint64_t seed, const std::string& spool_dir) {
  prochlo::FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = prochlo::ThresholdMode::kNaive;
  config.pipeline.seed = PipelineSeed(seed);
  config.spool_dir = spool_dir;
  config.fsync_spool = false;
  return config;
}

struct Service {
  std::vector<std::unique_ptr<ShardGroup>> owned;
  std::vector<ShardGroup*> groups;
  std::unique_ptr<prochlo::Router> router;
  std::unique_ptr<prochlo::EpochCoordinator> coordinator;
  std::unique_ptr<prochlo::HistogramMerge> merge;
  std::unique_ptr<prochlo::ClusterClient> client;
  std::vector<Bytes> cohort;
  uint64_t next_epoch = 0;
  uint64_t sent = 0;

  // Client goodbyes first, then the barrier, then the groups.
  void Stop() {
    if (client != nullptr) {
      client->Close();
      client.reset();
    }
    if (coordinator != nullptr) {
      coordinator->Stop();
    }
    for (ShardGroup* group : groups) {
      (void)group->Stop();  // idempotent; the run's books are read after it
    }
  }
  ~Service() { Stop(); }
};

std::unique_ptr<Service> SetUp(uint64_t seed, const std::string& dir, const Cohort& cohort,
                               std::vector<double>* seal_us) {
  auto service = std::make_unique<Service>();
  const prochlo::PipelineConfig pipeline = GroupFrontendConfig(seed, "").pipeline;
  for (size_t g = 1; g <= kGroups; ++g) {
    prochlo::ShardGroupConfig config;
    config.group_id = g;
    config.frontend = GroupFrontendConfig(seed, dir + "/group-" + std::to_string(g));
    config.workers = prochlo::WorkerPoolConfig{/*workers=*/2, /*ring_capacity=*/1024};
    service->owned.push_back(std::make_unique<ShardGroup>(config));
    service->groups.push_back(service->owned.back().get());
    Must(service->groups.back()->Start(), "group start");
  }
  service->router = std::make_unique<prochlo::Router>(service->groups);
  service->router->Start();
  service->coordinator = std::make_unique<prochlo::EpochCoordinator>(service->groups);
  service->coordinator->Start();
  service->merge = std::make_unique<prochlo::HistogramMerge>(pipeline);

  const prochlo::Encoder encoder = prochlo::Pipeline(pipeline).MakeEncoder();
  prochlo::SecureRandom sealing(prochlo::ToBytes("perfbench-cluster-" + std::to_string(seed)));
  Clock::time_point t0 = Clock::now();
  service->cohort = Must(encoder.BatchSealReports(cohort.inputs, sealing), "seal cohort");
  seal_us->push_back(1e6 * SecondsBetween(t0, Clock::now()) /
                     static_cast<double>(cohort.inputs.size()));

  std::vector<ShardGroup*> groups = service->groups;
  service->client = std::make_unique<prochlo::ClusterClient>(
      service->router->CurrentMap(),
      [groups](uint64_t group_id) -> prochlo::Result<std::unique_ptr<prochlo::ByteStream>> {
        for (ShardGroup* group : groups) {
          if (group->group_id() == group_id) {
            return group->Connect();
          }
        }
        return prochlo::Error{"unknown group " + std::to_string(group_id)};
      });
  Must(service->client->Connect(), "cluster client connect");
  return service;
}

struct EpochRun {
  bool ok = false;
  std::string error;
  double total_s = 0;  // first send -> merged histogram
  double merge_s = 0;  // CutEpochAll -> merged histogram
  double cpu_per_wall = 0;
  std::vector<double> group_drain_s;  // decomposed epochs only
  uint64_t inner_opens = 0;
  uint64_t forwarded = 0;
};

// One epoch: send the cohort, wait for every ACK, cut, merge.  `decomposed`
// replaces MergeEpoch with DrainNextEpochPartial per group + HistogramMerge.
EpochRun RunEpoch(Service& service, const Cohort& cohort, Tracer& tracer, bool decomposed) {
  EpochRun run;
  const uint64_t epoch = service.next_epoch++;
  Clock::time_point t0 = Clock::now();
  int64_t root = tracer.Begin("cluster.epoch", epoch);
  Traced(tracer, "cluster.send", epoch, root, [&] {
    for (const Bytes& report : service.cohort) {
      // A failed send stays outstanding in the client; WaitForAllAcked is the check.
      (void)service.client->SendReport(report);
    }
  });
  service.sent += service.cohort.size();
  bool acked = Traced(tracer, "cluster.ack_wait", epoch, root,
                      [&] { return service.client->WaitForAllAcked(kTimeout); });
  Clock::time_point cut_start = Clock::now();
  prochlo::Status cut = Traced(tracer, "cluster.cut", epoch, root,
                               [&] { return service.coordinator->CutEpochAll(); });
  if (!acked || !cut.ok()) {
    tracer.End(root);
    run.error = "epoch " + std::to_string(epoch) + ": reports not all ACKed or cut failed";
    return run;
  }

  prochlo::PipelineResult result;
  size_t reports = 0;
  if (!decomposed) {
    double cpu0 = ProcessCpuSeconds();
    Clock::time_point wall0 = Clock::now();
    auto merged = Traced(tracer, "cluster.merge_epoch", epoch, root, [&] {
      return service.coordinator->MergeEpoch(epoch, *service.merge,
                                             std::chrono::duration_cast<std::chrono::milliseconds>(kTimeout));
    });
    run.cpu_per_wall = (ProcessCpuSeconds() - cpu0) / SecondsBetween(wall0, Clock::now());
    if (!merged.ok() || !merged.value().complete()) {
      tracer.End(root);
      run.error = "epoch " + std::to_string(epoch) + ": MergeEpoch failed or incomplete";
      return run;
    }
    result = merged.value().merged.result;
    reports = merged.value().merged.reports;
  } else {
    std::vector<prochlo::EpochPartial> partials;
    for (ShardGroup* group : service.groups) {
      Clock::time_point g0 = Clock::now();
      auto partial = Traced(tracer, "cluster.group_drain", epoch, root,
                            [&] { return group->frontend().DrainNextEpochPartial(); });
      run.group_drain_s.push_back(SecondsBetween(g0, Clock::now()));
      if (!partial.ok() || !partial.value().has_value() || partial.value()->epoch != epoch) {
        tracer.End(root);
        run.error = "epoch " + std::to_string(epoch) + ": group " +
                    std::to_string(group->group_id()) + " has no partial for it";
        return run;
      }
      // A decrypted payload in a partial is an inner box the group opened.
      // (The undecryptable count is not: it is the part of a crowd's
      // cardinality that carries no value, whether or not it was opened.)
      for (const auto& [hash, crowd] : partial.value()->partial.crowds) {
        for (const auto& [value, count] : crowd.value_counts) {
          run.inner_opens += count;
        }
      }
      partials.push_back(std::move(partial.value()->partial));
    }
    auto merged = Traced(tracer, "cluster.merge", epoch, root,
                         [&] { return service.merge->Merge(epoch, partials); });
    if (!merged.ok()) {
      tracer.End(root);
      run.error = "epoch " + std::to_string(epoch) + ": HistogramMerge failed";
      return run;
    }
    result = merged.value();
    for (const auto& partial : partials) {
      reports += partial.reports;
    }
  }
  tracer.End(root);
  Clock::time_point t1 = Clock::now();
  run.total_s = SecondsBetween(t0, t1);
  run.merge_s = SecondsBetween(cut_start, t1);
  run.forwarded = result.shuffler_stats.forwarded;
  if (reports != cohort.inputs.size()) {
    run.error = "epoch " + std::to_string(epoch) + " merged " + std::to_string(reports) +
                " reports";
  } else if (result.histogram != cohort.expected) {
    run.error = "epoch " + std::to_string(epoch) +
                " merged histogram differs from the plaintext counts";
  } else if (run.forwarded != cohort.reports_in_crowds_over_threshold) {
    run.error = "epoch " + std::to_string(epoch) + " forwarded " + std::to_string(run.forwarded) +
                " reports, expected " + std::to_string(cohort.reports_in_crowds_over_threshold);
  } else {
    run.ok = true;
  }
  return run;
}

}  // namespace

Outcome RunClusterEpoch(const Options& options) {
  const Cohort cohort = MakeEpochCohort(options.seed);
  Outcome out;
  EndToEnd e2e;
  int setups = 0;
  auto timed_set_up = [&] {
    const std::string dir = options.scratch + "/cluster-" + std::to_string(setups++);
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Service> set_up = SetUp(options.seed, dir, cohort, &e2e.seal_us);
    e2e.setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
    return set_up;
  };
  // A set-up repetition whose service is torn down (untimed) unused.
  auto spare_set_up = [&] {
    timed_set_up().reset();
    fs::remove_all(options.scratch + "/cluster-" + std::to_string(setups - 1));
  };
  std::unique_ptr<Service> service = timed_set_up();

  Tracer off(false);
  Tracer tracer(options.trace);
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<EpochRun> plain;
  std::vector<EpochRun> traced;
  // The untraced phase repeats the set-up after every epoch (see MoreSetups).
  auto run_phase = [&](double seconds, Tracer& phase_tracer, std::vector<EpochRun>& runs,
                       bool traced_phase) {
    Clock::time_point deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    do {
      bool decomposed = traced_phase && runs.size() % 2 == 1;
      EpochRun run = RunEpoch(*service, cohort, phase_tracer, decomposed);
      out.attempted += kCohortReports;
      if (!run.ok) {
        out.Fail(kCohortReports, run.error);
        return;
      }
      runs.push_back(std::move(run));
      if (!traced_phase) {
        spare_set_up();
      }
    } while (Clock::now() < deadline || (traced_phase && runs.size() < 2));
    while (!traced_phase && MoreSetups(e2e.setup_seconds)) {
      spare_set_up();
    }
  };
  run_phase(untraced_seconds, off, plain, /*traced_phase=*/false);
  if (options.trace && out.errors.empty()) {
    run_phase(options.seconds - untraced_seconds, tracer, traced, /*traced_phase=*/true);
  }

  // Exactly-once across the cluster: every report ACKed by one group.
  const uint64_t redirects = service->client->stats().redirects_followed;
  const uint64_t sent = service->sent;
  service->Stop();
  prochlo::ConnectionAckBook book;
  for (ShardGroup* group : service->groups) {
    book.Fold(group->server().ack_book());
  }
  if (out.errors.empty() && (book.acked != sent || book.duplicates_suppressed != 0)) {
    out.Fail(sent, "group books: acked " + std::to_string(book.acked) + ", duplicates " +
                       std::to_string(book.duplicates_suppressed) + " for " +
                       std::to_string(sent) + " sent");
  }

  double total_s = 0;
  std::vector<double> wait_ms;
  for (const EpochRun& run : plain) {
    total_s += run.total_s;
    wait_ms.push_back(1e3 * run.merge_s);
  }
  e2e.SetWaits(wait_ms);
  const double total_mean_s = total_s / static_cast<double>(plain.size());
  e2e.reports_per_s = static_cast<double>(kCohortReports) / total_mean_s;
  ReportEndToEnd(e2e, out);
  out.Info("epochs", static_cast<double>(plain.size()));
  out.Info("cluster_reports_per_s", e2e.reports_per_s, "1/s");
  out.Info("cluster_merge_s", e2e.wait_p50_ms / 1e3, "s");

  if (!options.trace || !out.errors.empty()) {
    return out;
  }
  const double n = static_cast<double>(kCohortReports);
  std::vector<double> traced_totals;
  std::vector<double> cpu_per_wall;
  double drain_max = 0;
  double drain_sum = 0;
  uint64_t inner_opens = 0;
  uint64_t forwarded = 0;
  size_t decomposed = 0;
  for (const EpochRun& run : traced) {
    if (run.group_drain_s.empty()) {
      traced_totals.push_back(run.total_s);
      cpu_per_wall.push_back(run.cpu_per_wall);
      continue;
    }
    decomposed++;
    drain_max += *std::max_element(run.group_drain_s.begin(), run.group_drain_s.end());
    for (double s : run.group_drain_s) {
      drain_sum += s;
    }
    inner_opens += run.inner_opens;
    forwarded += run.forwarded;
  }
  out.Set("cluster.send_us_per_report", 1e6 * tracer.MeanSeconds("cluster.send") / n, "us");
  out.Set("cluster.ack_wait_s", tracer.MeanSeconds("cluster.ack_wait"), "s");
  out.Set("cluster.cut_s", tracer.MeanSeconds("cluster.cut"), "s");
  out.Set("cluster.group_drain_s.max", drain_max / static_cast<double>(decomposed), "s");
  out.Set("cluster.group_drain_s.sum", drain_sum / static_cast<double>(decomposed), "s");
  out.Set("cluster.merge_ms", 1e3 * tracer.MeanSeconds("cluster.merge"), "ms");
  out.Set("cluster.merge_cpu_per_wall", Quantile(cpu_per_wall, 0.5), "cpu/wall");
  out.Set("cluster.inner_opens_per_forwarded",
          static_cast<double>(inner_opens) / static_cast<double>(forwarded), "opens/report");
  out.Set("cluster.redirects", static_cast<double>(redirects), "count");
  // The groups above ingest without fsync.  The durable-ACK path they would
  // run in production is probed on its own: one fsyncing group under a
  // short closed loop of FrameClient windows, then its layers one by one.
  const prochlo::PipelineConfig pipeline = GroupFrontendConfig(options.seed, "").pipeline;
  AckedLoad acked;
  {
    std::unique_ptr<AckedService> probe = StartAckedService(
        DurableFrontendConfig(pipeline, options.scratch + "/ack-probe"), service->cohort,
        kAckProbeClients);
    acked = RunAckedLoad(*probe, kAckProbeSeconds, tracer);
  }
  out.attempted += acked.sent;
  CheckAckedLoad(acked, "durable-ACK probe", out);
  const IngestProbes probes = ProbeIngestLayers(
      DurableFrontendConfig(pipeline, options.scratch + "/wal-probe"), service->cohort, tracer);
  SetIngestLayerMetrics(probes, acked, tracer, out);
  out.Set("connection.nacks", static_cast<double>(book.nacked), "count");
  out.Set("connection.duplicates_suppressed", static_cast<double>(book.duplicates_suppressed),
          "count");
  out.Set("encoder.seal_us_per_report", e2e.SealUsPerReport(), "us");
  out.Set("trace.overhead_frac", Quantile(traced_totals, 0.5) / total_mean_s - 1.0, "frac");
  if (!options.spans_out.empty()) {
    tracer.WriteJsonLines(options.spans_out);
  }
  return out;
}

}  // namespace perfbench
