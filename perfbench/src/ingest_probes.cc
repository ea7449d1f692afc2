#include "perfbench/src/ingest_probes.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/service/ingest.h"
#include "src/service/runtime.h"
#include "src/service/wire.h"

namespace perfbench {
namespace {

using prochlo::Bytes;
using prochlo::FrameClient;
using prochlo::ReportContext;
using prochlo::ShardedIngest;
using prochlo::ShufflerFrontend;
using prochlo::Status;

constexpr size_t kProbeReports = 16384;  // per in-memory probe
constexpr size_t kWorkers = 2;           // as in every shard group the benchmark runs
constexpr size_t kRingCapacity = 1024;
constexpr auto kAckTimeout = std::chrono::seconds(30);
constexpr auto kTickInterval = std::chrono::milliseconds(50);

void ProbeWireAndShard(const std::vector<Bytes>& reports, Tracer& tracer, IngestProbes& probes) {
  const size_t n = kProbeReports;
  std::vector<Bytes> frames;
  frames.reserve(n);
  Traced(tracer, "wire.encode", 0, -1, [&] {
    for (size_t i = 0; i < n; ++i) {
      frames.push_back(prochlo::EncodeReportFrame(i, reports[i % reports.size()]));
    }
  });
  Bytes stream;
  for (const Bytes& frame : frames) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  std::vector<prochlo::Frame> decoded;
  decoded.reserve(n);
  prochlo::StreamingFrameDecoder decoder;
  constexpr size_t kReadChunk = 64 * 1024;  // a socket read's worth
  Traced(tracer, "wire.decode", 0, -1, [&] {
    for (size_t offset = 0; offset < stream.size(); offset += kReadChunk) {
      size_t len = std::min(kReadChunk, stream.size() - offset);
      decoder.Feed(prochlo::ByteSpan(stream.data() + offset, len), decoded);
    }
  });
  if (decoded.size() != n) {
    throw BenchError("wire probe decoded " + std::to_string(decoded.size()) + " of " +
                     std::to_string(n) + " frames");
  }
  size_t shard_sum = 0;
  Traced(tracer, "ingest.shard", 0, -1, [&] {
    for (size_t i = 0; i < n; ++i) {
      shard_sum += ShardedIngest::ShardOfReport(reports[i % reports.size()], 4);
    }
  });
  if (shard_sum > 3 * n) {
    throw BenchError("shard probe returned an out-of-range shard");
  }
  probes.wire_encode_us = 1e6 * tracer.TotalSeconds("wire.encode") / static_cast<double>(n);
  probes.wire_decode_us = 1e6 * tracer.TotalSeconds("wire.decode") / static_cast<double>(n);
  probes.shard_us = 1e6 * tracer.TotalSeconds("ingest.shard") / static_cast<double>(n);
}

void ProbeEnqueue(const prochlo::FrontendConfig& wal_config, const std::vector<Bytes>& reports,
                  Tracer& tracer, IngestProbes& probes) {
  prochlo::FrontendConfig config;
  config.pipeline = wal_config.pipeline;  // in memory: the ring handoff alone
  ShufflerFrontend frontend(config);
  Must(frontend.Start(), "enqueue probe frontend start");
  prochlo::IngestWorkerPool workers(&frontend,
                                    prochlo::WorkerPoolConfig{kWorkers, kRingCapacity});
  workers.Start();
  const size_t n = kProbeReports;
  std::vector<Bytes> copies;
  copies.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    copies.push_back(reports[i % reports.size()]);
  }
  std::atomic<uint64_t> ingested{0};
  Traced(tracer, "runtime.enqueue", 0, -1, [&] {
    for (Bytes& report : copies) {
      workers.EnqueueAsync(std::move(report), ReportContext{}, [&ingested](const Status& s) {
        if (s.ok()) {
          ingested.fetch_add(1);
        }
      });
    }
  });
  Must(workers.Flush(), "enqueue probe flush");
  workers.Stop();
  if (ingested.load() != n) {
    throw BenchError("enqueue probe ingested " + std::to_string(ingested.load()) + " of " +
                     std::to_string(n));
  }
  probes.enqueue_us = 1e6 * tracer.TotalSeconds("runtime.enqueue") / static_cast<double>(n);
}

void ProbeWal(const prochlo::FrontendConfig& wal_config, const std::vector<Bytes>& reports,
              Tracer& tracer, IngestProbes& probes) {
  ShufflerFrontend frontend(wal_config);
  Must(frontend.Start(), "wal probe frontend start");
  if (frontend.wal() == nullptr) {
    throw BenchError("the WAL probe's frontend runs without a WAL");
  }
  constexpr size_t kBlocks = 4;
  const size_t windows_per_block = 2048 / kAckWindow;  // ~0.5 MiB: below the auto-checkpoint backlog
  std::atomic<uint64_t> committed{0};
  size_t cursor = 0;
  for (size_t block = 0; block < kBlocks; ++block) {
    for (size_t w = 0; w < windows_per_block; ++w) {
      Traced(tracer, "wal.commit", block, -1, [&] {
        for (size_t k = 0; k < kAckWindow; ++k) {
          const Bytes& report = reports[cursor++ % reports.size()];
          size_t shard = ShardedIngest::ShardOfReport(report, frontend.num_shards());
          Must(frontend.AcceptRoutedReportAsync(shard, report, ReportContext{},
                                                [&committed](const Status& s) {
                                                  if (s.ok()) {
                                                    committed.fetch_add(1);
                                                  }
                                                }),
               "wal probe accept");
        }
        Must(frontend.BarrierIngest(), "wal probe barrier");
      });
    }
    Traced(tracer, "wal.checkpoint", block, -1,
           [&] { Must(frontend.wal()->Checkpoint(), "wal probe checkpoint"); });
  }
  const uint64_t n = kBlocks * windows_per_block * kAckWindow;
  if (committed.load() != n) {
    throw BenchError("wal probe committed " + std::to_string(committed.load()) + " of " +
                     std::to_string(n));
  }
  probes.wal_commit_us = 1e6 * tracer.TotalSeconds("wal.commit") / static_cast<double>(n);
  probes.checkpoint_ms = 1e3 * tracer.MeanSeconds("wal.checkpoint");
}

}  // namespace

prochlo::FrontendConfig DurableFrontendConfig(const prochlo::PipelineConfig& pipeline,
                                              const std::string& spool_dir) {
  prochlo::FrontendConfig config;
  config.pipeline = pipeline;
  config.spool_dir = spool_dir;
  config.fsync_spool = true;  // an ACK must mean "on disk"
  return config;              // use_wal defaults to on
}

void AckedService::CloseClients() {
  for (auto& client : clients) {
    client->Close();
  }
  clients.clear();
}

AckedService::~AckedService() {
  CloseClients();
  if (group != nullptr) {
    (void)group->Stop();  // teardown of an already-checked run
  }
}

std::unique_ptr<AckedService> StartAckedService(const prochlo::FrontendConfig& config,
                                                std::vector<Bytes> pool, size_t clients) {
  auto service = std::make_unique<AckedService>();
  service->pool = std::move(pool);
  prochlo::ShardGroupConfig group_config;
  group_config.group_id = 1;
  group_config.frontend = config;
  group_config.workers = prochlo::WorkerPoolConfig{kWorkers, kRingCapacity};
  group_config.listen_tcp = true;  // ephemeral loopback port
  service->group = std::make_unique<prochlo::ShardGroup>(group_config);
  Must(service->group->Start(), "shard group start");
  if (service->frontend().wal() == nullptr) {
    throw BenchError("the shard group runs without its ingest WAL");
  }
  for (size_t c = 0; c < clients; ++c) {
    auto client = std::make_unique<FrameClient>(prochlo::FrameClientConfig{/*session_id=*/c + 1});
    auto stream = Must(prochlo::TcpConnect("127.0.0.1", service->group->port()), "tcp connect");
    Must(client->Connect(std::move(stream)), "client connect");
    service->clients.push_back(std::move(client));
  }
  return service;
}

void WalCounters::AddDelta(const prochlo::IngestWal::Stats& before,
                           const prochlo::IngestWal::Stats& after) {
  fsyncs += after.fsyncs - before.fsyncs;
  records += after.records_flushed - before.records_flushed;
  blocks += after.blocks_flushed - before.blocks_flushed;
  bytes += after.bytes_flushed - before.bytes_flushed;
  checkpoints += after.checkpoints - before.checkpoints;
}

AckedLoad RunAckedLoad(AckedService& service, double seconds, Tracer& tracer) {
  struct PerClient {
    uint64_t sent = 0;
    uint64_t failed_windows = 0;
    std::vector<double> window_ms;
  };
  std::vector<PerClient> per_client(service.clients.size());
  std::vector<uint64_t> acked_before;
  for (const auto& client : service.clients) {
    acked_before.push_back(client->stats().acked);
  }
  const prochlo::IngestWal::Stats wal_before = service.frontend().wal()->stats();
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::atomic<bool> clients_done{false};
  uint64_t failed_ticks = 0;
  std::thread ticker([&] {
    while (!clients_done.load()) {
      std::this_thread::sleep_for(kTickInterval);
      if (!service.frontend().Tick().ok()) {
        failed_ticks++;
      }
    }
  });
  std::vector<std::thread> threads;
  for (size_t c = 0; c < service.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      FrameClient& client = *service.clients[c];
      PerClient& load = per_client[c];
      size_t cursor = c * (service.pool.size() / service.clients.size());
      for (uint64_t window = 0; Clock::now() < deadline; ++window) {
        uint64_t trace_id = (c << 48) | window;
        int64_t window_span = tracer.Begin("ingest.window", trace_id);
        Clock::time_point t0 = Clock::now();
        Traced(tracer, "connection.send", trace_id, window_span, [&] {
          for (size_t k = 0; k < kAckWindow; ++k) {
            // A failed send stays outstanding in the client; WaitForAcks is the check.
            (void)client.SendReport(service.pool[cursor++ % service.pool.size()]);
          }
        });
        load.sent += kAckWindow;
        bool acked = Traced(tracer, "connection.ack_wait", trace_id, window_span,
                            [&] { return client.WaitForAcks(kAckTimeout); });
        Clock::time_point t1 = Clock::now();
        tracer.End(window_span);
        if (!acked) {
          load.failed_windows++;
          break;  // the connection is gone; the books count the loss
        }
        load.window_ms.push_back(1e3 * SecondsBetween(t0, t1));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  AckedLoad total;
  total.seconds = SecondsBetween(start, Clock::now());
  clients_done.store(true);
  ticker.join();
  total.failed_ticks = failed_ticks;
  for (size_t c = 0; c < per_client.size(); ++c) {
    total.sent += per_client[c].sent;
    total.failed_windows += per_client[c].failed_windows;
    total.acked += service.clients[c]->stats().acked - acked_before[c];
    total.window_ms.insert(total.window_ms.end(), per_client[c].window_ms.begin(),
                           per_client[c].window_ms.end());
  }
  total.wal.AddDelta(wal_before, service.frontend().wal()->stats());
  return total;
}

void CheckAckedLoad(const AckedLoad& load, const std::string& phase, Outcome& out) {
  if (load.acked != load.sent || load.failed_windows != 0) {
    out.Fail(load.sent - std::min(load.sent, load.acked),
             phase + ": clients saw " + std::to_string(load.acked) + " ACKs for " +
                 std::to_string(load.sent) + " reports");
  }
  if (load.failed_ticks != 0) {
    out.Fail(load.sent, phase + ": the service ticker failed (WAL checkpoint error)");
  }
  // Hollow-benchmark guard: "acked" must have cost an fsync.
  if (load.sent != 0 && load.wal.fsyncs == 0) {
    out.Fail(load.sent, phase + ": no WAL fsync: the ACKs were not durable");
  }
}

IngestProbes ProbeIngestLayers(const prochlo::FrontendConfig& wal_config,
                               const std::vector<Bytes>& reports, Tracer& tracer) {
  IngestProbes probes;
  ProbeWireAndShard(reports, tracer, probes);
  ProbeEnqueue(wal_config, reports, tracer, probes);
  ProbeWal(wal_config, reports, tracer, probes);
  return probes;
}

void SetIngestLayerMetrics(const IngestProbes& probes, const AckedLoad& traced,
                           const Tracer& tracer, Outcome& out) {
  const double n = static_cast<double>(traced.sent);
  const WalCounters& wal = traced.wal;
  out.Set("connection.send_us_per_report",
          1e6 * tracer.MeanSeconds("connection.send") / static_cast<double>(kAckWindow), "us");
  out.Set("connection.ack_wait_ms_per_window", 1e3 * tracer.MeanSeconds("connection.ack_wait"),
          "ms");
  out.Set("wire.encode_us_per_frame", probes.wire_encode_us, "us");
  out.Set("wire.decode_us_per_frame", probes.wire_decode_us, "us");
  out.Set("runtime.enqueue_us_per_report", probes.enqueue_us, "us");
  out.Set("ingest.shard_us_per_report", probes.shard_us, "us");
  out.Set("wal.commit_us_per_report", probes.wal_commit_us, "us");
  out.Set("wal.checkpoint_ms", probes.checkpoint_ms, "ms");
  out.Set("wal.fsyncs_per_report", static_cast<double>(wal.fsyncs) / n, "1/report");
  out.Set("wal.records_per_block",
          wal.blocks == 0 ? 0.0 : static_cast<double>(wal.records) / static_cast<double>(wal.blocks),
          "records/block");
  out.Set("wal.bytes_per_report", static_cast<double>(wal.bytes) / n, "B/report");
  out.Set("wal.checkpoints", static_cast<double>(wal.checkpoints), "count");
  // Share of a window the server-side layers do not explain: socket
  // transfer, thread handoffs, and the ACK's way back.
  const double window_us = 1e3 * Quantile(traced.window_ms, 0.5);
  out.Set("ingest.unattributed_frac",
          1.0 - static_cast<double>(kAckWindow) * probes.PerReportUs() / window_us, "frac");
}

}  // namespace perfbench
