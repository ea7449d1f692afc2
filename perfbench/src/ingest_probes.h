// The ingest layers a shard group runs, driven from outside through their
// public functions on a workload's own sealed reports:
//
// - the durable-ACK path end to end: one ShardGroup (TCP listener on an
//   ephemeral loopback port, the default WAL, fsync on, 2 workers) and
//   FrameClients over TcpConnect in a closed loop of report windows;
// - one layer at a time: frame codec, shard hashing, the worker-pool
//   handoff, the WAL group commit and checkpoint.
//
// ingest-acked measures the closed loop as its workload; the traced runs of
// ingest-acked and cluster-epoch probe the layers.
#ifndef PERFBENCH_SRC_INGEST_PROBES_H_
#define PERFBENCH_SRC_INGEST_PROBES_H_

#include <memory>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/service/cluster/shard_group.h"
#include "src/service/connection.h"
#include "src/service/frontend.h"
#include "src/service/wal.h"

namespace perfbench {

inline constexpr size_t kAckWindow = 32;  // reports per closed-loop window

// A spooled frontend config whose ACKs mean "on disk": the default WAL with
// fsync on.
prochlo::FrontendConfig DurableFrontendConfig(const prochlo::PipelineConfig& pipeline,
                                              const std::string& spool_dir);

// The service under closed-loop load plus its clients.  Clients close
// before the group stops, so every session says goodbye to a live server.
struct AckedService {
  std::unique_ptr<prochlo::ShardGroup> group;
  std::vector<std::unique_ptr<prochlo::FrameClient>> clients;
  std::vector<prochlo::Bytes> pool;  // sealed reports, sent round-robin

  prochlo::ShufflerFrontend& frontend() { return group->frontend(); }
  void CloseClients();
  ~AckedService();
};

// Starts the group on `config` (which must run the WAL) and connects
// `clients` FrameClients to it.
std::unique_ptr<AckedService> StartAckedService(const prochlo::FrontendConfig& config,
                                                std::vector<prochlo::Bytes> pool,
                                                size_t clients);

// The WAL counters one phase moved (IngestWal::Stats deltas).
struct WalCounters {
  uint64_t fsyncs = 0;
  uint64_t records = 0;
  uint64_t blocks = 0;
  uint64_t bytes = 0;
  uint64_t checkpoints = 0;

  void AddDelta(const prochlo::IngestWal::Stats& before, const prochlo::IngestWal::Stats& after);
};

// One closed-loop phase: every client sends windows of kAckWindow reports
// and blocks in WaitForAcks until the deadline, while a ticker calls
// ShufflerFrontend::Tick every 50 ms (the cadence on which the WAL
// checkpoints its backlog).  Spans: ingest.window, connection.send,
// connection.ack_wait.
struct AckedLoad {
  uint64_t sent = 0;
  uint64_t acked = 0;  // the clients' unique ACKs during the phase
  uint64_t failed_windows = 0;
  uint64_t failed_ticks = 0;
  double seconds = 0;
  std::vector<double> window_ms;  // first send -> last ACK, per window
  WalCounters wal;
};
AckedLoad RunAckedLoad(AckedService& service, double seconds, Tracer& tracer);

// Counts a phase's missing ACKs, failed windows or ticks, and a phase in
// which the WAL never fsynced (a hollow "durable" ACK), as failures.
void CheckAckedLoad(const AckedLoad& load, const std::string& phase, Outcome& out);

// Per-report (per-frame) costs in microseconds; checkpoint_ms per call.
struct IngestProbes {
  double wire_encode_us = 0;
  double wire_decode_us = 0;
  double shard_us = 0;
  double enqueue_us = 0;
  double wal_commit_us = 0;
  double checkpoint_ms = 0;

  // What the layers cost one report on its way to an ACK.
  double PerReportUs() const {
    return wire_encode_us + wire_decode_us + shard_us + enqueue_us + wal_commit_us;
  }
};

// `wal_config` is a DurableFrontendConfig with a fresh spool_dir; the WAL
// probe commits windows of kAckWindow reports (AcceptRoutedReportAsync
// each, then BarrierIngest) and checkpoints between blocks of windows.
IngestProbes ProbeIngestLayers(const prochlo::FrontendConfig& wal_config,
                               const std::vector<prochlo::Bytes>& reports, Tracer& tracer);

// Sets the wire.*, runtime.*, ingest.* and wal.* metrics and the
// connection send / ACK-wait times of a traced closed-loop phase and the
// layer probes (the callers set the connection books' counts).
void SetIngestLayerMetrics(const IngestProbes& probes, const AckedLoad& traced,
                           const Tracer& tracer, Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INGEST_PROBES_H_
