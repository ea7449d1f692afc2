// The shuffler-frontend ingestion service: the standing tier between
// clients and the batch Pipeline that makes this repo behave like the
// paper's deployed shuffler rather than a one-shot simulator.
//
//   clients ──frames──► AcceptFrameStream / AcceptReport
//                          │  (wire.h: CRC-checked frames; corrupt frames
//                          │   are skipped and counted, never crash)
//                          ▼
//                      ShardedIngest (ingest.h: content-hash shards,
//                          │   size/age epoch-cut policy)
//                          ▼
//                      IngestWal (wal.h: the one durable commit point;
//                          │   checkpoints write reports through to the
//                          │   spool and session ops to the journal)
//                          ▼
//                      Spool (spool.h: append-only per-(shard,epoch)
//                          │   segments; epochs survive crashes)
//                          ▼  epoch sealed
//                      DrainSealedEpochs ──► Pipeline::RunReports
//                          (stash/plain shuffle + threshold + analyze on
//                           the existing thread pool) ──► EpochResult
//
// Determinism: each epoch's shuffle/threshold randomness is derived from
// (pipeline seed, epoch number) — not from the pipeline's mutable RNG — so
// for a fixed seed the per-epoch histogram is a function of the epoch's
// report *set* alone: independent of ingestion interleaving, of drain
// order, and of whether a crash/recovery happened mid-epoch.  (Under
// randomized thresholding this holds when each crowd maps to one value —
// see Pipeline::RunReports.)
#ifndef PROCHLO_SRC_SERVICE_FRONTEND_H_
#define PROCHLO_SRC_SERVICE_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/service/fs.h"
#include "src/service/ingest.h"
#include "src/service/session_journal.h"
#include "src/service/spool.h"
#include "src/service/wal.h"
#include "src/service/wire.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

class AckRegistry;

struct FrontendConfig {
  PipelineConfig pipeline;
  IngestConfig ingest;
  // Directory for spool segments, the ingest WAL and the session journal;
  // empty = accumulate epochs in memory.  A spooled frontend ingests only
  // through the group-commit WAL (wal.h), so "report durable" and
  // "(session, seq) committed" are one atomic append.
  std::string spool_dir;
  bool fsync_spool = true;
  // Checkpoint the WAL once its flushed-but-unapplied backlog exceeds this.
  uint64_t wal_checkpoint_threshold_bytes = 1ull << 20;
  // Delete an epoch's segments once drained (keep for audit if false).
  bool remove_drained_epochs = true;
  // Bound on live AckRegistry sessions when BindAckRegistry wires one up
  // (0 = unbounded).  Past the cap, the stalest idle session is LRU-evicted
  // with its watermark logged as one evict record.
  size_t max_sessions = 0;
  // Injectable filesystem seam shared by the spool, the WAL and the session
  // journal (disk-fault suites drive short writes / EIO / ENOSPC / crash-at-k
  // through it).  Null = the real filesystem.
  Fs* fs = nullptr;
  // Post-drain RemoveEpoch failures are retried this many times total, with
  // this pause between attempts, before the leak is surfaced in
  // stats().remove_failures.  Transient failures (e.g. a scanner holding
  // the directory) usually clear within one retry.
  uint32_t remove_retry_attempts = 3;
  std::chrono::milliseconds remove_retry_delay{2};
  // Fault injection for the drain/retry tests: fail the pipeline run of
  // `epoch` the first `times` times it is attempted, exactly where a real
  // shuffle/analyze failure lands.  Production configs leave this unset.
  struct DrainFaultInjection {
    uint64_t epoch = 0;
    uint32_t times = 0;
  };
  std::optional<DrainFaultInjection> inject_drain_failure;
};

// Counters are atomic because AcceptReport/AcceptFrameStream are, like
// ShardedIngest::Accept, callable from concurrent client-facing threads.
struct FrontendStats {
  std::atomic<uint64_t> reports_accepted{0};
  std::atomic<uint64_t> frames_ok{0};
  std::atomic<uint64_t> frames_corrupt{0};
  std::atomic<uint64_t> bytes_skipped{0};
  std::atomic<uint64_t> epochs_drained{0};
  std::atomic<uint64_t> recovered_reports{0};   // replayed from the spool at Start()
  std::atomic<uint64_t> recovered_truncated_bytes{0};  // torn tails discarded
  // WAL recovery: report records replayed from un-checkpointed generations
  // into spool segments, and session ops (commit/evict/goodbye) re-journaled
  // from the same suffix.  Both subsets of the totals above/below.
  std::atomic<uint64_t> recovered_wal_reports{0};
  std::atomic<uint64_t> recovered_wal_session_ops{0};
  // Post-drain spool cleanups (RemoveEpoch) that failed even after the
  // configured retries.  The epoch's reports are NOT lost — they were
  // already drained into a result — but its segments linger on disk and
  // would be replayed as a duplicate epoch after a restart, so the leak
  // must be visible.
  std::atomic<uint64_t> remove_failures{0};
  // RemoveEpoch retry attempts that were needed (transient failures).
  std::atomic<uint64_t> remove_retries{0};
  // Session-journal recovery: live sessions restored and records replayed
  // at Start().
  std::atomic<uint64_t> recovered_sessions{0};
  std::atomic<uint64_t> recovered_session_records{0};
  // The acknowledgment-protocol books (acks, nacks, duplicates, redirects)
  // live in the serving FrameServer's ack_book(), final after its Shutdown.
  //
  // Cluster books (src/service/cluster/).  On a group's frontend: routed
  // counts reports this group accepted as owner.  On the merge side:
  // merge_waits counts MergeEpoch calls that had to block for a missing
  // group's seal, merge_shortfalls counts epochs merged after the barrier
  // timed out with groups still missing (their late reports are accounted,
  // never silently dropped).
  std::atomic<uint64_t> routed{0};
  std::atomic<uint64_t> merge_waits{0};
  std::atomic<uint64_t> merge_shortfalls{0};
};

struct EpochResult {
  uint64_t epoch = 0;
  size_t reports = 0;
  PipelineResult result;
};

// One epoch's pre-threshold contribution from this frontend (cluster mode):
// per-crowd inner boxes, still encrypted — thresholding is global, so only
// the merge step (HistogramMerge) may apply it, and it decrypts survivors.
struct EpochPartialResult {
  uint64_t epoch = 0;
  size_t reports = 0;
  EpochPartial partial;
};

// Per-epoch derived randomness, shared by the serial drain and the cluster
// merge: for a fixed (seed, epoch) the shuffle permutation and threshold
// noise are identical wherever they are replayed — the keystone of the
// merged-histogram bit-identity guarantee.
SecureRandom DeriveEpochRng(const std::string& seed, uint64_t epoch);
Rng DeriveEpochNoiseRng(const std::string& seed, uint64_t epoch);

// A drain failure: the pipeline run of `epoch` failed.  The epoch was
// requeued intact (its reports are safe — in-memory batches keep their
// shard_reports, spooled segments stay on disk), so a later
// DrainSealedEpochs retries it.
struct DrainError {
  uint64_t epoch = 0;
  Error error;
};

// What one DrainSealedEpochs call accomplished: every epoch it *did* drain,
// plus the failure that stopped it early (if any).  Partial progress is
// never discarded — an error on epoch e does not lose the results of the
// epochs drained before it.
struct DrainReport {
  std::vector<EpochResult> results;
  std::optional<DrainError> failure;

  bool ok() const { return !failure.has_value(); }
};

class ShufflerFrontend {
 public:
  explicit ShufflerFrontend(FrontendConfig config);
  ~ShufflerFrontend();
  ShufflerFrontend(const ShufflerFrontend&) = delete;
  ShufflerFrontend& operator=(const ShufflerFrontend&) = delete;

  // Opens the spool (creating/recovering it) and readies ingestion.  After
  // a crash, sealed epochs re-enter the drain queue and the newest unsealed
  // epoch resumes accumulating exactly where its durable frames end.  With
  // a spool_dir, also replays the ingest WAL's un-checkpointed suffix and
  // <spool_dir>/sessions.journal — the durable half of the exactly-once
  // dedup contract.
  Status Start();

  // Wires an AckRegistry (typically FrameServer::registry()) to this
  // frontend's durable session state: applies config.max_sessions, seeds
  // the registry with the sessions recovered at Start(), and attaches the
  // WAL so commits/evictions/goodbyes are logged before they are
  // acknowledged.  WAL checkpoints then compact the journal from registry
  // snapshots.  Call after Start() and before serving connections.  The
  // binding lasts until the registry's server stops, the registry is
  // destroyed, or another registry is bound, whichever comes first; after
  // that checkpoints no longer compact the journal until the next bind.
  Status BindAckRegistry(AckRegistry* registry);

  // The session journal, or null (in-memory mode / before Start).
  SessionJournal* session_journal() { return journal_.get(); }
  // The ingest WAL, or null (in-memory mode / before Start).
  IngestWal* wal() { return wal_.get(); }

  // Encoder bound to this frontend's pipeline keys, for clients.
  Encoder MakeEncoder() const { return pipeline_.MakeEncoder(); }

  // Ingests a buffer of wire frames (zero or more).  Corrupt frames are
  // skipped with stats kept; the call only fails on spool I/O errors.
  Status AcceptFrameStream(ByteSpan stream);
  // Ingests one already-unframed sealed report.
  Status AcceptReport(Bytes sealed_report);
  // Ingests a report whose shard was already computed by the caller (the
  // ingest worker pool routes with ShardOfReport before enqueueing; the
  // worker thread skips re-hashing).  Same error contract as AcceptReport:
  // non-Ok means the report was not ingested and may be retried.
  Status AcceptRoutedReport(size_t shard_index, Bytes sealed_report);

  // WAL-aware accept for the acked ingestion path.  With the WAL enabled
  // the report (and, when ctx.session_id != 0, its ack commit) buffers as
  // one record; `done` fires exactly once — Ok after a group commit makes
  // the record durable, the flush error if a failed commit rolled it back
  // (in which case the report was NOT ingested and the accounting has been
  // undone, so the client may retry without duplicating).  In in-memory
  // mode this is synchronous AcceptRoutedReport and `done` fires inline
  // with the returned status.  An Ok return only means "buffered/accepted"; the
  // durability verdict is done's argument.
  Status AcceptRoutedReportAsync(size_t shard_index, Bytes sealed_report,
                                 ReportContext ctx,
                                 std::function<void(const Status&)> done);

  // Group-commit barrier: returns once every report buffered so far is
  // durable (and its completion has fired) — one fsync amortized across
  // every waiter by the WAL's group commit.  No-op without a WAL (accepts
  // were synchronous).
  Status BarrierIngest();

  // Advances the epoch-age clock (call on the service's scheduling cadence).
  // Reports the seal outcome when the tick age-cuts the epoch: a spool
  // failure is returned here (and counted in ingest_stats().seal_failures)
  // rather than silently swallowed; the epoch stays open for a later retry.
  Status Tick();
  // Forces the current epoch to seal (operator flush).  `seal_if_empty`
  // seals and advances even a zero-report epoch — the cluster coordinator's
  // epoch-alignment cut (see ShardedIngest::CutEpoch).
  Status CutEpoch(bool seal_if_empty = false);
  // Durability point: fsyncs all in-progress spool segments.
  Status SyncSpool();

  // Drains every sealed epoch through the pipeline's shuffle/analyze stages,
  // oldest first.  Stops at the first epoch whose pipeline run fails; that
  // epoch is requeued *intact* (a retrying call sees its full report set
  // again), and the report carries both the epochs already drained and the
  // failure — partial progress is never discarded.  Safe to call
  // concurrently with Accept*/Tick/CutEpoch (drain of epoch e overlaps
  // accumulation of e+1), but not with itself: one drainer at a time.
  DrainReport DrainSealedEpochs();

  // Cluster-mode drain: pops the oldest sealed epoch and runs only the
  // shuffler's outer-layer open, returning the epoch's pre-threshold
  // partial (per-crowd inner boxes) for HistogramMerge to combine across
  // groups.  nullopt when no sealed epoch is queued; on failure the epoch
  // is requeued intact, exactly like DrainSealedEpochs.  An empty sealed
  // epoch (a seal_if_empty alignment cut) yields an empty partial.
  Result<std::optional<EpochPartialResult>> DrainNextEpochPartial();

  // Fired after every successful epoch seal; owned by the drain scheduler
  // while it runs (see ShardedIngest::SetSealListener for the contract).
  void SetSealListener(std::function<void()> listener) {
    ingest_->SetSealListener(std::move(listener));
  }

  FrontendStats& stats() { return stats_; }
  const FrontendStats& stats() const { return stats_; }
  uint64_t current_epoch() const { return ingest_->current_epoch(); }
  size_t current_epoch_size() const { return ingest_->current_epoch_size(); }
  size_t num_shards() const { return ingest_->num_shards(); }
  IngestStats ingest_stats() const { return ingest_->stats(); }

 private:
  SecureRandom EpochRng(uint64_t epoch) const;
  Rng EpochNoiseRng(uint64_t epoch) const;
  // The epilogue both drains share.  `run` is the verdict of the epoch's
  // pipeline run (Ok when there was nothing to run), which the
  // inject_drain_failure hook may overturn when the pipeline did run.  On
  // failure the intact batch is requeued and the error returned; on
  // success the epoch's segments are removed (with bounded retries) and
  // the drain is counted.
  Status FinishDrain(EpochBatch batch, Status run, bool ran_pipeline);
  // The WAL's post-checkpoint hook: rewrites the journal as a snapshot of
  // `registry` once it crosses its compaction threshold.
  void CompactJournalIfNeeded(const AckRegistry& registry);
  // The bound registry's unbind callback: drops the checkpoint hook if
  // `registry` is still the bound one.
  void UnbindAckRegistry(const AckRegistry* registry);

  FrontendConfig config_;
  Pipeline pipeline_;
  std::unique_ptr<Spool> spool_;          // null in in-memory mode
  std::unique_ptr<ShardedIngest> ingest_;
  std::unique_ptr<SessionJournal> journal_;  // null in in-memory mode
  // Declared after journal_/spool_ so it is destroyed first: the WAL's
  // destructor flushes its pending block, which may touch both.
  std::unique_ptr<IngestWal> wal_;           // null in in-memory mode
  JournalRecovery journal_recovery_;         // held for BindAckRegistry
  // The registry the WAL's checkpoint hook reads; it holds this frontend's
  // unbind callback (see AckRegistry::set_unbind).  Null when unbound.
  Mutex bind_mu_;
  AckRegistry* bound_registry_ GUARDED_BY(bind_mu_) = nullptr;
  FrontendStats stats_;
  bool started_ = false;
  uint32_t injected_drain_failures_ = 0;  // fault-injection bookkeeping
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_FRONTEND_H_
