// Unified group-commit write-ahead log for the ingest spool.
//
// PR 6 left one documented correctness hole: a report's durability lived in
// two files — the spool segment append and the session journal's commit
// record — and a crash in the one-syscall window between them left a durable
// report with no commit record, so the client's replay re-ingested a
// duplicate.  The IngestWal closes that window by construction: a report and
// its (session, seq) commit are ONE record in ONE log, appended (and made
// durable) atomically.  Session evictions and goodbyes ride the same log, so
// every session-state mutation is totally ordered with the report stream.
//
// Layered on the single commit point:
//
//   * Group commit.  Appends only buffer; durability is a barrier
//     (`SyncUpTo`) with a leader/follower election: concurrent committers
//     elect one leader that flushes the whole pending block with a single
//     write + fsync and fires every record's completion, so N concurrent
//     `EnqueueAsync` reports cost one fsync, not N.  Completions fire strictly after the
//     fsync and strictly before the barrier returns to any waiter.
//   * Block packing.  A flush writes one CRC-framed block whose payload
//     packs every pending record, amortizing the 22 B v2 frame header that
//     costs ~5% on ~450 B sealed reports when paid per record.
//   * Checkpointing.  `Checkpoint()` rotates to a fresh WAL generation and
//     writes the flushed-but-unapplied records through to their final homes
//     — spool segments for reports, the session journal for session ops
//     (one journal fsync, only when the batch held a session op) —
//     then atomically publishes a checkpoint marker (`wal.ckpt`, written
//     tmp + fsync + rename + parent-dir fsync) and deletes the consumed
//     generations.  Recovery replays only the un-checkpointed suffix.
//
// Failure semantics: a failed group commit rolls the active generation back
// to its durable prefix, fires the dead records' completions with the error
// (the caller NACKs — with the unified record, "commit lost" always implies
// "report lost", so degradation can no longer manufacture a post-restart
// duplicate), and invokes the rollback callback so ingest accounting
// forgets the buffered reports.  A failed checkpoint restores the
// unapplied queue and truncates any partially-written segment bytes; the
// old generations and marker stay, so a later retry (or a restart) sees a
// consistent prefix.
//
// Recovery is two-phase around `Spool::Open()`:
//   1. `RecoverBeforeSpoolOpen()` — roll unsealed segments back to their
//      checkpointed sizes (undoing any partially-applied checkpoint),
//      then replay every generation past the marker, appending report
//      records to their segment files (so the spool's own recovery counts
//      them like any other durable frame) and returning the session ops in
//      log order.
//   2. caller opens the spool + journal, re-journals the returned session
//      ops, then `FinishRecovery()` — fsync the replayed segments, publish
//      a fresh marker, delete the consumed generations, open a new active
//      generation.  A crash anywhere before `FinishRecovery`'s marker
//      rename re-runs the same replay against the old marker: idempotent.
#ifndef PROCHLO_SRC_SERVICE_WAL_H_
#define PROCHLO_SRC_SERVICE_WAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/service/fs.h"
#include "src/service/session_journal.h"
#include "src/service/spool.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

struct IngestWalConfig {
  // Directory the WAL lives in — the spool root, so segments, journal, and
  // log share one crash domain (and one parent-dir fsync).
  std::string dir;
  // Group commits fsync before completions fire.  Off = page-cache
  // durability: process-kill safe, power-loss not (mirrors fsync_spool).
  bool fsync = true;
  // Checkpoint when the flushed-but-unapplied backlog exceeds this.
  uint64_t checkpoint_threshold_bytes = 1ull << 20;
  // Filesystem seam; nullptr uses Fs::Real().
  Fs* fs = nullptr;
};

class IngestWal {
 public:
  using Completion = std::function<void(const Status&)>;
  // Invoked (shard, epoch) for each report record dropped by a failed group
  // commit, so ingest shard counts forget the buffered report.
  using RollbackCallback = std::function<void(size_t, uint64_t)>;

  struct Recovery {
    // Commit/evict/goodbye records of the replayed suffix, in log order.
    std::vector<SessionOp> session_ops;
    uint64_t replayed_reports = 0;
    uint64_t replayed_blocks = 0;
    // Torn tail dropped from the newest generation.
    uint64_t truncated_bytes = 0;
    // Un-checkpointed segment bytes rolled back before replay.
    uint64_t reset_segment_bytes = 0;
  };

  struct Stats {
    uint64_t appends = 0;
    uint64_t records_flushed = 0;
    uint64_t blocks_flushed = 0;
    uint64_t bytes_flushed = 0;
    uint64_t fsyncs = 0;
    uint64_t rolled_back_records = 0;
    uint64_t checkpoints = 0;
    uint64_t checkpoint_failures = 0;
    uint64_t checkpointed_records = 0;
  };

  explicit IngestWal(const IngestWalConfig& config);
  ~IngestWal();

  IngestWal(const IngestWal&) = delete;
  IngestWal& operator=(const IngestWal&) = delete;

  // Recovery phase 1; see the file comment.  Call before Spool::Open().
  Result<Recovery> RecoverBeforeSpoolOpen();
  // Recovery phase 2; call after the returned session ops are durable in
  // the session journal.  Leaves the WAL open for appends.
  Status FinishRecovery();

  // Steady-state checkpoint targets.  Must outlive this WAL.
  void AttachTargets(Spool* spool, SessionJournal* journal);
  void set_rollback_callback(RollbackCallback cb);
  // Runs after every successful checkpoint, still under the checkpoint
  // lock, so it is serialized with the journal write-through (the frontend
  // compacts the session journal here).  Setting it takes the same lock, so
  // clearing it waits out a checkpoint that is running it.
  void set_post_checkpoint_hook(std::function<void()> hook);

  // Buffers one report record (with its ack commit when session_id != 0).
  // On success, ownership of *done moves into the WAL: it fires exactly
  // once — Ok after a group commit covers the record, the flush error if
  // the record is rolled back.  On failure *done is untouched and the
  // caller resolves it.  Returns the record's LSN.
  Result<uint64_t> AppendReport(size_t shard, uint64_t epoch, ByteSpan report,
                                uint64_t session_id, uint64_t seq,
                                Completion* done);
  // Session-state records (no completion).  An evict's durability rides
  // the next barrier; a goodbye returns once its own group commit made it
  // durable (Ok) or rolled it back (the flush error).
  Result<uint64_t> AppendEvict(uint64_t session_id, uint64_t floor);
  Status AppendGoodbye(uint64_t session_id);

  // Group-commit barrier: returns once `lsn` is durable (Ok) or was rolled
  // back by a failed flush (that flush's error).  The record's completion
  // has already fired by the time this returns.
  Status SyncUpTo(uint64_t lsn);
  // Barrier over everything appended so far.
  Status Sync();
  // Whether a failed group commit dropped this LSN.
  bool WasRolledBack(uint64_t lsn) const;

  // Write the unapplied backlog through to the spool + journal, publish a
  // new marker, truncate the log.  Serialized; safe to call concurrently
  // with appends and barriers.
  Status Checkpoint();
  // Checkpoint iff the unapplied backlog exceeds the configured threshold.
  Status MaybeCheckpoint();
  // The epoch's segments are sealed: drop their checkpoint-marker entries
  // (recovery never touches sealed epochs).
  void NoteEpochSealed(uint64_t epoch);

  Stats stats() const;
  uint64_t unapplied_bytes() const;

 private:
  struct PendingRecord {
    uint64_t lsn = 0;
    uint8_t kind = 0;
    uint64_t shard = 0;
    uint64_t epoch = 0;
    uint64_t session_id = 0;
    uint64_t value = 0;  // seq (commit) or watermark floor (evict)
    Bytes report;
    Completion done;
  };
  struct FlushedRecord {
    uint8_t kind = 0;
    uint64_t shard = 0;
    uint64_t epoch = 0;
    uint64_t session_id = 0;
    uint64_t value = 0;
    Bytes report;
  };

  // Moves from `record` only on success, so the caller can hand a failed
  // record's completion back to its origin.
  Result<uint64_t> AppendLocked(PendingRecord& record) EXCLUDES(sync_mu_, mu_);
  // Leader body: flush the pending block, fire its completions, update the
  // sync watermark.  Precondition: this thread holds sync leadership
  // (sync_inflight_ set under sync_mu_).
  Status FlushAsLeader() EXCLUDES(sync_mu_, mu_);
  bool IsRolledBackLocked(uint64_t lsn) const REQUIRES(sync_mu_);

  std::string GenPath(uint64_t gen) const;
  std::string MarkerPath() const;
  Status WriteMarker(uint64_t covered_gen,
                     const std::map<std::pair<uint64_t, uint64_t>, uint64_t>&
                         segment_sizes);

  IngestWalConfig config_;
  Fs* fs_;

  // Lock order: ckpt_mu_ -> sync_mu_ -> mu_.  sync_mu_ runs the group
  // commit leader election; mu_ guards the append buffer and the active
  // generation; ckpt_mu_ serializes checkpoints (held across the
  // write-through, which takes no other WAL lock).
  Mutex ckpt_mu_;
  mutable Mutex sync_mu_ ACQUIRED_AFTER(ckpt_mu_);
  CondVar sync_cv_;
  bool sync_inflight_ GUARDED_BY(sync_mu_) = false;
  uint64_t synced_lsn_ GUARDED_BY(sync_mu_) = 0;
  // Closed LSN ranges dropped by failed flushes.  A follower that wakes
  // after its record died must see "rolled back", not wait forever for a
  // watermark that skipped it.
  std::vector<std::pair<uint64_t, uint64_t>> rolled_back_ GUARDED_BY(sync_mu_);

  mutable Mutex mu_ ACQUIRED_AFTER(sync_mu_);
  int fd_ GUARDED_BY(mu_) = -1;
  uint64_t gen_ GUARDED_BY(mu_) = 0;
  // Bytes durably flushed to the active generation — the truncation target
  // when a flush fails partway.
  uint64_t gen_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t next_lsn_ GUARDED_BY(mu_) = 1;
  std::vector<PendingRecord> pending_ GUARDED_BY(mu_);
  uint64_t pending_bytes_ GUARDED_BY(mu_) = 0;
  // Flushed (durable in some generation) but not yet checkpointed, in LSN
  // order.  A failed checkpoint restores its slice to the front.
  std::deque<FlushedRecord> unapplied_ GUARDED_BY(mu_);
  uint64_t unapplied_bytes_ GUARDED_BY(mu_) = 0;
  // (epoch, shard) -> segment bytes covered by the last marker; the sizes
  // recovery truncates unsealed segments back to.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> durable_sizes_
      GUARDED_BY(mu_);
  // Highest generation the on-disk marker covers; generations above it
  // replay at recovery, generations at or below it get unlinked.
  uint64_t covered_gen_ GUARDED_BY(mu_) = 0;
  // A failed group commit whose rollback truncate ALSO failed leaves garbage
  // past gen_bytes_ in the active generation.  The next flush must truncate
  // it away before writing anything (a clean frame after the garbage would
  // make recovery's clean-prefix probe replay the dead records); until that
  // succeeds every flush fails and the service degrades to NACKs.  Appends
  // keep buffering, so the condition heals as soon as the filesystem does.
  bool dirty_tail_ GUARDED_BY(mu_) = false;

  Spool* spool_ = nullptr;
  SessionJournal* journal_ = nullptr;
  RollbackCallback rollback_;
  std::function<void()> post_checkpoint_ GUARDED_BY(ckpt_mu_);

  // Recovery scratch, valid between the two phases.
  bool recovered_ = false;
  uint64_t recovered_max_gen_ = 0;
  std::vector<uint64_t> recovered_gens_;
  std::vector<std::string> replayed_segment_paths_;

  mutable Mutex stats_mu_;
  Stats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_WAL_H_
