// The session-state snapshot behind the exactly-once retry contract: a
// CRC-framed journal of AckRegistry state, living inside the spool
// directory and derived from the ingest WAL (wal.h), which is the only
// durable path for a session-state change.
//
//   <spool root>/sessions.journal        wire-v2 frames, one record each
//   <spool root>/sessions.journal.new    in-progress compaction (stale copies
//                                        are removed at Open)
//
// Each record is an ordinary wire frame (the same CRC framing as spool
// segments) whose payload encodes one of:
//
//   commit   (session, watermark_after, seq)   a seq became durable (the
//                                              watermark is re-derived
//                                              from the seqs; writers put 0)
//   evict    (session, floor)                  session LRU-evicted; its
//                                              watermark compacted to one
//                                              record, sparse state dropped
//   goodbye  (session)                         session terminated by the
//                                              client's kGoodbye handshake;
//                                              every trace is dropped
//   snapshot (session, watermark, sparse[])    full per-session state, the
//                                              unit of compaction rewrites
//
// Writers: the WAL checkpoint's write-through (commit/evict/goodbye records
// of the checkpointed generations), the frontend's post-checkpoint
// compaction, and startup recovery (re-journaling the WAL's replayed
// suffix).  All three are serialized — checkpoints and their hook run under
// the WAL's checkpoint lock, recovery before the WAL opens — so the journal
// has no group commit of its own: appends are buffered writes, and one
// Sync() per checkpoint makes them durable.  Reopen scans with FrameReader
// and truncates the torn tail at clean_prefix_end.  Compaction writes a full
// snapshot to `.new`, fsyncs it, and renames over the log — the rename is
// the atomic commit point, so a crash mid-compaction leaves either the old
// log (plus a stale `.new` that Open removes) or the new one, never a blend.
//
// All write-side syscalls route through the injectable Fs seam, so the
// disk-fault suites can drive short writes, fsync EIO, ENOSPC, and
// crash-at-syscall-k schedules through exactly the production code.
#ifndef PROCHLO_SRC_SERVICE_SESSION_JOURNAL_H_
#define PROCHLO_SRC_SERVICE_SESSION_JOURNAL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/service/fs.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

struct SessionJournalConfig {
  std::string path;  // the journal file; ".new" is appended for compaction
  // Sync() and Compact() fsync (false = buffered writes only: survives a
  // process kill, not a power loss — the benches' mode).
  bool fsync_commits = true;
  Fs* fs = nullptr;  // injectable; null = Fs::Real()
};

// Full per-session durable state, as recovered and as compacted.
struct SessionSnapshot {
  uint64_t session_id = 0;
  uint64_t watermark = 0;            // every seq < watermark is durable
  std::vector<uint64_t> sparse;      // durable seqs >= watermark
};

struct JournalRecovery {
  std::vector<SessionSnapshot> live;
  // Evicted sessions: id -> checkpointed floor.  Reports on these get the
  // kSessionExpired NACK instead of risking re-ingestion.
  std::vector<std::pair<uint64_t, uint64_t>> evicted;
  uint64_t records = 0;          // records replayed
  uint64_t truncated_bytes = 0;  // torn tail removed at the end of the log
};

// One session-state mutation logged in the ingest WAL.  The WAL carries
// commit/evict/goodbye records interleaved (and totally ordered) with report
// appends; checkpoints and recovery journal them here, and recovery also
// folds them into the journal's recovery image via ApplySessionOps.
struct SessionOp {
  enum Kind : uint8_t { kCommit = 1, kEvict = 2, kGoodbye = 3 };
  Kind kind = kCommit;
  uint64_t session_id = 0;
  uint64_t value = 0;  // seq for kCommit, watermark floor for kEvict
};

// Applies an ordered list of session ops on top of a journal recovery,
// exactly as if they had been journal records appended after the log's last
// record.  Used at startup to merge the WAL's un-checkpointed session-state
// suffix into the registry's restore image.
JournalRecovery ApplySessionOps(JournalRecovery base,
                                const std::vector<SessionOp>& ops);

class SessionJournal {
 public:
  explicit SessionJournal(SessionJournalConfig config);
  ~SessionJournal();

  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  // Replays the journal (removing a stale compaction temp, truncating the
  // torn tail) and opens it for appending.  Call once, before any append.
  Result<JournalRecovery> Open();

  // Buffered append of one record.  A failed append leaves no partial
  // record behind: the tail is truncated back, and if even that truncate
  // fails the tail is marked dirty and the next append re-truncates before
  // it writes.
  Status Append(const SessionOp& op);

  // Makes every record appended so far durable (a no-op when fsync_commits
  // is off).
  Status Sync();

  // Atomically replaces the log with one snapshot record per live session
  // plus one evict record per tombstone.  Blocks appends for the duration.
  Status Compact(const std::vector<SessionSnapshot>& live,
                 const std::vector<std::pair<uint64_t, uint64_t>>& evicted);

  // Current log size in bytes; the frontend compacts the log into a
  // snapshot once this reaches kCompactThresholdBytes.
  uint64_t appended_bytes() const;
  static constexpr uint64_t kCompactThresholdBytes = 1 << 20;

 private:
  Status WriteAll(int fd, ByteSpan data);
  // Undoes an earlier failed rollback: truncates the log back to bytes_ and
  // reopens the append fd if Compact lost it.
  Status RepairTailLocked() REQUIRES(mu_);

  SessionJournalConfig config_;
  Fs* fs_;  // borrowed (or the Real() singleton)

  // Serializes the writers (which are already serialized by their callers;
  // see the file comment) and guards the fd and byte counter.
  mutable Mutex mu_;
  int fd_ GUARDED_BY(mu_) = -1;
  uint64_t bytes_ GUARDED_BY(mu_) = 0;  // current log size (clean prefix)
  // A failed append whose rollback truncate also failed left garbage past
  // bytes_, or a compaction could not reopen the log it just renamed into
  // place.  The next append repairs the tail before writing anything (the
  // WAL's dirty-tail rule), so the journal heals as soon as the disk does.
  bool dirty_tail_ GUARDED_BY(mu_) = false;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_SESSION_JOURNAL_H_
