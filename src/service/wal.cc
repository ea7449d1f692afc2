#include "src/service/wal.h"

#include <fcntl.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <set>

#include "src/service/wire.h"
#include "src/util/serialization.h"

namespace prochlo {

namespace {

namespace fs = std::filesystem;

// Record kinds inside a WAL block.  A block is one ordinary wire frame whose
// payload concatenates records — the CRC that guards spool segments guards
// the log, and the 22 B frame header is paid once per group commit, not once
// per report.
enum WalRecordKind : uint8_t {
  kWalReport = 1,        // shard, epoch, report (ack-less legacy sink)
  kWalReportCommit = 2,  // shard, epoch, session, seq, report — THE unified
                         // record: report durability and the ack commit are
                         // one atomic append
  kWalEvict = 3,         // session, floor
  kWalGoodbye = 4,       // session
};

constexpr char kMarkerName[] = "wal.ckpt";

uint64_t EncodedRecordSize(uint8_t kind, size_t report_size) {
  switch (kind) {
    case kWalReport:
      return 1 + 8 + 8 + 4 + report_size;
    case kWalReportCommit:
      return 1 + 8 + 8 + 8 + 8 + 4 + report_size;
    case kWalEvict:
      return 1 + 8 + 8;
    case kWalGoodbye:
      return 1 + 8;
    default:
      return 0;
  }
}

}  // namespace

IngestWal::IngestWal(const IngestWalConfig& config)
    : config_(config), fs_(config.fs != nullptr ? config.fs : Fs::Real()) {}

IngestWal::~IngestWal() {
  // Resolve any still-buffered completions (exactly-once: a completion that
  // never fires wedges its connection's ack book).  Best effort — at this
  // point the owner has already stopped the worker pool, so pending is
  // normally empty.
  (void)Sync();
  MutexLock lock(mu_);
  if (fd_ >= 0) {
    fs_->Close(fd_);
    fd_ = -1;
  }
}

std::string IngestWal::GenPath(uint64_t gen) const {
  return config_.dir + "/ingest-" + std::to_string(gen) + ".wal";
}

std::string IngestWal::MarkerPath() const { return config_.dir + "/" + kMarkerName; }

namespace {

// Whole-file read on the plain stdio path, like every other recovery read:
// post-crash reopen sees whatever bytes actually landed.
Bytes ReadWholeFile(const std::string& path) {
  Bytes out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    uint8_t buffer[1 << 16];
    size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      out.insert(out.end(), buffer, buffer + got);
    }
    std::fclose(f);
  }
  return out;
}

Status WriteAllFs(Fs* fs, int fd, ByteSpan data) {
  size_t done = 0;
  while (done < data.size()) {
    auto n = fs->Write(fd, data.subspan(done));
    if (!n.ok()) {
      return n.error();
    }
    done += n.value();
  }
  return Status::Ok();
}

}  // namespace

Status IngestWal::WriteMarker(
    uint64_t covered_gen,
    const std::map<std::pair<uint64_t, uint64_t>, uint64_t>& segment_sizes) {
  Writer w;
  w.PutU64(covered_gen);
  w.PutU32(static_cast<uint32_t>(segment_sizes.size()));
  for (const auto& [key, bytes] : segment_sizes) {
    w.PutU64(key.first);   // epoch
    w.PutU64(key.second);  // shard
    w.PutU64(bytes);
  }
  Bytes frame = EncodeFrame(w.Take());

  const std::string marker = MarkerPath();
  const std::string tmp = marker + ".tmp";
  auto fd = fs_->Open(tmp, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (!fd.ok()) {
    return fd.error();
  }
  Status result = WriteAllFs(fs_, fd.value(), frame);
  if (result.ok() && config_.fsync) {
    result = fs_->Sync(fd.value());
    if (result.ok()) {
      MutexLock lock(stats_mu_);
      stats_.fsyncs++;
    }
  }
  fs_->Close(fd.value());
  if (result.ok()) {
    // The atomic commit point for the checkpoint: before the rename the old
    // marker's truncate-and-replay instructions are authoritative, after it
    // the new ones are.
    result = fs_->Rename(tmp, marker);
  }
  if (result.ok() && config_.fsync) {
    // And the rename only holds once the dirent is durable.
    result = fs_->SyncDir(config_.dir);
  }
  if (!result.ok()) {
    (void)fs_->Remove(tmp);  // best effort; recovery also clears stale temps
  }
  return result;
}

// ----------------------------------------------------------------- recovery

Result<IngestWal::Recovery> IngestWal::RecoverBeforeSpoolOpen() {
  // Startup is single-threaded: no appender or barrier can exist before
  // FinishRecovery hands out the open WAL, so plain member access is safe.
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    return Error{"wal: cannot create " + config_.dir + ": " + ec.message()};
  }
  // A crash between writing and renaming the marker temp leaves it behind;
  // the rename never happened, so the real marker is authoritative.
  Status removed = fs_->Remove(MarkerPath() + ".tmp");
  if (!removed.ok()) {
    return removed.error();
  }

  std::set<uint64_t> sealed;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> unsealed_sizes;  // (epoch, shard)
  std::map<uint64_t, std::string> gens;
  bool have_marker = false;
  std::vector<std::pair<uint64_t, uint64_t>> segment_files;  // (epoch, shard)
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long a = 0, b = 0;
    char suffix[16] = {0};
    if (name == kMarkerName) {
      have_marker = true;
    } else if (std::sscanf(name.c_str(), "ingest-%lu.wal", &a) == 1 &&
               name == "ingest-" + std::to_string(a) + ".wal") {
      gens[a] = entry.path().string();
    } else if (std::sscanf(name.c_str(), "epoch-%lu.%15s", &a, suffix) == 2 &&
               std::string(suffix) == "sealed") {
      sealed.insert(a);
    } else if (std::sscanf(name.c_str(), "shard-%lu-epoch-%lu.seg", &a, &b) == 2) {
      segment_files.emplace_back(b, a);  // (epoch, shard)
    }
  }
  if (ec) {
    return Error{"wal: cannot scan " + config_.dir + ": " + ec.message()};
  }
  for (const auto& key : segment_files) {
    if (sealed.count(key.first) != 0) {
      continue;  // sealed epochs are complete; recovery never touches them
    }
    std::error_code size_ec;
    uintmax_t size = fs::file_size(
        SpoolSegmentPath(config_.dir, key.second, key.first), size_ec);
    unsealed_sizes[key] = size_ec ? 0 : static_cast<uint64_t>(size);
  }

  Recovery out;
  uint64_t covered = 0;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> marker_sizes;
  if (have_marker) {
    Bytes raw = ReadWholeFile(MarkerPath());
    FrameReader reader(raw);
    auto payload = reader.Next();
    bool parsed = false;
    if (payload) {
      Reader r(*payload);
      uint32_t count = 0;
      if (r.GetU64(&covered) && r.GetU32(&count)) {
        parsed = true;
        for (uint32_t i = 0; i < count && parsed; ++i) {
          uint64_t epoch = 0, shard = 0, bytes = 0;
          parsed = r.GetU64(&epoch) && r.GetU64(&shard) && r.GetU64(&bytes);
          if (parsed) {
            marker_sizes[{epoch, shard}] = bytes;
          }
        }
      }
    }
    if (!parsed) {
      // The marker is written via tmp + fsync + rename + dir fsync; a torn
      // one means the discipline was violated underneath us.  Guessing
      // risks double-ingesting checkpointed records — refuse instead.
      return Error{"wal: corrupt checkpoint marker " + MarkerPath()};
    }
    // Roll every unsealed segment back to its checkpointed size, and drop
    // segments the marker has never heard of (debris of a checkpoint or
    // replay that died before publishing).  The replay below reconstructs
    // everything past these sizes from the log.
    for (const auto& [key, disk_bytes] : unsealed_sizes) {
      auto it = marker_sizes.find(key);
      const std::string path = SpoolSegmentPath(config_.dir, key.second, key.first);
      if (it == marker_sizes.end()) {
        out.reset_segment_bytes += disk_bytes;
        Status dropped = fs_->Remove(path);
        if (!dropped.ok()) {
          return dropped.error();
        }
      } else if (disk_bytes > it->second) {
        out.reset_segment_bytes += disk_bytes - it->second;
        Status truncated = fs_->Truncate(path, it->second);
        if (!truncated.ok()) {
          return truncated.error();
        }
      }
    }
  } else if (!gens.empty()) {
    // FinishRecovery publishes the marker (and fsyncs the dirent) before
    // generation 1 is ever created, so generations without a marker mean
    // the directory has been tampered with; replaying them blind could
    // double-apply checkpointed records.
    return Error{"wal: generations present but no checkpoint marker in " + config_.dir};
  }

  // Replay the un-checkpointed suffix, oldest generation first, appending
  // report records straight into their segment files (so Spool::Open counts
  // them like any other durable frame) and collecting session ops in order.
  std::map<std::pair<uint64_t, uint64_t>, int> segment_fds;
  Status replay = Status::Ok();
  bool torn = false;  // everything after the first tear is suspect
  for (const auto& [gen, path] : gens) {
    recovered_gens_.push_back(gen);
    recovered_max_gen_ = std::max(recovered_max_gen_, gen);
    if (gen <= covered || torn || !replay.ok()) {
      continue;
    }
    Bytes raw = ReadWholeFile(path);
    // First pass finds the clean prefix; the second replays only it.  A torn
    // block tail is legal in the newest generation (a crash mid group
    // commit); anything valid *after* a tear is not replayable, because
    // session ops are only correct in order.
    {
      FrameReader probe(raw);
      while (probe.Next()) {
      }
      if (probe.clean_prefix_end() < raw.size()) {
        torn = true;
        out.truncated_bytes += raw.size() - probe.clean_prefix_end();
        raw.resize(probe.clean_prefix_end());
      }
    }
    FrameReader reader(raw);
    while (auto block = reader.Next()) {
      out.replayed_blocks++;
      Reader r(*block);
      while (r.ok() && !r.AtEnd() && replay.ok()) {
        uint8_t kind = 0;
        if (!r.GetU8(&kind)) {
          break;
        }
        switch (kind) {
          case kWalReport:
          case kWalReportCommit: {
            uint64_t shard = 0, epoch = 0, session = 0, seq = 0;
            Bytes report;
            bool got = r.GetU64(&shard) && r.GetU64(&epoch);
            if (got && kind == kWalReportCommit) {
              got = r.GetU64(&session) && r.GetU64(&seq);
            }
            if (!got || !r.GetLengthPrefixed(&report)) {
              replay = Error{"wal: truncated record inside a CRC-valid block"};
              break;
            }
            if (sealed.count(epoch) != 0) {
              break;  // defensive: the epoch sealed after this record was
                      // checkpointed; its segments are already complete
            }
            auto fd_it = segment_fds.find({epoch, shard});
            if (fd_it == segment_fds.end()) {
              const std::string seg = SpoolSegmentPath(config_.dir, shard, epoch);
              auto fd = fs_->Open(seg, O_CREAT | O_WRONLY | O_APPEND, 0644);
              if (!fd.ok()) {
                replay = fd.error();
                break;
              }
              fd_it = segment_fds.emplace(std::make_pair(epoch, shard), fd.value()).first;
              replayed_segment_paths_.push_back(seg);
            }
            replay = WriteAllFs(fs_, fd_it->second, EncodeFrame(report));
            if (replay.ok()) {
              out.replayed_reports++;
              if (kind == kWalReportCommit) {
                out.session_ops.push_back({SessionOp::kCommit, session, seq});
              }
            }
            break;
          }
          case kWalEvict: {
            uint64_t session = 0, floor = 0;
            if (!r.GetU64(&session) || !r.GetU64(&floor)) {
              replay = Error{"wal: truncated evict record"};
              break;
            }
            out.session_ops.push_back({SessionOp::kEvict, session, floor});
            break;
          }
          case kWalGoodbye: {
            uint64_t session = 0;
            if (!r.GetU64(&session)) {
              replay = Error{"wal: truncated goodbye record"};
              break;
            }
            out.session_ops.push_back({SessionOp::kGoodbye, session, 0});
            break;
          }
          default:
            // Unknown kinds have unknown lengths; nothing after this point
            // in the block can be framed.  The block's CRC passed, so this
            // is a newer writer's record — skip the remainder of the block,
            // keep later blocks.
            r = Reader(ByteSpan());
            break;
        }
      }
      if (!replay.ok()) {
        break;
      }
    }
    if (!replay.ok()) {
      break;
    }
  }
  for (const auto& [key, fd] : segment_fds) {
    fs_->Close(fd);
  }
  if (!replay.ok()) {
    return replay.error();
  }

  {
    MutexLock lock(mu_);
    covered_gen_ = covered;
  }
  recovered_ = true;
  return out;
}

Status IngestWal::FinishRecovery() {
  if (!recovered_) {
    return Error{"wal: FinishRecovery without RecoverBeforeSpoolOpen"};
  }
  // The replayed segment bytes must be durable before the new marker claims
  // them as checkpointed (the marker's sizes are truncation targets — they
  // must never exceed what survives a crash).
  if (config_.fsync) {
    std::sort(replayed_segment_paths_.begin(), replayed_segment_paths_.end());
    replayed_segment_paths_.erase(
        std::unique(replayed_segment_paths_.begin(), replayed_segment_paths_.end()),
        replayed_segment_paths_.end());
    for (const std::string& path : replayed_segment_paths_) {
      auto fd = fs_->Open(path, O_WRONLY, 0644);
      if (!fd.ok()) {
        return fd.error();
      }
      Status synced = fs_->Sync(fd.value());
      fs_->Close(fd.value());
      if (!synced.ok()) {
        return synced;
      }
    }
    // Cover replay-created segment files' dirents too.
    Status dir = fs_->SyncDir(config_.dir);
    if (!dir.ok()) {
      return dir;
    }
  }

  // Re-stat every unsealed segment: the caller has run Spool::Open() since
  // phase 1, which may have truncated pre-WAL torn tails; whatever is on
  // disk now is exactly the checkpointed state the new marker describes.
  std::error_code ec;
  std::set<uint64_t> sealed;
  std::vector<std::pair<uint64_t, uint64_t>> segment_files;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long a = 0, b = 0;
    char suffix[16] = {0};
    if (std::sscanf(name.c_str(), "epoch-%lu.%15s", &a, suffix) == 2 &&
        std::string(suffix) == "sealed") {
      sealed.insert(a);
    } else if (std::sscanf(name.c_str(), "shard-%lu-epoch-%lu.seg", &a, &b) == 2) {
      segment_files.emplace_back(b, a);
    }
  }
  if (ec) {
    return Error{"wal: cannot scan " + config_.dir + ": " + ec.message()};
  }
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> sizes;
  for (const auto& key : segment_files) {
    if (sealed.count(key.first) != 0) {
      continue;
    }
    std::error_code size_ec;
    uintmax_t size =
        fs::file_size(SpoolSegmentPath(config_.dir, key.second, key.first), size_ec);
    if (!size_ec) {
      sizes[key] = static_cast<uint64_t>(size);
    }
  }

  uint64_t covered = 0;
  {
    MutexLock lock(mu_);
    covered = std::max(covered_gen_, recovered_max_gen_);
  }
  Status marker = WriteMarker(covered, sizes);
  if (!marker.ok()) {
    return marker;
  }
  // The marker no longer references the replayed generations: delete them.
  // Failures are non-fatal — a stale generation <= covered_gen is skipped by
  // the next recovery.
  for (uint64_t gen : recovered_gens_) {
    (void)fs_->Remove(GenPath(gen));
  }

  // Open the first live generation past the marker.  Its dirent must be
  // durable before any group commit relies on it: fsync(fd) persists bytes,
  // the directory fsync persists the name.
  const uint64_t active = covered + 1;
  auto fd = fs_->Open(GenPath(active), O_CREAT | O_WRONLY | O_APPEND | O_TRUNC, 0644);
  if (!fd.ok()) {
    return fd.error();
  }
  if (config_.fsync) {
    Status dir = fs_->SyncDir(config_.dir);
    if (!dir.ok()) {
      fs_->Close(fd.value());
      return dir;
    }
  }
  {
    MutexLock sync_lock(sync_mu_);
    MutexLock lock(mu_);
    fd_ = fd.value();
    gen_ = active;
    gen_bytes_ = 0;
    covered_gen_ = covered;
    durable_sizes_ = std::move(sizes);
    next_lsn_ = 1;
    synced_lsn_ = 0;
  }
  replayed_segment_paths_.clear();
  recovered_gens_.clear();
  return Status::Ok();
}

// ------------------------------------------------------------------ appends

void IngestWal::AttachTargets(Spool* spool, SessionJournal* journal) {
  spool_ = spool;
  journal_ = journal;
}

void IngestWal::set_rollback_callback(RollbackCallback cb) { rollback_ = std::move(cb); }

void IngestWal::set_post_checkpoint_hook(std::function<void()> hook) {
  MutexLock lock(ckpt_mu_);
  post_checkpoint_ = std::move(hook);
}

Result<uint64_t> IngestWal::AppendLocked(PendingRecord& record) {
  MutexLock lock(mu_);
  if (fd_ < 0) {
    return Error{"wal: not open"};
  }
  const uint64_t size = EncodedRecordSize(record.kind, record.report.size());
  if (size > kMaxFramePayload) {
    return Error{"wal: record exceeds max frame payload"};
  }
  record.lsn = next_lsn_++;
  pending_bytes_ += size;
  const uint64_t lsn = record.lsn;
  pending_.push_back(std::move(record));
  {
    MutexLock stats_lock(stats_mu_);
    stats_.appends++;
  }
  return lsn;
}

Result<uint64_t> IngestWal::AppendReport(size_t shard, uint64_t epoch, ByteSpan report,
                                         uint64_t session_id, uint64_t seq,
                                         Completion* done) {
  PendingRecord record;
  record.kind = session_id != 0 ? kWalReportCommit : kWalReport;
  record.shard = shard;
  record.epoch = epoch;
  record.session_id = session_id;
  record.value = seq;
  record.report.assign(report.begin(), report.end());
  if (done != nullptr && *done) {
    record.done = std::move(*done);
  }
  auto lsn = AppendLocked(record);  // moves from record only on success
  if (done != nullptr) {
    if (lsn.ok()) {
      *done = nullptr;  // consumed: the WAL now owns exactly-once firing
    } else if (record.done) {
      *done = std::move(record.done);  // hand back; the caller resolves it
    }
  }
  return lsn;
}

Result<uint64_t> IngestWal::AppendEvict(uint64_t session_id, uint64_t floor) {
  PendingRecord record;
  record.kind = kWalEvict;
  record.session_id = session_id;
  record.value = floor;
  return AppendLocked(record);
}

Status IngestWal::AppendGoodbye(uint64_t session_id) {
  PendingRecord record;
  record.kind = kWalGoodbye;
  record.session_id = session_id;
  auto lsn = AppendLocked(record);
  if (!lsn.ok()) {
    return lsn.error();
  }
  return SyncUpTo(lsn.value());
}

// ------------------------------------------------------------- group commit

bool IngestWal::IsRolledBackLocked(uint64_t lsn) const {
  for (const auto& [lo, hi] : rolled_back_) {
    if (lsn >= lo && lsn <= hi) {
      return true;
    }
  }
  return false;
}

bool IngestWal::WasRolledBack(uint64_t lsn) const {
  MutexLock lock(sync_mu_);
  return IsRolledBackLocked(lsn);
}

Status IngestWal::FlushAsLeader() {
  // Precondition: this thread holds sync leadership (sync_inflight_ is set
  // and stays set until the caller clears it), so no other writer touches
  // the active generation fd.
  std::vector<PendingRecord> block;
  uint64_t target = 0;
  int fd = -1;
  uint64_t pre_bytes = 0;
  uint64_t active_gen = 0;
  bool dirty = false;
  {
    MutexLock lock(mu_);
    block = std::move(pending_);
    pending_.clear();
    pending_bytes_ = 0;
    target = next_lsn_ - 1;
    fd = fd_;
    pre_bytes = gen_bytes_;
    active_gen = gen_;
    dirty = dirty_tail_;
  }

  Status result = Status::Ok();
  uint64_t flushed_bytes = 0;
  bool wrote = false;
  if (dirty) {
    // A previous failed flush left garbage past the durable prefix and its
    // rollback truncate also failed.  Retry it before writing anything: a
    // clean frame appended after the garbage would make recovery's
    // clean-prefix probe replay the dead records sitting in front of it.
    result = fs_->Truncate(GenPath(active_gen), pre_bytes);
    if (result.ok()) {
      MutexLock lock(mu_);
      if (gen_ == active_gen) {
        dirty_tail_ = false;
      }
    }
  }
  if (result.ok() && !block.empty()) {
    wrote = true;
    // Pack the block into as few frames as fit (one, except for enormous
    // bursts): the 22 B frame header amortizes across every record.
    Bytes out;
    Writer payload;
    auto flush_frame = [&] {
      if (!payload.data().empty()) {
        AppendFrame(out, payload.Take());
        payload = Writer();
      }
    };
    for (const PendingRecord& r : block) {
      const uint64_t size = EncodedRecordSize(r.kind, r.report.size());
      if (payload.data().size() + size > kMaxFramePayload) {
        flush_frame();
      }
      payload.PutU8(r.kind);
      switch (r.kind) {
        case kWalReport:
          payload.PutU64(r.shard);
          payload.PutU64(r.epoch);
          payload.PutLengthPrefixed(r.report);
          break;
        case kWalReportCommit:
          payload.PutU64(r.shard);
          payload.PutU64(r.epoch);
          payload.PutU64(r.session_id);
          payload.PutU64(r.value);
          payload.PutLengthPrefixed(r.report);
          break;
        case kWalEvict:
          payload.PutU64(r.session_id);
          payload.PutU64(r.value);
          break;
        case kWalGoodbye:
          payload.PutU64(r.session_id);
          break;
        default:
          break;
      }
    }
    flush_frame();
    flushed_bytes = out.size();
    result = WriteAllFs(fs_, fd, out);
    if (result.ok() && config_.fsync) {
      result = fs_->Sync(fd);
    }
  }

  if (wrote && !result.ok()) {
    // Roll the generation back to its durable prefix so the dead records
    // can never replay; if even that fails, mark the tail dirty — the next
    // flush retries the truncate before it writes.
    MutexLock lock(mu_);
    if (gen_ == active_gen) {
      Status truncated = fs_->Truncate(GenPath(active_gen), pre_bytes);
      if (!truncated.ok()) {
        dirty_tail_ = true;
      }
    }
  } else if (wrote) {
    MutexLock lock(mu_);
    gen_bytes_ = pre_bytes + flushed_bytes;
    for (PendingRecord& r : block) {
      FlushedRecord flushed;
      flushed.kind = r.kind;
      flushed.shard = r.shard;
      flushed.epoch = r.epoch;
      flushed.session_id = r.session_id;
      flushed.value = r.value;
      flushed.report = r.report;  // copy: completions below still hold r
      unapplied_.push_back(std::move(flushed));
      unapplied_bytes_ += EncodedRecordSize(r.kind, r.report.size());
    }
  }

  {
    MutexLock stats_lock(stats_mu_);
    if (wrote && result.ok()) {
      stats_.blocks_flushed++;
      stats_.records_flushed += block.size();
      stats_.bytes_flushed += flushed_bytes;
      if (config_.fsync) {
        stats_.fsyncs++;
      }
    }
    if (!result.ok()) {
      stats_.rolled_back_records += block.size();
    }
  }

  // Completions fire with no WAL lock held, strictly after the fsync and
  // strictly before the sync watermark (or the rolled-back range) becomes
  // visible — so a barrier returning implies the completion already ran,
  // and a stack-allocated completion context cannot dangle.
  for (PendingRecord& r : block) {
    if (!result.ok() && rollback_ &&
        (r.kind == kWalReport || r.kind == kWalReportCommit)) {
      rollback_(static_cast<size_t>(r.shard), r.epoch);
    }
    if (r.done) {
      r.done(result);
    }
  }

  {
    MutexLock sync_lock(sync_mu_);
    if (result.ok()) {
      synced_lsn_ = std::max(synced_lsn_, target);
    } else if (!block.empty()) {
      // Dead LSNs must answer "rolled back", not strand a follower waiting
      // for a watermark that skipped them.  The list only grows on flush
      // failures — rare enough that a linear scan is fine.
      rolled_back_.emplace_back(block.front().lsn, block.back().lsn);
    }
  }
  return result;
}

Status IngestWal::SyncUpTo(uint64_t lsn) {
  MutexLock sync_lock(sync_mu_);
  for (;;) {
    if (IsRolledBackLocked(lsn)) {
      return Error{"wal: record lost by a failed group commit"};
    }
    if (lsn <= synced_lsn_) {
      return Status::Ok();
    }
    if (!sync_inflight_) {
      sync_inflight_ = true;
      sync_lock.Unlock();
      Status flushed = FlushAsLeader();
      sync_lock.Lock();
      sync_inflight_ = false;
      sync_cv_.NotifyAll();
      if (!flushed.ok() && IsRolledBackLocked(lsn)) {
        return flushed;
      }
      continue;
    }
    sync_cv_.Wait(sync_mu_);
  }
}

Status IngestWal::Sync() {
  uint64_t last = 0;
  {
    MutexLock lock(mu_);
    last = next_lsn_ - 1;
  }
  if (last == 0) {
    return Status::Ok();
  }
  // Barrier semantics, not record semantics: Sync() returns Ok once every
  // record appended so far is RESOLVED — durable, or rolled back with its
  // completion already NACKed.  (SyncUpTo(lsn) is the per-record form and
  // keeps failing for a dead lsn.)  Only the call that leads a failing
  // flush reports the error; a later barrier over the same dead tail is
  // clean, so a healed service can quiesce and stop.
  MutexLock sync_lock(sync_mu_);
  for (;;) {
    if (last <= synced_lsn_ || IsRolledBackLocked(last)) {
      return Status::Ok();
    }
    if (!sync_inflight_) {
      sync_inflight_ = true;
      sync_lock.Unlock();
      Status flushed = FlushAsLeader();
      sync_lock.Lock();
      sync_inflight_ = false;
      sync_cv_.NotifyAll();
      if (!flushed.ok()) {
        return flushed;
      }
      continue;
    }
    sync_cv_.Wait(sync_mu_);
  }
}

// --------------------------------------------------------------- checkpoint

Status IngestWal::Checkpoint() {
  MutexLock ckpt_lock(ckpt_mu_);

  // Phase A — under group-commit leadership: flush the pending block, then
  // rotate to a fresh generation and take the unapplied backlog.  Barriers
  // and appends resume the moment leadership is released; the write-through
  // below touches no WAL lock, so group commits proceed concurrently with
  // the checkpoint's segment writes.
  {
    MutexLock sync_lock(sync_mu_);
    while (sync_inflight_) {
      sync_cv_.Wait(sync_mu_);
    }
    sync_inflight_ = true;
  }
  Status flushed = FlushAsLeader();
  std::deque<FlushedRecord> batch;
  uint64_t batch_bytes = 0;
  uint64_t covered = 0;
  uint64_t prev_covered = 0;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> pre_sizes;
  Status rotated = Status::Ok();
  if (flushed.ok()) {
    MutexLock lock(mu_);
    if (!unapplied_.empty()) {
      auto fd = fs_->Open(GenPath(gen_ + 1), O_CREAT | O_WRONLY | O_APPEND | O_TRUNC, 0644);
      if (!fd.ok()) {
        rotated = fd.error();
      } else {
        Status dir = config_.fsync ? fs_->SyncDir(config_.dir) : Status::Ok();
        if (!dir.ok()) {
          fs_->Close(fd.value());
          (void)fs_->Remove(GenPath(gen_ + 1));  // best effort
          rotated = dir;
        } else {
          fs_->Close(fd_);
          fd_ = fd.value();
          gen_++;
          gen_bytes_ = 0;
          batch = std::move(unapplied_);
          unapplied_.clear();
          batch_bytes = unapplied_bytes_;
          unapplied_bytes_ = 0;
          covered = gen_ - 1;
          prev_covered = covered_gen_;
          pre_sizes = durable_sizes_;
        }
      }
    }
  }
  {
    MutexLock sync_lock(sync_mu_);
    sync_inflight_ = false;
    sync_cv_.NotifyAll();
  }
  if (!flushed.ok() || !rotated.ok()) {
    MutexLock stats_lock(stats_mu_);
    stats_.checkpoint_failures++;
    return flushed.ok() ? rotated : flushed;
  }
  if (batch.empty()) {
    return Status::Ok();
  }

  // Phase B — write-through.  Reports append to their spool segments (the
  // spool's frame counts stay authoritative), session ops re-journal in
  // order, then everything fsyncs before the marker publishes the new
  // truncate-to sizes.
  struct TouchedSegment {
    uint64_t pre_bytes = 0;
    uint64_t frames_added = 0;
    uint64_t bytes_added = 0;
  };
  std::map<std::pair<uint64_t, uint64_t>, TouchedSegment> touched;
  Status applied = Status::Ok();
  bool journaled = false;
  for (const FlushedRecord& r : batch) {
    switch (r.kind) {
      case kWalReport:
      case kWalReportCommit: {
        applied = spool_->Append(static_cast<size_t>(r.shard), r.epoch, r.report);
        if (applied.ok()) {
          auto [it, fresh] = touched.try_emplace(std::make_pair(r.epoch, r.shard));
          if (fresh) {
            auto pre = pre_sizes.find({r.epoch, r.shard});
            it->second.pre_bytes = pre != pre_sizes.end() ? pre->second : 0;
          }
          it->second.frames_added++;
          it->second.bytes_added += FrameWireSize(r.report.size());
          if (r.kind == kWalReportCommit) {
            applied = journal_->Append({SessionOp::kCommit, r.session_id, r.value});
            journaled = true;
          }
        }
        break;
      }
      case kWalEvict:
        applied = journal_->Append({SessionOp::kEvict, r.session_id, r.value});
        journaled = true;
        break;
      case kWalGoodbye:
        applied = journal_->Append({SessionOp::kGoodbye, r.session_id, 0});
        journaled = true;
        break;
      default:
        break;
    }
    if (!applied.ok()) {
      break;
    }
  }
  // One journal fsync per checkpoint, and none for a checkpoint that wrote
  // no session record (an ack-less epoch seal).
  if (applied.ok() && journaled) {
    applied = journal_->Sync();
  }
  if (applied.ok() && config_.fsync) {
    applied = spool_->SyncAll();
  }
  if (applied.ok() && config_.fsync) {
    // Segments created by this write-through must have DURABLE dirents
    // before the marker publishes truncate-to sizes that reference them —
    // a marker that survives a crash its segments did not would truncate
    // and replay against files that no longer exist.
    applied = fs_->SyncDir(config_.dir);
  }

  if (!applied.ok()) {
    // Undo the partial write-through: segments roll back to their
    // pre-checkpoint sizes (duplicate journal records are harmless — replay
    // is idempotent — so the journal is left alone), and the batch returns
    // to the FRONT of the queue so the retry preserves record order.
    for (const auto& [key, t] : touched) {
      (void)spool_->TruncateSegmentTo(static_cast<size_t>(key.second), key.first,
                                      t.pre_bytes, t.frames_added);
    }
    {
      MutexLock lock(mu_);
      unapplied_bytes_ += batch_bytes;
      unapplied_.insert(unapplied_.begin(), std::make_move_iterator(batch.begin()),
                        std::make_move_iterator(batch.end()));
    }
    MutexLock stats_lock(stats_mu_);
    stats_.checkpoint_failures++;
    return applied;
  }

  std::map<std::pair<uint64_t, uint64_t>, uint64_t> marker_sizes;
  {
    MutexLock lock(mu_);
    for (const auto& [key, t] : touched) {
      durable_sizes_[key] = t.pre_bytes + t.bytes_added;
    }
    covered_gen_ = covered;
    marker_sizes = durable_sizes_;
  }
  Status marker = WriteMarker(covered, marker_sizes);
  if (!marker.ok()) {
    // The records ARE durably applied; only the marker is stale.  A crash
    // now truncates the segments back to the old marker's sizes and replays
    // the still-present generations — byte-identical, exactly once.  Revert
    // the covered watermark so the next checkpoint's marker re-covers these
    // generations (and its unlink sweep removes them).
    MutexLock lock(mu_);
    covered_gen_ = prev_covered;
    MutexLock stats_lock(stats_mu_);
    stats_.checkpoint_failures++;
    return marker;
  }
  for (uint64_t gen = prev_covered + 1; gen <= covered; ++gen) {
    // Best effort: a stale generation <= covered_gen is skipped by recovery.
    (void)fs_->Remove(GenPath(gen));
  }
  {
    MutexLock stats_lock(stats_mu_);
    stats_.checkpoints++;
    stats_.checkpointed_records += batch.size();
  }
  if (post_checkpoint_) {
    post_checkpoint_();
  }
  return Status::Ok();
}

Status IngestWal::MaybeCheckpoint() {
  {
    MutexLock lock(mu_);
    if (unapplied_bytes_ + pending_bytes_ < config_.checkpoint_threshold_bytes) {
      return Status::Ok();
    }
  }
  return Checkpoint();
}

void IngestWal::NoteEpochSealed(uint64_t epoch) {
  MutexLock lock(mu_);
  for (auto it = durable_sizes_.lower_bound({epoch, 0});
       it != durable_sizes_.end() && it->first.first == epoch;) {
    it = durable_sizes_.erase(it);
  }
}

IngestWal::Stats IngestWal::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

uint64_t IngestWal::unapplied_bytes() const {
  MutexLock lock(mu_);
  return unapplied_bytes_ + pending_bytes_;
}

}  // namespace prochlo
