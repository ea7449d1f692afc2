#include "src/service/frontend.h"

#include <thread>

#include "src/crypto/sha256.h"
#include "src/service/connection.h"
#include "src/util/serialization.h"

namespace prochlo {

namespace {

// RecordStream over an in-memory EpochBatch's per-shard reports, shard order
// then arrival order — the same order the spooled path streams.  It borrows
// the batch and yields copies, so a failed pipeline run leaves the batch
// intact for requeueing: the batch is the only copy of the epoch's reports
// in in-memory mode, and consuming it before the run succeeds is exactly the
// data-loss bug this stream exists to prevent.
class EpochBatchRecordStream : public RecordStream {
 public:
  explicit EpochBatchRecordStream(const EpochBatch& batch) : batch_(&batch) {
    total_ = 0;
    for (const auto& shard : batch_->shard_reports) {
      total_ += shard.size();
    }
  }

  size_t size() const override { return total_; }

  std::optional<Bytes> Next() override {
    while (shard_ < batch_->shard_reports.size()) {
      const auto& reports = batch_->shard_reports[shard_];
      if (index_ < reports.size()) {
        return reports[index_++];
      }
      shard_++;
      index_ = 0;
    }
    return std::nullopt;
  }

  void Reset() override {
    shard_ = 0;
    index_ = 0;
  }

 private:
  const EpochBatch* batch_;
  size_t total_ = 0;
  size_t shard_ = 0;
  size_t index_ = 0;
};

}  // namespace

ShufflerFrontend::ShufflerFrontend(FrontendConfig config)
    : config_(std::move(config)), pipeline_(config_.pipeline) {
  if (!config_.spool_dir.empty()) {
    SpoolConfig spool_config;
    spool_config.root = config_.spool_dir;
    spool_config.fsync_on_seal = config_.fsync_spool;
    spool_config.fs = config_.fs;
    spool_ = std::make_unique<Spool>(spool_config);
  }
  ingest_ = std::make_unique<ShardedIngest>(config_.ingest, spool_.get());
}

Status ShufflerFrontend::Start() {
  if (started_) {
    return Status::Ok();
  }
  if (spool_ != nullptr) {
    // WAL recovery phase 1 runs BEFORE the spool opens: it rolls unsealed
    // segments back to their checkpointed sizes and replays the
    // un-checkpointed generations' report records into the segment files,
    // so the spool's own recovery below counts them like any other durable
    // frame.
    IngestWalConfig wal_config;
    wal_config.dir = config_.spool_dir;
    wal_config.fsync = config_.fsync_spool;
    wal_config.checkpoint_threshold_bytes = config_.wal_checkpoint_threshold_bytes;
    wal_config.fs = config_.fs;
    wal_ = std::make_unique<IngestWal>(wal_config);
    auto wal_recovery = wal_->RecoverBeforeSpoolOpen();
    if (!wal_recovery.ok()) {
      return wal_recovery.error();
    }
    const std::vector<SessionOp> wal_session_ops =
        std::move(wal_recovery.value().session_ops);
    stats_.recovered_wal_reports += wal_recovery.value().replayed_reports;
    stats_.recovered_wal_session_ops += wal_session_ops.size();
    stats_.recovered_truncated_bytes += wal_recovery.value().truncated_bytes;

    auto recovery = spool_->Open();
    if (!recovery.ok()) {
      return recovery.error();
    }
    for (const auto& segment : recovery.value().segments) {
      stats_.recovered_reports += segment.frames;
    }
    stats_.recovered_truncated_bytes += recovery.value().truncated_bytes;
    ingest_->RestoreFromRecovery(recovery.value());

    // The session journal lives inside the spool directory (just created
    // above) and shares the spool's durability knobs: the same fsync policy
    // and the same injectable filesystem.
    SessionJournalConfig journal_config;
    journal_config.path = config_.spool_dir + "/sessions.journal";
    journal_config.fsync_commits = config_.fsync_spool;
    journal_config.fs = config_.fs;
    journal_ = std::make_unique<SessionJournal>(journal_config);
    auto replayed = journal_->Open();
    if (!replayed.ok()) {
      return replayed.error();
    }

    // Re-journal the replayed session ops so the journal alone once again
    // reconstructs session state, then merge them into the recovery image
    // the AckRegistry will be seeded from.  Only after they are durable
    // may FinishRecovery delete the generations that carried them.
    for (const SessionOp& op : wal_session_ops) {
      Status appended = journal_->Append(op);
      if (!appended.ok()) {
        return appended;
      }
    }
    if (!wal_session_ops.empty()) {
      Status synced = journal_->Sync();
      if (!synced.ok()) {
        return synced;
      }
    }
    journal_recovery_ = ApplySessionOps(std::move(replayed).value(), wal_session_ops);
    Status finished = wal_->FinishRecovery();
    if (!finished.ok()) {
      return finished;
    }
    wal_->AttachTargets(spool_.get(), journal_.get());
    wal_->set_rollback_callback([this](size_t shard, uint64_t epoch) {
      ingest_->RollbackAccepted(shard, epoch);
      stats_.reports_accepted--;
    });
    ingest_->SetWal(wal_.get());
    stats_.recovered_sessions += journal_recovery_.live.size();
    stats_.recovered_session_records += journal_recovery_.records;
  }
  started_ = true;
  return Status::Ok();
}

ShufflerFrontend::~ShufflerFrontend() {
  // The bound registry must not call back into a destroyed frontend.
  MutexLock lock(bind_mu_);
  if (bound_registry_ != nullptr) {
    bound_registry_->set_unbind({});
  }
}

Status ShufflerFrontend::BindAckRegistry(AckRegistry* registry) {
  if (!started_) {
    return Error{"frontend: Start() must succeed before BindAckRegistry"};
  }
  registry->set_max_sessions(config_.max_sessions);
  if (wal_ != nullptr) {
    // Restore before attach: replayed records must not be re-logged.
    // Commits then ride the report's own WAL record, evictions and goodbyes
    // their own WAL records; checkpoints write them through to the journal,
    // and compaction follows on the checkpoint cadence.
    registry->RestoreFromRecovery(journal_recovery_);
    registry->AttachWal(wal_.get());
    MutexLock lock(bind_mu_);
    if (bound_registry_ != nullptr && bound_registry_ != registry) {
      bound_registry_->set_unbind({});  // rebound: the old registry lets go
    }
    bound_registry_ = registry;
    wal_->set_post_checkpoint_hook([this, registry] { CompactJournalIfNeeded(*registry); });
    registry->set_unbind([this, registry] { UnbindAckRegistry(registry); });
  }
  return Status::Ok();
}

void ShufflerFrontend::UnbindAckRegistry(const AckRegistry* registry) {
  MutexLock lock(bind_mu_);
  if (bound_registry_ != registry) {
    return;
  }
  // Waits out a checkpoint that is running the hook right now.
  wal_->set_post_checkpoint_hook(nullptr);
  bound_registry_ = nullptr;
}

void ShufflerFrontend::CompactJournalIfNeeded(const AckRegistry& registry) {
  if (journal_->appended_bytes() < SessionJournal::kCompactThresholdBytes) {
    return;
  }
  // The hook runs under the WAL's checkpoint lock, so no journal append can
  // land between the snapshot and the rewrite.  The snapshot covers every
  // journaled record (a record's registry update precedes its group
  // commit's completion, which precedes the checkpoint that journaled it),
  // and anything newer than the snapshot is still in the WAL suffix, which
  // recovery replays on top.  A failed compaction leaves the old log
  // authoritative; the next checkpoint retries it.
  JournalRecovery image = registry.Snapshot();
  (void)journal_->Compact(image.live, image.evicted);
}

Status ShufflerFrontend::AcceptFrameStream(ByteSpan stream) {
  FrameReader reader(stream);
  Status status = Status::Ok();
  while (auto payload = reader.Next()) {
    status = AcceptReport(std::move(*payload));
    if (!status.ok()) {
      break;  // fold the reader's stats in before surfacing the error
    }
  }
  // Folded on every path: an early AcceptReport failure must not drop the
  // frames/bytes the reader has already accounted, or the stats-balance
  // invariant ("every input byte is a good frame, a corrupt frame, or
  // skipped garbage") breaks exactly when operators need it most.
  stats_.frames_ok += reader.stats().frames_ok;
  stats_.frames_corrupt += reader.stats().frames_corrupt;
  stats_.bytes_skipped += reader.stats().bytes_skipped;
  return status;
}

Status ShufflerFrontend::AcceptReport(Bytes sealed_report) {
  Status status = ingest_->Accept(std::move(sealed_report));
  if (status.ok()) {
    stats_.reports_accepted++;
  }
  return status;
}

Status ShufflerFrontend::AcceptRoutedReport(size_t shard_index, Bytes sealed_report) {
  Status status = ingest_->AcceptToShard(shard_index, std::move(sealed_report));
  if (status.ok()) {
    stats_.reports_accepted++;
  }
  return status;
}

Status ShufflerFrontend::AcceptRoutedReportAsync(
    size_t shard_index, Bytes sealed_report, ReportContext ctx,
    std::function<void(const Status&)> done) {
  Status status =
      ingest_->AcceptToShard(shard_index, std::move(sealed_report), ctx, &done);
  if (status.ok()) {
    stats_.reports_accepted++;
  }
  if (done) {
    // Not consumed by a WAL (in-memory mode, or the append itself failed):
    // the accept was synchronous and `status` is the durability verdict.
    done(status);
  }
  return status;
}

Status ShufflerFrontend::BarrierIngest() {
  return wal_ != nullptr ? wal_->Sync() : Status::Ok();
}

Status ShufflerFrontend::Tick() {
  Status status = ingest_->Tick();
  if (wal_ != nullptr) {
    // Backlog-threshold checkpoint rides the scheduling cadence, so a busy
    // epoch cannot grow the replay suffix without bound between seals.
    Status checkpointed = wal_->MaybeCheckpoint();
    if (status.ok() && !checkpointed.ok()) {
      status = checkpointed;
    }
  }
  return status;
}

Status ShufflerFrontend::CutEpoch(bool seal_if_empty) {
  return ingest_->CutEpoch(seal_if_empty);
}

Status ShufflerFrontend::SyncSpool() {
  if (wal_ != nullptr) {
    // Buffered reports live in the WAL until a checkpoint; the barrier makes
    // them durable before the segment fsync below.
    Status synced = wal_->Sync();
    if (!synced.ok()) {
      return synced;
    }
  }
  return spool_ != nullptr ? spool_->SyncAll() : Status::Ok();
}

SecureRandom DeriveEpochRng(const std::string& seed, uint64_t epoch) {
  Writer w;
  w.PutString(seed);
  w.PutU64(epoch);
  Sha256Digest digest = Sha256::TaggedHash("prochlo-epoch-rng", w.data());
  return SecureRandom(ByteSpan(digest.data(), digest.size()));
}

Rng DeriveEpochNoiseRng(const std::string& seed, uint64_t epoch) {
  Writer w;
  w.PutString(seed);
  w.PutU64(epoch);
  Sha256Digest digest = Sha256::TaggedHash("prochlo-epoch-noise", w.data());
  uint64_t rng_seed = 0;
  for (int i = 0; i < 8; ++i) {
    rng_seed |= static_cast<uint64_t>(digest[i]) << (8 * i);
  }
  return Rng(rng_seed);
}

SecureRandom ShufflerFrontend::EpochRng(uint64_t epoch) const {
  return DeriveEpochRng(config_.pipeline.seed, epoch);
}

Rng ShufflerFrontend::EpochNoiseRng(uint64_t epoch) const {
  return DeriveEpochNoiseRng(config_.pipeline.seed, epoch);
}

DrainReport ShufflerFrontend::DrainSealedEpochs() {
  DrainReport report;
  while (auto batch = ingest_->PopSealedEpoch()) {
    EpochResult epoch_result;
    epoch_result.epoch = batch->epoch;
    epoch_result.reports = batch->total;

    SecureRandom epoch_rng = EpochRng(batch->epoch);
    Rng epoch_noise = EpochNoiseRng(batch->epoch);

    Result<PipelineResult> run = Error{"epoch not drained"};
    if (spool_ != nullptr) {
      // Stream straight off the epoch's segment files.
      auto stream = spool_->OpenEpochStream(batch->epoch);
      run = pipeline_.RunReports(*stream, epoch_rng, epoch_noise);
    } else {
      // Borrow the batch — never consume it before the run succeeds: the
      // batch is the only copy of an in-memory epoch, and a requeue after
      // moving the reports out would retry an empty shell.
      EpochBatchRecordStream stream(*batch);
      run = pipeline_.RunReports(stream, epoch_rng, epoch_noise);
    }
    Status finished = FinishDrain(std::move(*batch), run.ok() ? Status::Ok() : run.error(),
                                  /*ran_pipeline=*/true);
    if (!finished.ok()) {
      // The epochs already drained this call ride along in the report
      // rather than being discarded with the error.
      report.failure = DrainError{epoch_result.epoch, finished.error()};
      return report;
    }
    epoch_result.result = std::move(run).value();
    report.results.push_back(std::move(epoch_result));
  }
  return report;
}

Result<std::optional<EpochPartialResult>> ShufflerFrontend::DrainNextEpochPartial() {
  auto batch = ingest_->PopSealedEpoch();
  if (!batch.has_value()) {
    return std::optional<EpochPartialResult>(std::nullopt);
  }
  EpochPartialResult out;
  out.epoch = batch->epoch;
  out.reports = batch->total;

  // An empty alignment epoch has nothing to run, but still leaves a marker
  // and manifest for FinishDrain to remove.
  Result<EpochPartial> run = EpochPartial{};
  const bool ran_pipeline = batch->total > 0;
  if (ran_pipeline) {
    if (spool_ != nullptr) {
      auto stream = spool_->OpenEpochStream(batch->epoch);
      run = pipeline_.RunReportsPartial(*stream);
    } else {
      // Borrow the batch (see DrainSealedEpochs): a failed run requeues it
      // intact, and in-memory mode holds the only copy of its reports.
      EpochBatchRecordStream stream(*batch);
      run = pipeline_.RunReportsPartial(stream);
    }
  }
  Status finished =
      FinishDrain(std::move(*batch), run.ok() ? Status::Ok() : run.error(), ran_pipeline);
  if (!finished.ok()) {
    return finished.error();
  }
  out.partial = std::move(run).value();
  return std::optional<EpochPartialResult>(std::move(out));
}

Status ShufflerFrontend::FinishDrain(EpochBatch batch, Status run, bool ran_pipeline) {
  if (ran_pipeline && run.ok() && config_.inject_drain_failure.has_value() &&
      config_.inject_drain_failure->epoch == batch.epoch &&
      injected_drain_failures_ < config_.inject_drain_failure->times) {
    injected_drain_failures_++;
    run = Error{"injected drain failure (epoch " + std::to_string(batch.epoch) + ")"};
  }
  if (!run.ok()) {
    // Put the intact batch back at the head of the queue (in-memory mode
    // holds the only copy of its reports), so a later drain retries it;
    // spooled segments also stay on disk untouched.
    ingest_->RequeueSealedEpoch(std::move(batch));
    return run;
  }
  if (spool_ != nullptr && config_.remove_drained_epochs) {
    // Transient unlink failures (a scanner pinning the directory, EMFILE
    // pressure) usually clear quickly, and a leaked epoch replays as a
    // duplicate after restart — worth a couple of bounded retries before
    // conceding.  The spool keeps failed segments tracked, so each retry
    // re-attempts exactly the files still on disk.
    Status removed = spool_->RemoveEpoch(batch.epoch);
    for (uint32_t attempt = 1; !removed.ok() && attempt < config_.remove_retry_attempts;
         ++attempt) {
      stats_.remove_retries++;
      std::this_thread::sleep_for(config_.remove_retry_delay);
      removed = spool_->RemoveEpoch(batch.epoch);
    }
    if (!removed.ok()) {
      // The epoch's reports are safe (already drained into the result);
      // what leaked is disk space plus a restart replaying the epoch as a
      // duplicate.  Count it so operators see the leak.
      stats_.remove_failures++;
    }
  }
  stats_.epochs_drained++;
  return Status::Ok();
}

}  // namespace prochlo
