// The disk-fault half of the exactly-once contract: every write-side
// syscall under the spool, the WAL and the session journal routes through the
// injectable Fs seam, and this suite drives short writes, ENOSPC, fsync
// EIO, and crash-at-syscall-k schedules through exactly the production
// code — then proves the contract end-to-end across a full server restart:
// kill-after-ack, reopen the spool directory, replay the client, and the
// per-epoch histograms stay bit-identical to the serial frontend with zero
// re-ingested reports.
//
// Seeded like the network suite: set PROCHLO_DURABILITY_SEED to reproduce
// a failing crash schedule.
#include <gtest/gtest.h>

#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/service/connection.h"
#include "src/service/frontend.h"
#include "src/service/fs.h"
#include "src/service/ingest.h"
#include "src/service/runtime.h"
#include "src/service/session_journal.h"
#include "src/service/spool.h"
#include "src/service/wire.h"
#include "src/util/rng.h"

namespace prochlo {
namespace {

namespace stdfs = std::filesystem;

using Claim = AckRegistry::Claim;

uint64_t SeedFromEnv() {
  if (const char* env = std::getenv("PROCHLO_DURABILITY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x44555242;  // "DURB"
}

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((stdfs::temp_directory_path() / ("prochlo-" + name)).string()) {
    stdfs::remove_all(path);
    stdfs::create_directories(path);
  }
  ~ScratchDir() { stdfs::remove_all(path); }
  std::string path;
};

// The disk dying underneath the durability tier — the Fs-seam sibling of
// the network suite's KillSwitchStream.  Forwards to the real filesystem
// until a schedule trips:
//   * FailWrites: every write answers ENOSPC with zero bytes landed.
//   * FailRemoves(n): the next n unlinks fail (post-drain cleanup retry).
//   * FailTruncates(n): the next n truncates fail (a rollback that cannot
//     undo a failed append).
//   * ArmCrash(k): the k-th subsequent syscall and everything after it
//     fails — the process dying at syscall k.  If the k-th op is a write,
//     it lands a half-frame first, so the survivor finds a torn tail.
//   * ArmCrashExactly(k): ONLY the k-th subsequent syscall fails; later
//     ones succeed.  Pairs with tearing down the whole stack right after:
//     the process died between two specific syscalls, and the reopening
//     stack (same FaultFs) finds a healthy disk.  This is the scalpel that
//     probes every point of the report↔commit atomicity window.
//   * TrackDirents()/DropUnsyncedDirents(): records file creates and
//     renames per parent directory and forgets them when that directory is
//     fsynced; DropUnsyncedDirents() then undoes whatever was never made
//     durable — the dirent the crash lost because nobody fsynced the
//     parent.  A missing SyncDir in the production code shows up here as a
//     vanished seal marker or checkpoint manifest.
// Close always forwards (a dying process still releases fds), and reads
// never fault: recovery reads whatever bytes actually landed.
class FaultFs : public Fs {
 public:
  static constexpr uint64_t kNever = ~uint64_t{0};

  FaultFs() : real_(Fs::Real()) {}

  Result<int> Open(const std::string& path, int flags, int mode) override {
    uint64_t op = NextOp();
    if (op >= crash_at_.load() || op == fail_exactly_.load()) {
      return Error{"faultfs: crashed (open)"};
    }
    const bool fresh = track_dirents_.load() && (flags & O_CREAT) != 0 &&
                       !stdfs::exists(path);
    auto fd = real_->Open(path, flags, mode);
    if (fd.ok() && fresh) {
      RecordDirent(DirentOp::kCreate, path, "");
    }
    return fd;
  }

  Result<size_t> Write(int fd, ByteSpan data) override {
    uint64_t op = NextOp();
    uint64_t crash_at = crash_at_.load();
    if (op == crash_at && data.size() > 1) {
      // The crashing write tears: half the bytes land, then the disk is
      // gone.  The short count is legitimate (callers loop), and the next
      // attempt fails — exactly how a torn tail forms.
      return real_->Write(fd, ByteSpan(data.data(), data.size() / 2));
    }
    if (op >= crash_at || op == fail_exactly_.load()) {
      return Error{"faultfs: crashed (write)"};
    }
    if (fail_writes_.load()) {
      write_faults_.fetch_add(1);
      return Error{"faultfs: injected ENOSPC"};
    }
    return real_->Write(fd, data);
  }

  Status Sync(int fd) override {
    uint64_t op = NextOp();
    if (op >= crash_at_.load() || op == fail_exactly_.load()) {
      return Error{"faultfs: crashed (fsync)"};
    }
    return real_->Sync(fd);
  }

  void Close(int fd) override { real_->Close(fd); }

  Status Remove(const std::string& path) override {
    uint64_t op = NextOp();
    if (op >= crash_at_.load() || op == fail_exactly_.load()) {
      return Error{"faultfs: crashed (remove)"};
    }
    if (remove_faults_.fetch_sub(1) > 0) {
      return Error{"faultfs: injected unlink failure"};
    }
    remove_faults_.fetch_add(1);  // keep the counter from drifting below 0
    return real_->Remove(path);
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    uint64_t op = NextOp();
    if (op >= crash_at_.load() || op == fail_exactly_.load()) {
      return Error{"faultfs: crashed (truncate)"};
    }
    if (truncate_faults_.fetch_sub(1) > 0) {
      return Error{"faultfs: injected truncate failure"};
    }
    truncate_faults_.fetch_add(1);  // keep the counter from drifting below 0
    return real_->Truncate(path, size);
  }

  Status Rename(const std::string& from, const std::string& to) override {
    uint64_t op = NextOp();
    if (op >= crash_at_.load() || op == fail_exactly_.load()) {
      return Error{"faultfs: crashed (rename)"};
    }
    Status renamed = real_->Rename(from, to);
    if (renamed.ok() && track_dirents_.load()) {
      RecordDirent(DirentOp::kRename, from, to);
    }
    return renamed;
  }

  Status SyncDir(const std::string& path) override {
    uint64_t op = NextOp();
    if (op >= crash_at_.load() || op == fail_exactly_.load()) {
      return Error{"faultfs: crashed (fsync dir)"};
    }
    Status synced = real_->SyncDir(path);
    if (synced.ok()) {
      syncdirs_.fetch_add(1);
      std::lock_guard<std::mutex> lock(dirent_mu_);
      const std::string dir = stdfs::path(path).lexically_normal().string();
      pending_dirents_.erase(
          std::remove_if(pending_dirents_.begin(), pending_dirents_.end(),
                         [&](const PendingDirent& d) { return d.dir == dir; }),
          pending_dirents_.end());
    }
    return synced;
  }

  // The k-th write-side syscall from now on (1-based) and everything after
  // it fails.
  void ArmCrash(uint64_t after_ops) { crash_at_.store(ops_.load() + after_ops); }
  bool crashed() const { return ops_.load() >= crash_at_.load(); }

  // ONLY the k-th syscall from now on (1-based) fails; everything after it
  // succeeds again — the exact-window crash probe.
  void ArmCrashExactly(uint64_t after_ops) {
    fail_exactly_.store(ops_.load() + after_ops);
  }
  bool crash_exactly_fired() const { return ops_.load() >= fail_exactly_.load(); }

  void FailWrites(bool on) { fail_writes_.store(on); }
  void FailRemoves(int64_t next_n) { remove_faults_.store(next_n); }
  void FailTruncates(int64_t next_n) { truncate_faults_.store(next_n); }

  void TrackDirents(bool on) { track_dirents_.store(on); }

  // The crash's metadata casualty: every create and rename whose parent
  // directory was never fsynced afterwards is rolled back (newest first) —
  // created files vanish, renamed files snap back to their old names.
  // Returns how many dirents were lost.
  size_t DropUnsyncedDirents() {
    std::vector<PendingDirent> doomed;
    {
      std::lock_guard<std::mutex> lock(dirent_mu_);
      doomed.swap(pending_dirents_);
    }
    for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
      if (it->op == DirentOp::kCreate) {
        (void)real_->Remove(it->a);
      } else {
        (void)real_->Rename(it->b, it->a);
      }
    }
    return doomed.size();
  }

  size_t unsynced_dirents() const {
    std::lock_guard<std::mutex> lock(dirent_mu_);
    return pending_dirents_.size();
  }

  uint64_t ops() const { return ops_.load(); }
  uint64_t write_faults() const { return write_faults_.load(); }
  uint64_t syncdirs() const { return syncdirs_.load(); }

 private:
  enum class DirentOp { kCreate, kRename };
  struct PendingDirent {
    DirentOp op;
    std::string dir;  // parent directory whose fsync would make it durable
    std::string a;    // created path / rename source
    std::string b;    // rename destination
  };

  uint64_t NextOp() { return ops_.fetch_add(1) + 1; }

  void RecordDirent(DirentOp op, const std::string& a, const std::string& b) {
    PendingDirent d;
    d.op = op;
    d.dir = stdfs::path(op == DirentOp::kRename ? b : a)
                .parent_path()
                .lexically_normal()
                .string();
    d.a = a;
    d.b = b;
    std::lock_guard<std::mutex> lock(dirent_mu_);
    pending_dirents_.push_back(std::move(d));
  }

  Fs* real_;
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> crash_at_{kNever};
  std::atomic<uint64_t> fail_exactly_{kNever};
  std::atomic<bool> fail_writes_{false};
  std::atomic<bool> track_dirents_{false};
  std::atomic<int64_t> remove_faults_{0};
  std::atomic<int64_t> truncate_faults_{0};
  std::atomic<uint64_t> write_faults_{0};
  std::atomic<uint64_t> syncdirs_{0};
  mutable std::mutex dirent_mu_;
  std::vector<PendingDirent> pending_dirents_;  // guarded by dirent_mu_
};

// Client-side transport wrapper for the restart drills: optionally
// blackholes everything the server sends (acks die in flight while reports
// land durably), and Abort() models the client host vanishing mid-session.
class FlakyStream : public ByteStream {
 public:
  FlakyStream(std::unique_ptr<ByteStream> inner, bool blackhole_reads)
      : inner_(std::move(inner)), blackhole_reads_(blackhole_reads) {}

  Result<size_t> Read(std::span<uint8_t> out) override {
    if (blackhole_reads_) {
      std::unique_lock<std::mutex> lock(mu_);
      aborted_cv_.wait(lock, [&] { return aborted_; });
      return size_t{0};
    }
    return inner_->Read(out);
  }

  Status Write(ByteSpan data) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (aborted_) {
        return Error{"flaky: connection killed"};
      }
    }
    return inner_->Write(data);
  }

  void CloseWrite() override { inner_->CloseWrite(); }

  void Abort() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!aborted_) {
      aborted_ = true;
      inner_->Abort();
      aborted_cv_.notify_all();
    }
  }

 private:
  std::unique_ptr<ByteStream> inner_;
  std::mutex mu_;
  std::condition_variable aborted_cv_;
  bool blackhole_reads_;
  bool aborted_ = false;
};

// The full server stack, like the network suite's rig, plus the durable
// session plumbing: Start() binds the FrameServer's AckRegistry to the
// frontend's recovered session state before the listener accepts anything.
struct DurabilityRig {
  explicit DurabilityRig(FrontendConfig config, size_t workers = 2, size_t ring = 64)
      : frontend(std::move(config)),
        pool(&frontend, WorkerPoolConfig{workers, ring}),
        server([this](Bytes report, ReportContext ctx, std::function<void(const Status&)> done) {
          pool.EnqueueAsync(std::move(report), ctx, std::move(done));
        }),
        listener(&server) {}

  ~DurabilityRig() { Shutdown(); }

  void Start() {
    ASSERT_TRUE(frontend.Start().ok());
    ASSERT_TRUE(frontend.BindAckRegistry(&server.registry()).ok());
    pool.Start();
    drainer = std::make_unique<DrainScheduler>(&frontend);
    drainer->Start();
    ASSERT_TRUE(listener.Start().ok());
  }

  void Shutdown() {
    if (shut_down_) {
      return;
    }
    shut_down_ = true;
    listener.Stop();
    (void)server.Shutdown();  // harness teardown; fault-injected errors expected
    if (drainer != nullptr) {
      drainer->Stop();
    }
    pool.Stop();
  }

  Result<std::unique_ptr<ByteStream>> Dial() {
    return TcpConnect("127.0.0.1", listener.port());
  }

  bool WaitForAccepted(uint64_t n, std::chrono::milliseconds timeout) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (frontend.stats().reports_accepted.load() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::yield();
    }
    return true;
  }

  ShufflerFrontend frontend;
  IngestWorkerPool pool;
  FrameServer server;
  TcpListener listener;
  std::unique_ptr<DrainScheduler> drainer;
  bool shut_down_ = false;
};

FrontendConfig DurabilityFrontendConfig(const std::string& spool_dir) {
  FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.pipeline.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.pipeline.num_threads = 0;
  config.pipeline.seed = "durability-e2e";
  config.ingest.num_shards = 4;
  config.spool_dir = spool_dir;
  return config;
}

// One sealed cohort, reused across restart drills: the same report bytes
// feed a serial reference frontend and the networked stacks, so histogram
// comparison is bit-exact.
std::vector<Bytes> SealCohort(const FrontendConfig& base) {
  std::vector<std::pair<std::string, std::string>> inputs;
  auto add = [&](const std::string& value, int count) {
    for (int i = 0; i < count; ++i) {
      inputs.emplace_back(value, value);
    }
  };
  add("durable-heavy", 30);
  add("durable-mid", 22);
  add("durable-rare", 4);  // below T=20: must vanish from the histogram
  ShufflerFrontend key_holder(base);
  const Encoder encoder = key_holder.MakeEncoder();
  SecureRandom rng(ToBytes("durability-cohort"));
  auto sealed = encoder.BatchSealReports(inputs, rng);
  EXPECT_TRUE(sealed.ok());
  return std::move(sealed).value();
}

// The serial reference: one epoch, drained inline, no network, no faults.
std::map<uint64_t, std::map<std::string, uint64_t>> SerialHistograms(
    const FrontendConfig& base, const std::vector<Bytes>& sealed) {
  ScratchDir dir("durability-serial");
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  ShufflerFrontend serial(config);
  EXPECT_TRUE(serial.Start().ok());
  for (const auto& report : sealed) {
    EXPECT_TRUE(serial.AcceptReport(report).ok());
  }
  EXPECT_TRUE(serial.CutEpoch().ok());
  auto drained = serial.DrainSealedEpochs();
  EXPECT_TRUE(drained.ok());
  std::map<uint64_t, std::map<std::string, uint64_t>> expected;
  for (const auto& result : drained.results) {
    expected[result.epoch] = result.result.histogram;
  }
  return expected;
}

Bytes SyntheticReport(uint64_t client, uint64_t index) {
  Bytes report(48, static_cast<uint8_t>(0xD0 + client));
  for (int b = 0; b < 8; ++b) {
    report[8 + b] = static_cast<uint8_t>(index >> (8 * b));
  }
  return report;
}

void ExpectAckBooksBalance(const DurabilityRig& rig, uint64_t unique_reports) {
  ConnectionAckBook book = rig.server.ack_book();
  FrameStreamStats frames = rig.server.stats();
  EXPECT_EQ(frames.frames_report, book.acked + book.nacked + book.duplicates_suppressed +
                                      book.fenced + book.refused);
  EXPECT_EQ(rig.frontend.stats().reports_accepted.load(), unique_reports);
}

// A spooled frontend with an AckRegistry bound the production way, driven
// without the network: each claimed (session, seq) is logged as one WAL
// record carrying the report and its commit, and the group commit's
// completion commits (or releases) the claim, as FrameConnection's does.
struct WalRegistryRig {
  explicit WalRegistryRig(FrontendConfig config) : frontend(std::move(config)) {
    EXPECT_TRUE(frontend.Start().ok());
    EXPECT_TRUE(frontend.BindAckRegistry(&registry).ok());
  }

  // Logs the report for an already-claimed (session, seq).
  void Ingest(uint64_t session, uint64_t seq) {
    Bytes report = SyntheticReport(session, seq);
    const size_t shard = ShardedIngest::ShardOfReport(report, frontend.num_shards());
    Status accepted = frontend.AcceptRoutedReportAsync(
        shard, std::move(report), ReportContext{session, seq},
        [this, session, seq](const Status& status) {
          if (status.ok()) {
            registry.Commit(session, seq);
          } else {
            registry.Release(session, seq);
          }
        });
    EXPECT_TRUE(accepted.ok());
  }

  // Group commit: every report logged so far is durable and its claim
  // committed.
  void Barrier() { EXPECT_TRUE(frontend.BarrierIngest().ok()); }

  void Commit(uint64_t session, uint64_t seq) {
    Ingest(session, seq);
    Barrier();
  }

  // Declared first, so it outlives the frontend: the WAL's destructor may
  // still fire completions into it.
  AckRegistry registry;
  ShufflerFrontend frontend;
};

Result<JournalRecovery> ReopenJournal(const std::string& spool_dir) {
  SessionJournalConfig journal_config;
  journal_config.path = spool_dir + "/sessions.journal";
  SessionJournal journal(journal_config);
  return journal.Open();
}

// ----------------------------------------- kill-after-ack, restart, replay

// The tentpole scenario: every report lands durably and is ACKed, but the
// client never sees an ack (blackholed) and its host dies.  The server is
// then killed and rebuilt on the same spool directory.  The restarted
// server must re-ACK the client's full replay from the replayed session
// journal WITHOUT re-ingesting a single report, and the drained histogram
// must be bit-identical to the serial frontend.
TEST(ServiceDurabilityTest, RestartAfterLostAcksSuppressesFullReplay) {
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  ASSERT_FALSE(sealed.empty());
  const auto expected = SerialHistograms(base, sealed);
  ASSERT_EQ(expected.size(), 1u);

  ScratchDir dir("durability-restart");
  FrameClient client(FrameClientConfig{/*session_id=*/0xA11CEull});

  {
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    DurabilityRig rig(config);
    rig.Start();

    auto stream = rig.Dial();
    ASSERT_TRUE(stream.ok());
    auto flaky = std::make_unique<FlakyStream>(std::move(stream).value(),
                                               /*blackhole_reads=*/true);
    FlakyStream* kill = flaky.get();
    ASSERT_TRUE(client.Connect(std::move(flaky)).ok());
    for (const auto& report : sealed) {
      ASSERT_TRUE(client.SendReport(report).ok());
    }
    // Server side: everything ingested, journaled, and ACKed into the
    // blackhole.  Client side: nothing confirmed, everything outstanding.
    ASSERT_TRUE(rig.WaitForAccepted(sealed.size(), std::chrono::milliseconds(30000)));
    EXPECT_FALSE(client.WaitForAcks(std::chrono::milliseconds(50)));
    EXPECT_EQ(client.outstanding(), sealed.size());
    kill->Abort();
    ASSERT_TRUE(rig.server.Shutdown().ok());
    EXPECT_EQ(rig.server.ack_book().acked, sealed.size());
  }  // the whole stack dies: frontend, journal, registry, listener

  FrontendConfig config = base;
  config.spool_dir = dir.path;
  DurabilityRig rig(config);
  rig.Start();

  // The survivor replayed both halves of the durable state.
  EXPECT_EQ(rig.frontend.stats().recovered_reports.load(), sealed.size());
  EXPECT_EQ(rig.frontend.stats().recovered_sessions.load(), 1u);
  EXPECT_GE(rig.frontend.stats().recovered_session_records.load(), sealed.size());
  EXPECT_EQ(rig.server.registry().sessions(), 1u);

  // Full replay: the client resends every report.  Every one must be
  // re-ACKed as a duplicate; none may be re-ingested.
  auto stream = rig.Dial();
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(client.Connect(std::move(stream).value()).ok());
  ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  EXPECT_EQ(client.stats().acked, sealed.size());
  EXPECT_EQ(client.stats().session_rotations, 0u);
  client.Close();

  EXPECT_EQ(rig.frontend.stats().reports_accepted.load(), 0u);

  // And the epoch those reports live in drains bit-identically.
  ASSERT_TRUE(rig.pool.Flush().ok());
  ASSERT_TRUE(rig.frontend.CutEpoch().ok());
  ASSERT_TRUE(rig.drainer->WaitForDrainedEpochs(1, std::chrono::milliseconds(30000)));
  ASSERT_TRUE(rig.server.Shutdown().ok());
  rig.drainer->Stop();
  auto results = rig.drainer->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reports, sealed.size());
  auto it = expected.find(results[0].epoch);
  ASSERT_NE(it, expected.end());
  EXPECT_EQ(results[0].result.histogram, it->second);  // bit-identical

  ConnectionAckBook book = rig.server.ack_book();
  EXPECT_EQ(book.acked, 0u);
  EXPECT_EQ(book.duplicates_suppressed, sealed.size());
  EXPECT_EQ(book.goodbyes_acked, 1u);
  EXPECT_EQ(rig.server.registry().sessions(), 0u);  // goodbye freed it
}

// ------------------------------------------------- crash-at-syscall-k sweep

// The disk dies at syscall k — mid-WAL-append, mid-fsync, mid-checkpoint,
// anywhere — while a client is streaming reports.  The client
// quiesces (everything the dead server will ever ACK has been ACKed), the
// stack is discarded, and a healthy server reopens the directory.  The
// client's replay of its unACKed remainder must land exactly-once: the
// drained epoch holds each report exactly one time, bit-identical to the
// serial reference, for every seeded schedule.
TEST(ServiceDurabilityTest, CrashAtSyscallKStaysExactlyOnce) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE("PROCHLO_DURABILITY_SEED=" + std::to_string(seed));
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  const auto expected = SerialHistograms(base, sealed);
  Rng rng(seed);

  for (int schedule = 0; schedule < 3; ++schedule) {
    const uint64_t crash_after = 25 + rng.NextBelow(260);
    SCOPED_TRACE("schedule=" + std::to_string(schedule) +
                 " crash_after=" + std::to_string(crash_after));
    ScratchDir dir("durability-crash-" + std::to_string(schedule));
    FaultFs fault;
    FrameClientConfig client_config{/*session_id=*/1000 + static_cast<uint64_t>(schedule)};
    client_config.nack_retry_delay = std::chrono::milliseconds(1);
    client_config.nack_retry_max_delay = std::chrono::milliseconds(8);
    FrameClient client(client_config);

    {
      FrontendConfig config = base;
      config.spool_dir = dir.path;
      config.fs = &fault;
      DurabilityRig rig(config);
      rig.Start();
      fault.ArmCrash(crash_after);

      auto stream = rig.Dial();
      ASSERT_TRUE(stream.ok());
      auto flaky = std::make_unique<FlakyStream>(std::move(stream).value(),
                                                 /*blackhole_reads=*/false);
      FlakyStream* kill = flaky.get();
      ASSERT_TRUE(client.Connect(std::move(flaky)).ok());
      for (const auto& report : sealed) {
        ASSERT_TRUE(client.SendReport(report).ok());
      }
      // Quiesce: either everything converged (the crash landed after the
      // last report's syscalls) or the ACK stream has gone stable under a
      // dead disk.  Waiting for stability matters: an ACK still in flight
      // here would be a report the client never replays.  Once ACKs have
      // drained, every ACKed report's WAL record — report and commit
      // together — is on disk, so the replay stays exactly-once.
      uint64_t last_acked = ~uint64_t{0};
      int stable_rounds = 0;
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (!client.WaitForAcks(std::chrono::milliseconds(250))) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "client never quiesced; outstanding=" << client.outstanding();
        uint64_t acked = client.stats().acked;
        stable_rounds = (acked == last_acked) ? stable_rounds + 1 : 0;
        last_acked = acked;
        if (stable_rounds >= 6 && fault.crashed()) {
          break;
        }
      }
      kill->Abort();
    }  // stack A dies with the disk

    // A healthy disk and a fresh stack on the same directory.
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    DurabilityRig rig(config);
    rig.Start();

    auto stream = rig.Dial();
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(client.Connect(std::move(stream).value()).ok());
    ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
    client.Close();

    ASSERT_TRUE(rig.pool.Flush().ok());
    ASSERT_TRUE(rig.frontend.CutEpoch().ok());
    ASSERT_TRUE(rig.drainer->WaitForDrainedEpochs(1, std::chrono::milliseconds(30000)));
    ASSERT_TRUE(rig.server.Shutdown().ok());
    rig.drainer->Stop();
    auto results = rig.drainer->TakeResults();
    ASSERT_EQ(results.size(), 1u);
    // Zero lost, zero duplicated, bit-identical — across the crash.
    EXPECT_EQ(results[0].reports, sealed.size());
    auto it = expected.find(results[0].epoch);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(results[0].result.histogram, it->second);
  }
}

// --------------------------------------------- ENOSPC: NACK, back off, heal

// A full disk must degrade gracefully: reports are NACKed retryable (never
// aborting the connection), the client backs off and retries, and once the
// disk heals every report lands exactly once.
TEST(ServiceDurabilityTest, SpoolWriteFailureNacksRetryableUntilHealed) {
  ScratchDir dir("durability-enospc");
  FaultFs fault;
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fs = &fault;
  DurabilityRig rig(config);
  rig.Start();

  constexpr uint64_t kReports = 24;
  FrameClientConfig client_config{/*session_id=*/0xE05ull};
  client_config.nack_retry_delay = std::chrono::milliseconds(1);
  client_config.nack_retry_max_delay = std::chrono::milliseconds(8);
  FrameClient client(client_config);
  auto stream = rig.Dial();
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(client.Connect(std::move(stream).value()).ok());

  fault.FailWrites(true);  // the disk fills up
  for (uint64_t i = 0; i < kReports; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(1, i)).ok());
  }
  // Every report bounces (NACK kRetryable) and the client keeps retrying.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.stats().nacked < kReports) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(client.stats().acked, 0u);
  // The client keeps retrying while the disk is down, and each retry counts
  // as accepted from its WAL append until its failed group commit rolls it
  // back.  Nothing may stay accepted, so wait for an instant with no retry
  // in flight instead of racing one.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t accepted = rig.frontend.stats().reports_accepted.load();
  while (accepted != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    accepted = rig.frontend.stats().reports_accepted.load();
  }
  EXPECT_EQ(accepted, 0u);
  EXPECT_GT(fault.write_faults(), 0u);

  fault.FailWrites(false);  // the disk heals
  ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  EXPECT_EQ(client.stats().acked, kReports);
  EXPECT_GT(client.stats().retransmitted, 0u);
  EXPECT_EQ(client.stats().session_rotations, 0u);
  client.Close();
  ASSERT_TRUE(rig.server.Shutdown().ok());

  ExpectAckBooksBalance(rig, kReports);
  EXPECT_EQ(rig.server.ack_book().acked, kReports);
}

// -------------------- the spool↔journal atomicity window, probed exactly

// One report through a server whose process dies at EXACTLY syscall k (the
// response — ack or NACK — dies with it), then a healthy stack reopens the
// directory and the client replays its unconfirmed report.  Returns how
// many copies of that report the drained epoch holds: 1 is exactly-once,
// 2 would mean the crash made the report durable without its (session,
// seq), so the replay re-ingested it.
uint64_t ReportCopiesAfterExactCrash(FrontendConfig base, uint64_t k) {
  ScratchDir dir("durability-window-" + std::to_string(k));
  base.spool_dir = dir.path;
  FrameClientConfig client_config{/*session_id=*/0xD00Dull};
  client_config.nack_retry_delay = std::chrono::milliseconds(1);
  client_config.nack_retry_max_delay = std::chrono::milliseconds(8);
  FrameClient client(client_config);
  FaultFs fault;
  {
    FrontendConfig config = base;
    config.fs = &fault;
    DurabilityRig rig(config);
    rig.Start();
    auto stream = rig.Dial();
    EXPECT_TRUE(stream.ok());
    if (!stream.ok()) {
      return 0;
    }
    auto flaky = std::make_unique<FlakyStream>(std::move(stream).value(),
                                               /*blackhole_reads=*/true);
    FlakyStream* kill = flaky.get();
    EXPECT_TRUE(client.Connect(std::move(flaky)).ok());
    fault.ArmCrashExactly(k);
    EXPECT_TRUE(client.SendReport(SyntheticReport(9, 1)).ok());
    // Quiesce: the ingest pool has resolved the report (accepted or failed;
    // the response went into the blackhole either way).  A k beyond the
    // report's syscall footprint resolves normally and merely probes
    // nothing.  (The server's ack book only folds at connection close, so
    // the pool's books are the live signal here.)
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      WorkerPoolStats pool_stats = rig.pool.stats();
      if (pool_stats.accepted + pool_stats.accept_failures >= 1) {
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    (void)rig.pool.Flush();  // harness quiesce; a faulted flush is expected
    kill->Abort();
  }  // the PROCESS dies; bytes already written survive (page-cache crash model)

  DurabilityRig rig(base);  // a healthy disk, the same directory
  rig.Start();
  auto stream = rig.Dial();
  EXPECT_TRUE(stream.ok());
  if (!stream.ok()) {
    return 0;
  }
  EXPECT_TRUE(client.Connect(std::move(stream).value()).ok());
  EXPECT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  client.Close();
  EXPECT_TRUE(rig.pool.Flush().ok());
  EXPECT_TRUE(rig.frontend.CutEpoch().ok());
  EXPECT_TRUE(rig.drainer->WaitForDrainedEpochs(1, std::chrono::milliseconds(30000)));
  EXPECT_TRUE(rig.server.Shutdown().ok());
  rig.drainer->Stop();
  auto results = rig.drainer->TakeResults();
  if (results.size() != 1) {
    return 0;
  }
  return results[0].reports;
}

// The regression the WAL exists for: with the unified record, EVERY exact
// crash point k yields exactly one copy — "report durable" and "(session,
// seq) committed" can no longer come apart.  The pre-WAL design wrote them
// as two appends to two files, and a crash at the k between them left a
// durable report without its commit: two copies after the replay.
TEST(ServiceDurabilityTest, WalClosesTheSpoolJournalAtomicityWindowAtEveryCrashPoint) {
  FrontendConfig base = DurabilityFrontendConfig("");
  for (uint64_t k = 1; k <= 12; ++k) {
    SCOPED_TRACE("crash exactly at syscall k=" + std::to_string(k));
    EXPECT_EQ(ReportCopiesAfterExactCrash(base, k), 1u);
  }
}

// ----------------------- lost dirents: the durable-rename discipline, pinned

// A crash may lose any dirent whose parent directory was never fsynced —
// a freshly created file or a just-renamed marker silently reverts.  The
// production discipline is that every recovery-critical metadata step
// (spool seal markers, WAL checkpoint write-through and marker rename,
// journal compaction) is followed by a parent-dir fsync.  This test pins
// it: every create/rename NOT followed by a SyncDir is revoked at the
// crash, and recovery must still come back bit-identical.  Remove any of
// the production SyncDirs and the corresponding marker/segment vanishes
// here — sealed epochs unseal, checkpoints un-happen, replay duplicates.
TEST(ServiceDurabilityTest, SealedAndCheckpointedMetadataSurvivesLostDirents) {
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  ASSERT_GE(sealed.size(), 8u);
  const auto expected = SerialHistograms(base, sealed);  // epoch 0 reference
  const size_t half = sealed.size() / 2;

  ScratchDir dir("durability-dirents");
  FaultFs fault;
  fault.TrackDirents(true);
  {
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    config.fs = &fault;
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    for (const auto& report : sealed) {
      ASSERT_TRUE(frontend.AcceptReport(report).ok());
    }
    // Seal epoch 0: the WAL checkpoint (segment write-through + marker
    // rename) followed by the spool's sealed marker, each dir-fsynced.
    ASSERT_TRUE(frontend.CutEpoch().ok());
    // Epoch 1 accumulates un-checkpointed reports in the live WAL gen.
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(frontend.AcceptReport(sealed[i]).ok());
    }
    ASSERT_TRUE(frontend.SyncSpool().ok());
    EXPECT_GT(fault.syncdirs(), 0u);
  }  // crash

  // The crash's metadata toll: whatever was never dir-fsynced vanishes.
  // The discipline means nothing recovery depends on is in that set.
  (void)fault.DropUnsyncedDirents();

  FrontendConfig config = base;
  config.spool_dir = dir.path;
  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  EXPECT_EQ(after.current_epoch(), 1u);          // the seal marker survived
  EXPECT_EQ(after.current_epoch_size(), half);   // the WAL replay is intact
  auto drained = after.DrainSealedEpochs();      // sealed epoch 0, still whole
  ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  ASSERT_EQ(drained.results.size(), 1u);
  EXPECT_EQ(drained.results[0].epoch, 0u);
  EXPECT_EQ(drained.results[0].reports, sealed.size());
  auto it = expected.find(0);
  ASSERT_NE(it, expected.end());
  EXPECT_EQ(drained.results[0].result.histogram, it->second);
}

// ------------------------------------- post-drain cleanup retries, bounded

// RemoveEpoch failures after a successful drain are retried a bounded
// number of times; a transient failure heals invisibly (only the retry
// counter moves), a persistent one surfaces as a counted leak — never as a
// lost epoch.
TEST(ServiceDurabilityTest, RemoveEpochFailuresRetryBoundedThenSurface) {
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  const auto expected = SerialHistograms(base, sealed);

  ScratchDir dir("durability-remove");
  FaultFs fault;
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  config.fs = &fault;
  config.remove_retry_attempts = 3;
  config.remove_retry_delay = std::chrono::milliseconds(1);
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());

  // Epoch 0: one transient unlink failure, healed by the retry.
  for (const auto& report : sealed) {
    ASSERT_TRUE(frontend.AcceptReport(report).ok());
  }
  ASSERT_TRUE(frontend.CutEpoch().ok());
  fault.FailRemoves(1);
  auto drained = frontend.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained.results.size(), 1u);
  EXPECT_EQ(drained.results[0].result.histogram, expected.begin()->second);
  EXPECT_GE(frontend.stats().remove_retries.load(), 1u);
  EXPECT_EQ(frontend.stats().remove_failures.load(), 0u);

  // Epoch 1: the unlink failure persists past every retry.  The drain
  // still succeeds — the reports are in the result — but the leak is
  // surfaced for operators.
  for (const auto& report : sealed) {
    ASSERT_TRUE(frontend.AcceptReport(report).ok());
  }
  ASSERT_TRUE(frontend.CutEpoch().ok());
  fault.FailRemoves(1'000'000);
  drained = frontend.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained.results.size(), 1u);
  EXPECT_EQ(frontend.stats().remove_failures.load(), 1u);
  fault.FailRemoves(0);
}

// ------------------------------------------- eviction → rotation, end-to-end

// A capped registry evicts the stalest idle session; the evicted client's
// next reports draw kSessionExpired, and the client rotates: fresh id,
// re-HELLO, replay under new seqs — exactly once, with no double-rotation
// from the stale expired NACKs still in the pipe (the session stamp on the
// NACK is what keeps the second generation from rotating again).
TEST(ServiceDurabilityTest, EvictedClientRotatesSessionExactlyOnce) {
  ScratchDir dir("durability-rotate");
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.max_sessions = 1;
  DurabilityRig rig(config);
  rig.Start();

  constexpr uint64_t kBatch = 8;
  FrameClientConfig config_a{/*session_id=*/1};
  config_a.nack_retry_delay = std::chrono::milliseconds(1);
  FrameClient client_a(config_a);
  auto stream_a = rig.Dial();
  ASSERT_TRUE(stream_a.ok());
  ASSERT_TRUE(client_a.Connect(std::move(stream_a).value()).ok());
  for (uint64_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(client_a.SendReport(SyntheticReport(0xA, i)).ok());
  }
  ASSERT_TRUE(client_a.WaitForAcks(std::chrono::milliseconds(30000)));

  // A second session crowds out the first (cap 1, session 1 idle).
  FrameClient client_b(FrameClientConfig{/*session_id=*/2});
  auto stream_b = rig.Dial();
  ASSERT_TRUE(stream_b.ok());
  ASSERT_TRUE(client_b.Connect(std::move(stream_b).value()).ok());
  for (uint64_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(client_b.SendReport(SyntheticReport(0xB, i)).ok());
  }
  ASSERT_TRUE(client_b.WaitForAcks(std::chrono::milliseconds(30000)));
  EXPECT_GE(rig.server.registry().evictions(), 1u);
  EXPECT_EQ(rig.server.registry().tombstones(), 1u);

  // The evicted client sends again: expired NACKs, one rotation, replay.
  for (uint64_t i = kBatch; i < 2 * kBatch; ++i) {
    ASSERT_TRUE(client_a.SendReport(SyntheticReport(0xA, i)).ok());
  }
  ASSERT_TRUE(client_a.WaitForAcks(std::chrono::milliseconds(30000)));
  EXPECT_EQ(client_a.stats().session_rotations, 1u);
  EXPECT_EQ(client_a.stats().acked, 2 * kBatch);
  EXPECT_GE(client_a.stats().nacked, 1u);
  EXPECT_NE(client_a.session_id(), 1u);

  client_a.Close();
  client_b.Close();
  ASSERT_TRUE(rig.server.Shutdown().ok());

  // Exactly once through the whole dance: 3 batches ingested, every
  // expired frame NACKed, books balanced.
  ExpectAckBooksBalance(rig, 3 * kBatch);
  ConnectionAckBook book = rig.server.ack_book();
  EXPECT_EQ(book.acked, 3 * kBatch);
  EXPECT_EQ(book.duplicates_suppressed, 0u);
  EXPECT_GE(book.expired_nacked, 1u);
  EXPECT_EQ(book.nacked, book.expired_nacked);
  EXPECT_EQ(rig.server.registry().evictions(), 2u);  // session 1, then 2
  EXPECT_EQ(rig.server.registry().sessions(), 0u);
}

// ------------------------------------------------------- 10k-session churn

// The registry's memory must stay bounded under session churn: live
// sessions never exceed the cap, evicted ids become tombstones, and the
// journal a checkpoint writes from the WAL round-trips the whole final
// state.
TEST(ServiceDurabilityTest, SessionChurnStaysBoundedAtCap) {
  ScratchDir dir("durability-churn");
  constexpr size_t kCap = 64;
  constexpr uint64_t kSessions = 10'000;

  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fsync_spool = false;  // buffered: the churn would drown in fsyncs
  config.max_sessions = kCap;
  {
    WalRegistryRig rig(config);
    AckRegistry& registry = rig.registry;
    for (uint64_t s = 1; s <= kSessions; ++s) {
      ASSERT_EQ(registry.TryClaim(s, 0), Claim::kNew);
      rig.Commit(s, 0);
      ASSERT_LE(registry.sessions(), kCap);
    }
    EXPECT_EQ(registry.sessions(), kCap);
    EXPECT_EQ(registry.evictions(), kSessions - kCap);
    EXPECT_EQ(registry.tombstones(), kSessions - kCap);
    // Evicted sessions answer expired, not duplicate-or-reingest.
    EXPECT_EQ(registry.TryClaim(1, 1), Claim::kSessionExpired);
    EXPECT_EQ(registry.TryClaim(kSessions, 0), Claim::kDuplicate);
    ASSERT_TRUE(rig.frontend.wal()->Checkpoint().ok());
  }

  // The journal round-trips the final shape.
  auto recovery = ReopenJournal(dir.path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery.value().live.size(), kCap);
  EXPECT_EQ(recovery.value().evicted.size(), kSessions - kCap);
  EXPECT_EQ(recovery.value().truncated_bytes, 0u);
}

// ----------------------------------------------- watermark edge behaviors

TEST(ServiceDurabilityTest, WatermarkSurvivesReleaseCommitInterleavings) {
  AckRegistry registry;
  for (uint64_t s = 0; s <= 5; ++s) {
    ASSERT_EQ(registry.TryClaim(5, s), Claim::kNew);
  }
  EXPECT_EQ(registry.TryClaim(5, 3), Claim::kInFlight);

  registry.Commit(5, 2);  // sparse {2}, watermark still 0
  EXPECT_TRUE(registry.IsDurable(5, 2));
  EXPECT_FALSE(registry.IsDurable(5, 0));
  EXPECT_EQ(registry.TryClaim(5, 2), Claim::kDuplicate);

  registry.Release(5, 0);  // NACKed: claimable again
  ASSERT_EQ(registry.TryClaim(5, 0), Claim::kNew);
  registry.Commit(5, 0);  // watermark 1
  EXPECT_EQ(registry.TryClaim(5, 0), Claim::kDuplicate);
  EXPECT_FALSE(registry.IsDurable(5, 1));

  registry.Commit(5, 1);  // watermark sweeps through sparse {2} → 3
  EXPECT_TRUE(registry.IsDurable(5, 2));
  EXPECT_EQ(registry.TryClaim(5, 1), Claim::kDuplicate);

  registry.Commit(5, 4);  // sparse {4}
  registry.Commit(5, 3);  // watermark sweeps to 5
  registry.Commit(5, 5);  // watermark 6, sparse empty
  for (uint64_t s = 0; s <= 5; ++s) {
    EXPECT_EQ(registry.TryClaim(5, s), Claim::kDuplicate) << "seq " << s;
  }
  // A released-then-reclaimed seq past the watermark still works.
  ASSERT_EQ(registry.TryClaim(5, 6), Claim::kNew);
  registry.Release(5, 6);
  ASSERT_EQ(registry.TryClaim(5, 6), Claim::kNew);
  EXPECT_EQ(registry.sessions(), 1u);
}

// An out-of-order commit burst must fold entirely into the contiguous
// watermark — verified through the journal a checkpoint writes, whose
// replay applies the same sweep: the recovered snapshot has an empty sparse
// set.
TEST(ServiceDurabilityTest, OutOfOrderCommitBurstCompactsIntoWatermark) {
  ScratchDir dir("durability-ooo");
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fsync_spool = false;
  {
    WalRegistryRig rig(config);
    AckRegistry& registry = rig.registry;
    constexpr uint64_t kBurst = 64;
    for (uint64_t s = 0; s < kBurst; ++s) {
      ASSERT_EQ(registry.TryClaim(7, s), Claim::kNew);
    }
    for (uint64_t s = kBurst; s-- > 0;) {  // commit in strict reverse order
      rig.Commit(7, s);
    }
    for (uint64_t s = 0; s < kBurst; ++s) {
      EXPECT_EQ(registry.TryClaim(7, s), Claim::kDuplicate);
    }
    ASSERT_TRUE(rig.frontend.wal()->Checkpoint().ok());
  }
  auto recovery = ReopenJournal(dir.path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery.value().live.size(), 1u);
  EXPECT_EQ(recovery.value().live[0].session_id, 7u);
  EXPECT_EQ(recovery.value().live[0].watermark, 64u);
  EXPECT_TRUE(recovery.value().live[0].sparse.empty());
}

// Sequence numbers near the top of the space must saturate, never wrap: a
// wrapped watermark would mark the whole space durable and suppress every
// future report as a duplicate of nothing.
TEST(ServiceDurabilityTest, SeqSpaceSaturatesInsteadOfWrapping) {
  constexpr uint64_t kMax = ~uint64_t{0};
  // A session whose watermark sits one below the top (restored, since
  // getting there organically takes 2^64 commits).
  JournalRecovery recovery;
  recovery.live.push_back(SessionSnapshot{/*session_id=*/9, kMax - 1, {}});
  AckRegistry registry;
  registry.RestoreFromRecovery(recovery);

  EXPECT_EQ(registry.TryClaim(9, kMax), Claim::kSessionExpired);  // reserved
  ASSERT_EQ(registry.TryClaim(9, kMax - 1), Claim::kNew);
  registry.Commit(9, kMax - 1);  // watermark saturates at kMax
  EXPECT_EQ(registry.TryClaim(9, kMax - 1), Claim::kDuplicate);
  EXPECT_TRUE(registry.IsDurable(9, kMax - 2));
  // No wrap: low seqs read as durable (below the saturated watermark),
  // not as fresh claims on a zeroed counter.
  EXPECT_EQ(registry.TryClaim(9, 0), Claim::kDuplicate);
  EXPECT_EQ(registry.TryClaim(9, kMax), Claim::kSessionExpired);

  // Even a crafted snapshot holding the reserved seq must not wrap the
  // sweep loop: kMax stays parked in the sparse set forever.
  JournalRecovery forced;
  forced.live.push_back(SessionSnapshot{/*session_id=*/11, kMax, {kMax}});
  AckRegistry registry2;
  registry2.RestoreFromRecovery(forced);
  EXPECT_TRUE(registry2.IsDurable(11, kMax));
  EXPECT_EQ(registry2.TryClaim(11, 3), Claim::kDuplicate);
  EXPECT_EQ(registry2.sessions(), 1u);
}

// ------------------------------------------------- goodbye drops everything

TEST(ServiceDurabilityTest, GoodbyeErasesDurableSessionState) {
  ScratchDir dir("durability-goodbye");
  {
    WalRegistryRig rig(DurabilityFrontendConfig(dir.path));
    AckRegistry& registry = rig.registry;
    for (uint64_t s = 0; s < 10; ++s) {
      ASSERT_EQ(registry.TryClaim(7, s), Claim::kNew);
      rig.Commit(7, s);
    }
    EXPECT_EQ(registry.sessions(), 1u);

    registry.Terminate(7);
    EXPECT_EQ(registry.sessions(), 0u);
    EXPECT_EQ(registry.tombstones(), 0u);
    registry.Terminate(7);  // idempotent
    // A reused id starts over as a brand-new session, not as a ghost.
    EXPECT_EQ(registry.TryClaim(7, 0), Claim::kNew);
    ASSERT_TRUE(rig.frontend.wal()->Checkpoint().ok());
  }
  // The goodbye record replays: the reopened journal has no trace.
  auto recovery = ReopenJournal(dir.path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery.value().live.empty());
  EXPECT_TRUE(recovery.value().evicted.empty());
  EXPECT_EQ(recovery.value().records, 12u);  // 10 commits + 2 goodbyes
}

// ------------------------------------- journal torn tails and compaction

TEST(ServiceDurabilityTest, JournalTruncatesTornTailAndRemovesStaleCompaction) {
  ScratchDir dir("durability-torn");
  const std::string path = dir.path + "/sessions.journal";
  SessionJournalConfig journal_config;
  journal_config.path = path;
  {
    SessionJournal journal(journal_config);
    ASSERT_TRUE(journal.Open().ok());
    for (uint64_t s = 0; s < 5; ++s) {
      ASSERT_TRUE(journal.Append({SessionOp::kCommit, 1, s}).ok());
    }
    ASSERT_TRUE(journal.Sync().ok());
  }
  const uint64_t clean_size = stdfs::file_size(path);
  {
    // A torn append at the tail, and a compaction that died mid-write.
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn.write("\xAB\xAB\xAB\xAB\xAB\xAB\xAB", 7);
    std::ofstream stale(path + ".new", std::ios::binary);
    stale.write("junk", 4);
  }

  SessionJournal reopened(journal_config);
  auto recovery = reopened.Open();
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery.value().records, 5u);
  EXPECT_EQ(recovery.value().truncated_bytes, 7u);
  ASSERT_EQ(recovery.value().live.size(), 1u);
  EXPECT_EQ(recovery.value().live[0].watermark, 5u);
  EXPECT_FALSE(stdfs::exists(path + ".new"));     // stale temp removed
  EXPECT_EQ(stdfs::file_size(path), clean_size);  // tail gone, records intact

  // The reopened journal appends cleanly after the repair.
  ASSERT_TRUE(reopened.Append({SessionOp::kCommit, 1, 5}).ok());
  ASSERT_TRUE(reopened.Sync().ok());
}

// Compaction keeps the log near one snapshot per session instead of one
// record per commit, and the rename-commit survives a reopen.  The WAL's
// post-checkpoint hook drives it, so the commits ride the real path until
// the checkpointed records cross the journal's threshold.
TEST(ServiceDurabilityTest, CompactionBoundsJournalGrowth) {
  ScratchDir dir("durability-compact");
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fsync_spool = false;
  const uint64_t threshold = SessionJournal::kCompactThresholdBytes;
  // Commit records are ~47 bytes each: enough to cross the threshold once.
  const uint64_t commits = threshold / 40;
  {
    WalRegistryRig rig(config);
    for (uint64_t s = 0; s < commits; ++s) {
      ASSERT_EQ(rig.registry.TryClaim(3, s), Claim::kNew);
      rig.Ingest(3, s);
      if ((s + 1) % 1024 == 0 || s + 1 == commits) {
        rig.Barrier();
        ASSERT_TRUE(rig.frontend.wal()->Checkpoint().ok());
      }
    }
    // Uncompacted, the commit records alone would exceed the threshold;
    // compacted down to about one snapshot plus the commits checkpointed
    // since, the live log stays below it.
    EXPECT_LT(rig.frontend.session_journal()->appended_bytes(), threshold);
  }
  const std::string path = dir.path + "/sessions.journal";
  EXPECT_LT(stdfs::file_size(path), threshold);
  auto recovery = ReopenJournal(dir.path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery.value().live.size(), 1u);
  EXPECT_EQ(recovery.value().live[0].watermark, commits);
  EXPECT_TRUE(recovery.value().live[0].sparse.empty());
}

// The WAL's checkpoint hook reads the bound registry, which lives in a
// FrameServer.  When the server goes first, the hook must go with it: a
// checkpoint that then carries the journal past the compaction threshold
// must neither touch the dead registry (ASan flags it otherwise) nor
// compact from it.  Binding a new registry re-arms compaction.
TEST(ServiceDurabilityTest, CheckpointAfterTheBoundServerIsGoneIsClean) {
  ScratchDir dir("durability-unbound-hook");
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fsync_spool = false;
  const uint64_t threshold = SessionJournal::kCompactThresholdBytes;
  const uint64_t commits = threshold / 40;  // ~47-byte records: past the threshold
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());
  auto unused_sink = [](Bytes, ReportContext, std::function<void(const Status&)> done) {
    done(Error{"unused"});
  };
  // Claims, logs and commits (session, seq) against `registry`, the way
  // a connection does.
  auto commit = [&](AckRegistry& registry, uint64_t session, uint64_t seq) {
    ASSERT_EQ(registry.TryClaim(session, seq), Claim::kNew);
    Bytes report = SyntheticReport(session, seq);
    const size_t shard = ShardedIngest::ShardOfReport(report, frontend.num_shards());
    ASSERT_TRUE(frontend
                    .AcceptRoutedReportAsync(shard, std::move(report),
                                             ReportContext{session, seq},
                                             [&registry, session, seq](const Status& status) {
                                               if (status.ok()) {
                                                 registry.Commit(session, seq);
                                               } else {
                                                 registry.Release(session, seq);
                                               }
                                             })
                    .ok());
  };
  {
    auto server = std::make_unique<FrameServer>(unused_sink);
    ASSERT_TRUE(frontend.BindAckRegistry(&server->registry()).ok());
    for (uint64_t s = 0; s < commits; ++s) {
      commit(server->registry(), 3, s);
    }
    ASSERT_TRUE(frontend.BarrierIngest().ok());
    // No checkpoint yet: every commit record is still in the WAL.
    EXPECT_EQ(frontend.session_journal()->appended_bytes(), 0u);
  }  // the server and its registry are gone
  ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
  // The write-through crossed the threshold, and nothing compacted.
  EXPECT_GE(frontend.session_journal()->appended_bytes(), threshold);

  // A registry bound now takes over the hook: its commits' checkpoint
  // compacts.  A second, earlier-bound server that stops afterwards must
  // not unhook the newer binding.
  auto first = std::make_unique<FrameServer>(unused_sink);
  FrameServer second(unused_sink);
  ASSERT_TRUE(frontend.BindAckRegistry(&first->registry()).ok());
  ASSERT_TRUE(frontend.BindAckRegistry(&second.registry()).ok());
  ASSERT_TRUE(first->Shutdown().ok());
  first.reset();
  commit(second.registry(), 4, 0);
  ASSERT_TRUE(frontend.BarrierIngest().ok());
  ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
  EXPECT_LT(frontend.session_journal()->appended_bytes(), threshold);

  // Stopping the bound server unhooks it.
  ASSERT_TRUE(second.Shutdown().ok());
  ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
}

// The other order: a frontend destroyed while its registry's server is
// still up must unlink itself, or the server's Shutdown calls back into
// freed memory.
TEST(ServiceDurabilityTest, ServerOutlivingItsFrontendStopsCleanly) {
  ScratchDir dir("durability-frontend-first");
  FrameServer server([](Bytes, ReportContext, std::function<void(const Status&)> done) {
    done(Error{"unused"});
  });
  {
    ShufflerFrontend frontend(DurabilityFrontendConfig(dir.path));
    ASSERT_TRUE(frontend.Start().ok());
    ASSERT_TRUE(frontend.BindAckRegistry(&server.registry()).ok());
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

// --------------------------------- a failed journal rollback heals, not wedges

// A journal append that fails during a checkpoint's write-through, and
// whose rollback truncate fails too, leaves a dirty tail behind.  The next
// append re-truncates before it writes (the WAL's own dirty-tail rule), so
// once the disk heals the next seal checkpoints cleanly and a reopen
// replays a clean log: one transient fault must not wedge sealing until a
// restart.
TEST(ServiceDurabilityTest, FailedJournalRollbackHealsOnTheNextCheckpoint) {
  ScratchDir dir("durability-journal-heal");
  FaultFs fault;
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fs = &fault;
  constexpr uint64_t kReports = 4;
  {
    WalRegistryRig rig(config);
    for (uint64_t s = 0; s < kReports; ++s) {
      ASSERT_EQ(rig.registry.TryClaim(9, s), Claim::kNew);
      rig.Commit(9, s);
    }
    // Checkpoint the reports, so the next write-through starts with a
    // session record instead of a spool append.
    ASSERT_TRUE(rig.frontend.wal()->Checkpoint().ok());
    rig.registry.Terminate(9);  // a goodbye, group-committed to the WAL
    ASSERT_EQ(rig.registry.session_record_failures(), 0u);

    fault.FailWrites(true);
    fault.FailTruncates(1);
    EXPECT_FALSE(rig.frontend.wal()->Checkpoint().ok());
    EXPECT_GT(fault.write_faults(), 0u);
    {
      // What a torn write leaves past the clean prefix when the rollback
      // cannot remove it.
      std::ofstream torn(dir.path + "/sessions.journal", std::ios::binary | std::ios::app);
      torn.write("\xAB\xAB\xAB\xAB\xAB\xAB\xAB", 7);
    }

    fault.FailWrites(false);  // the disk heals
    EXPECT_TRUE(rig.frontend.CutEpoch().ok());
    EXPECT_EQ(rig.frontend.current_epoch(), 1u);
    EXPECT_EQ(rig.frontend.ingest_stats().seal_failures, 0u);
  }
  auto recovery = ReopenJournal(dir.path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery.value().truncated_bytes, 0u);
  EXPECT_EQ(recovery.value().records, kReports + 1);  // the commits, then the goodbye
  EXPECT_TRUE(recovery.value().live.empty());
  EXPECT_TRUE(recovery.value().evicted.empty());
}

// The compaction's own failure site: the snapshot is renamed into place but
// the log cannot be reopened for appends.  The next append reopens it
// instead of failing until a restart.
TEST(ServiceDurabilityTest, CompactionReopenFailureHealsOnTheNextAppend) {
  ScratchDir dir("durability-compact-reopen");
  FaultFs fault;
  SessionJournalConfig journal_config;
  journal_config.path = dir.path + "/sessions.journal";
  journal_config.fs = &fault;
  {
    SessionJournal journal(journal_config);
    ASSERT_TRUE(journal.Open().ok());
    ASSERT_TRUE(journal.Append({SessionOp::kCommit, 4, 0}).ok());
    // Compact's syscalls: open .new, write, fsync, rename, dir fsync, and
    // the reopen of the log — the sixth.
    fault.ArmCrashExactly(6);
    EXPECT_FALSE(journal.Compact({SessionSnapshot{4, 1, {}}}, {}).ok());
    EXPECT_TRUE(fault.crash_exactly_fired());
    ASSERT_TRUE(journal.Append({SessionOp::kCommit, 4, 1}).ok());
    ASSERT_TRUE(journal.Sync().ok());
  }
  auto recovery = ReopenJournal(dir.path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery.value().records, 2u);  // the snapshot, then the commit
  EXPECT_EQ(recovery.value().truncated_bytes, 0u);
  ASSERT_EQ(recovery.value().live.size(), 1u);
  EXPECT_EQ(recovery.value().live[0].watermark, 2u);
}

}  // namespace
}  // namespace prochlo
