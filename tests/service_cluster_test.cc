// The shard-group cluster: consistent-hash routing, redirect NACKs, the
// epoch barrier, and the merged histogram's bit-identity with the serial
// single-frontend pipeline — for every group count, under concurrent
// clients, seeded connection kills, stale maps, and a mid-epoch group
// crash with failover.
//
// The kill schedule is seeded: set PROCHLO_CLUSTER_SEED to reproduce a
// failing schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/pipeline.h"
#include "src/service/cluster/coordinator.h"
#include "src/service/cluster/group_map.h"
#include "src/service/cluster/merge.h"
#include "src/service/cluster/router.h"
#include "src/service/cluster/shard_group.h"
#include "src/service/connection.h"
#include "src/service/frontend.h"
#include "src/service/fs.h"
#include "src/util/record_stream.h"
#include "src/util/rng.h"

namespace prochlo {
namespace {

namespace fs = std::filesystem;

uint64_t SeedFromEnv() {
  if (const char* env = std::getenv("PROCHLO_CLUSTER_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x434c5553;  // "CLUS"
}

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / ("prochlo-" + name)).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

// Same transport saboteur as the network suite: the connection dies after a
// byte budget, possibly mid-frame.
class KillSwitchStream : public ByteStream {
 public:
  static constexpr size_t kUnlimited = static_cast<size_t>(-1);

  KillSwitchStream(std::unique_ptr<ByteStream> inner, size_t write_budget)
      : inner_(std::move(inner)), budget_(write_budget) {}

  Result<size_t> Read(std::span<uint8_t> out) override { return inner_->Read(out); }

  Status Write(ByteSpan data) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (aborted_) {
      return Error{"killswitch: connection killed"};
    }
    if (budget_ != kUnlimited && data.size() > budget_) {
      size_t partial = budget_;
      budget_ = 0;
      if (partial > 0) {
        // Torn frame delivered; the inner write outcome is irrelevant — the
        // kill below is the fault being injected.
        (void)inner_->Write(ByteSpan(data.data(), partial));
      }
      AbortLocked();
      return Error{"killswitch: connection killed mid-write"};
    }
    if (budget_ != kUnlimited) {
      budget_ -= data.size();
    }
    Status status = inner_->Write(data);
    if (!status.ok()) {
      AbortLocked();
    }
    return status;
  }

  void CloseWrite() override { inner_->CloseWrite(); }

  void Abort() override {
    std::lock_guard<std::mutex> lock(mu_);
    AbortLocked();
  }

 private:
  void AbortLocked() {
    if (!aborted_) {
      aborted_ = true;
      inner_->Abort();
    }
  }

  std::unique_ptr<ByteStream> inner_;
  std::mutex mu_;
  size_t budget_;
  bool aborted_ = false;
};

// A disk that dies under one group mid-epoch: armed, every write-side
// syscall fails (the PR 6 Fs seam), as if the group's volume went away.
// Reports it had already durably spooled stay on disk; reports in flight
// fail ingestion and are NACKed, never half-written.
class WedgeFs : public Fs {
 public:
  void Wedge() { wedged_.store(true, std::memory_order_relaxed); }
  void Heal() { wedged_.store(false, std::memory_order_relaxed); }

  Result<int> Open(const std::string& path, int flags, int mode) override {
    if (wedged()) {
      return Error{"wedge: open failed"};
    }
    return Fs::Real()->Open(path, flags, mode);
  }
  Result<size_t> Write(int fd, ByteSpan data) override {
    if (wedged()) {
      return Error{"wedge: write failed"};
    }
    return Fs::Real()->Write(fd, data);
  }
  Status Sync(int fd) override {
    if (wedged()) {
      return Error{"wedge: fsync failed"};
    }
    return Fs::Real()->Sync(fd);
  }
  void Close(int fd) override { Fs::Real()->Close(fd); }
  Status Remove(const std::string& path) override {
    if (wedged()) {
      return Error{"wedge: remove failed"};
    }
    return Fs::Real()->Remove(path);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    if (wedged()) {
      return Error{"wedge: truncate failed"};
    }
    return Fs::Real()->Truncate(path, size);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    if (wedged()) {
      return Error{"wedge: rename failed"};
    }
    return Fs::Real()->Rename(from, to);
  }

 private:
  bool wedged() const { return wedged_.load(std::memory_order_relaxed); }
  std::atomic<bool> wedged_{false};
};

FrontendConfig ClusterBaseConfig() {
  FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.pipeline.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.pipeline.num_threads = 0;
  config.pipeline.seed = "cluster-e2e";
  config.ingest.num_shards = 4;
  return config;
}

std::unique_ptr<ShardGroup> MakeGroup(uint64_t group_id, const std::string& cluster_root,
                                      const FrontendConfig& base, Fs* fault_fs = nullptr) {
  ShardGroupConfig config;
  config.group_id = group_id;
  config.frontend = base;
  config.frontend.spool_dir = cluster_root + "/group-" + std::to_string(group_id);
  config.frontend.fs = fault_fs;
  config.workers.workers = 2;
  config.workers.ring_capacity = 64;
  return std::make_unique<ShardGroup>(config);
}

ClusterClient::Dialer LoopbackDialer(const std::vector<ShardGroup*>& groups) {
  return [groups](uint64_t group_id) -> Result<std::unique_ptr<ByteStream>> {
    for (ShardGroup* group : groups) {
      if (group->group_id() == group_id) {
        return group->Connect();
      }
    }
    return Error{"dialer: unknown group " + std::to_string(group_id)};
  };
}

Bytes SyntheticReport(uint64_t client, uint64_t index) {
  Bytes report(48, static_cast<uint8_t>(0xB0 + client));
  for (int b = 0; b < 8; ++b) {
    report[8 + b] = static_cast<uint8_t>(index >> (8 * b));
  }
  return report;
}

std::vector<std::pair<std::string, std::string>> WaveInputs(int wave) {
  std::vector<std::pair<std::string, std::string>> inputs;
  auto add = [&](const std::string& value, int count) {
    for (int i = 0; i < count; ++i) {
      inputs.emplace_back(value, value);
    }
  };
  add("wave" + std::to_string(wave) + "-common", 70);
  add("wave" + std::to_string(wave) + "-mid", 40);
  // 30 > T=20 globally, but scattered across groups each local share is
  // under the threshold: only the global merge can keep it alive.
  add("shared-heavy", 30);
  add("wave" + std::to_string(wave) + "-rare", 4);  // below T=20: must vanish
  return inputs;
}

// Serial reference: the same waves through one frontend, one epoch per
// wave.  Every cluster topology must reproduce these histograms exactly.
std::map<uint64_t, std::map<std::string, uint64_t>> SerialBaseline(
    const FrontendConfig& base, const std::string& spool_dir,
    const std::vector<std::vector<Bytes>>& waves) {
  FrontendConfig config = base;
  config.spool_dir = spool_dir;
  ShufflerFrontend serial(config);
  EXPECT_TRUE(serial.Start().ok());
  for (const auto& wave : waves) {
    for (const auto& report : wave) {
      EXPECT_TRUE(serial.AcceptReport(report).ok());
    }
    EXPECT_TRUE(serial.CutEpoch().ok());
  }
  auto drained = serial.DrainSealedEpochs();
  EXPECT_TRUE(drained.ok());
  std::map<uint64_t, std::map<std::string, uint64_t>> expected;
  for (const auto& result : drained.results) {
    expected[result.epoch] = result.result.histogram;
  }
  return expected;
}

// Cross-layer balance: every rejection sent exactly one redirect NACK, the
// clients followed every redirect they were sent, and each report was acked
// by exactly one group.
void ExpectClusterBooksBalance(const std::vector<ShardGroup*>& groups,
                               const std::vector<ClusterClientStats>& client_stats,
                               const std::vector<FrameClientStats>& folded_stats,
                               uint64_t total_reports) {
  uint64_t accepted = 0;
  uint64_t acked = 0;
  uint64_t redirects_sent = 0;
  for (ShardGroup* group : groups) {
    const FrontendStats& stats = group->frontend().stats();
    EXPECT_EQ(stats.misrouted_rejected.load(), stats.redirects_sent.load())
        << "group " << group->group_id();
    accepted += stats.reports_accepted.load();
    redirects_sent += stats.redirects_sent.load();
    acked += group->server().ack_book().acked;
  }
  EXPECT_EQ(accepted, total_reports);  // zero lost, zero duplicated
  EXPECT_EQ(acked, total_reports);
  uint64_t routed_by_clients = 0;
  uint64_t redirects_followed = 0;
  uint64_t client_acked = 0;
  uint64_t client_redirected = 0;
  for (const auto& stats : client_stats) {
    routed_by_clients += stats.routed;
    redirects_followed += stats.redirects_followed;
    EXPECT_EQ(stats.redirect_failures, 0u);
  }
  for (const auto& stats : folded_stats) {
    client_acked += stats.acked;
    client_redirected += stats.redirected;
  }
  EXPECT_EQ(routed_by_clients, total_reports);
  EXPECT_EQ(redirects_followed, redirects_sent);
  EXPECT_EQ(client_redirected, redirects_sent);
  EXPECT_EQ(client_acked, total_reports);
}

// ---------------------------------------------------------------- group map

TEST(ServiceClusterTest, GroupMapSerializesAndRoutesDeterministically) {
  GroupMap map(7, {11, 22, 33}, /*vnodes_per_group=*/32);
  Bytes payload = map.Serialize();
  auto parsed = GroupMap::Deserialize(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version(), 7u);
  EXPECT_EQ(parsed->group_ids(), map.group_ids());
  EXPECT_EQ(parsed->vnodes_per_group(), 32u);
  Rng rng(0x4d415030);
  for (int i = 0; i < 500; ++i) {
    uint64_t key = rng.Next();
    EXPECT_EQ(map.OwnerOfKey(key), parsed->OwnerOfKey(key));
  }
  // Report routing is a pure function of the sealed bytes.
  Bytes report = SyntheticReport(1, 2);
  EXPECT_EQ(map.OwnerOfReport(report), map.OwnerOfReport(report));

  // Defective payloads are rejected, never misparsed.
  EXPECT_FALSE(GroupMap::Deserialize(ByteSpan()).has_value());
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    EXPECT_FALSE(GroupMap::Deserialize(ByteSpan(payload.data(), keep)).has_value())
        << "truncation to " << keep;
  }
}

TEST(ServiceClusterTest, MembershipChangeRemapsOnlyDepartedArcs) {
  // Consistent hashing's contract: removing a group moves only the keys it
  // owned; adding a group steals keys only for itself.
  GroupMap full(1, {1, 2, 3, 4});
  GroupMap without_three(2, {1, 2, 4});
  GroupMap with_five(3, {1, 2, 3, 4, 5});
  Rng rng(0x52454d41);
  size_t moved_to_five = 0;
  for (int i = 0; i < 4000; ++i) {
    uint64_t key = rng.Next();
    uint64_t owner = full.OwnerOfKey(key);
    if (owner != 3) {
      EXPECT_EQ(without_three.OwnerOfKey(key), owner) << "key " << key;
    }
    uint64_t grown = with_five.OwnerOfKey(key);
    EXPECT_TRUE(grown == owner || grown == 5) << "key " << key;
    moved_to_five += grown == 5 ? 1 : 0;
  }
  EXPECT_GT(moved_to_five, 0u);  // the new group actually owns arcs
}

// ----------------------------------------------------- redirects + adoption

TEST(ServiceClusterTest, StaleClientMapIsRedirectedAndBooksBalanceExactly) {
  ScratchDir dir("cluster-redirect");
  FrontendConfig base = ClusterBaseConfig();
  auto g1 = MakeGroup(1, dir.path, base);
  auto g2 = MakeGroup(2, dir.path, base);
  std::vector<ShardGroup*> groups{g1.get(), g2.get()};
  ASSERT_TRUE(g1->Start().ok());
  ASSERT_TRUE(g2->Start().ok());
  Router router(groups);
  router.Start();  // publishes version 1, 64 vnodes per group

  // A deliberately wrong map: different ring geometry (1 vnode per group)
  // so ownership disagrees for a good fraction of keys, and a version far
  // ahead of the router's so kGroupMap announcements are never adopted and
  // the staleness persists for the whole test.
  GroupMap stale(99, {1, 2}, /*vnodes_per_group=*/1);
  ClusterClient client(stale, LoopbackDialer(groups));
  ASSERT_TRUE(client.Connect().ok());

  constexpr uint64_t kReports = 120;
  for (uint64_t i = 0; i < kReports; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(3, i)).ok());
  }
  ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(30000)));
  client.Close();
  ASSERT_TRUE(g1->server().Shutdown().ok());
  ASSERT_TRUE(g2->server().Shutdown().ok());

  // The geometries must actually disagree somewhere, or this test pins
  // nothing.
  ASSERT_GT(client.stats().redirects_followed, 0u);
  EXPECT_EQ(client.stats().group_maps_adopted, 0u);
  ExpectClusterBooksBalance(groups, {client.stats()}, {client.FoldedClientStats()},
                            kReports);
  uint64_t routed = g1->frontend().stats().routed.load() +
                    g2->frontend().stats().routed.load();
  EXPECT_EQ(routed, kReports);  // each report accepted as owned exactly once
  ASSERT_TRUE(g1->Stop().ok());
  ASSERT_TRUE(g2->Stop().ok());
}

TEST(ServiceClusterTest, GroupMapAnnouncementIsAdoptedOnConnect) {
  ScratchDir dir("cluster-adopt");
  FrontendConfig base = ClusterBaseConfig();
  auto g1 = MakeGroup(1, dir.path, base);
  auto g2 = MakeGroup(2, dir.path, base);
  std::vector<ShardGroup*> groups{g1.get(), g2.get()};
  ASSERT_TRUE(g1->Start().ok());
  ASSERT_TRUE(g2->Start().ok());
  Router router(groups);
  router.Start();
  ASSERT_TRUE(router.PublishMap({1, 2}).ok());  // version 2, same ownership
  ASSERT_EQ(router.CurrentMap().version(), 2u);

  // The client starts one version behind; the HELLO-time announcement must
  // bring it current (exactly once — the second connection's announcement
  // is no longer newer).
  ClusterClient client(GroupMap(1, {1, 2}), LoopbackDialer(groups));
  ASSERT_TRUE(client.Connect().ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client.stats().group_maps_adopted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(client.stats().group_maps_adopted, 1u);

  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(4, i)).ok());
  }
  ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(30000)));
  client.Close();
  // Identical geometry: the adopted map changes nothing about ownership,
  // so no redirect was ever needed.
  EXPECT_EQ(client.stats().redirects_followed, 0u);
  EXPECT_GE(client.FoldedClientStats().group_maps_received, 2u);
  ASSERT_TRUE(g1->Stop().ok());
  ASSERT_TRUE(g2->Stop().ok());
}

// ------------------------------------------------ bit-identity across scale

// The acceptance scenario: for every group count, concurrent cluster
// clients deliver the same waves, and the coordinator-merged per-epoch
// histograms are bit-identical to the serial single-frontend run.
void ExpectMergedHistogramsMatchSerialForEveryGroupCount(ThresholdMode mode) {
  FrontendConfig base = ClusterBaseConfig();
  base.pipeline.shuffler.threshold_mode = mode;
  const std::string tag = "-mode" + std::to_string(static_cast<int>(mode));

  // Seal every wave once; every topology (and the serial baseline) ingests
  // the same sealed bytes.
  std::vector<std::vector<Bytes>> waves;
  {
    ShufflerFrontend key_holder(base);
    const Encoder encoder = key_holder.MakeEncoder();
    SecureRandom client_rng(ToBytes("cluster-e2e-clients"));
    for (int wave = 0; wave < 2; ++wave) {
      auto batch = encoder.BatchSealReports(WaveInputs(wave), client_rng);
      ASSERT_TRUE(batch.ok());
      waves.push_back(std::move(batch).value());
    }
  }
  ScratchDir serial_dir("cluster-e2e-serial" + tag);
  const auto expected = SerialBaseline(base, serial_dir.path, waves);
  ASSERT_EQ(expected.size(), waves.size());

  for (size_t num_groups : {1u, 2u, 4u}) {
    SCOPED_TRACE("groups=" + std::to_string(num_groups));
    ScratchDir dir("cluster-e2e-" + std::to_string(num_groups) + tag);
    std::vector<std::unique_ptr<ShardGroup>> owned;
    std::vector<ShardGroup*> groups;
    for (size_t g = 0; g < num_groups; ++g) {
      owned.push_back(MakeGroup(g + 1, dir.path, base));
      groups.push_back(owned.back().get());
      ASSERT_TRUE(groups.back()->Start().ok());
    }
    Router router(groups);
    router.Start();
    EpochCoordinator coordinator(groups);
    coordinator.Start();
    HistogramMerge merge(base.pipeline);

    constexpr int kClients = 3;
    uint64_t delivered = 0;
    std::vector<ClusterClientStats> client_stats;
    std::vector<FrameClientStats> folded_stats;
    for (size_t wave = 0; wave < waves.size(); ++wave) {
      const auto& sealed = waves[wave];
      delivered += sealed.size();
      std::vector<std::thread> threads;
      std::mutex stats_mu;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          ClusterClientConfig config;
          // Bases spaced past the group count so no two FrameClients in
          // this test ever share a (group, session) pair.
          config.session_id_base = 1 + (wave * kClients + static_cast<size_t>(c)) * 16;
          ClusterClient client(router.CurrentMap(), LoopbackDialer(groups), config);
          ASSERT_TRUE(client.Connect().ok());
          for (size_t i = static_cast<size_t>(c); i < sealed.size(); i += kClients) {
            ASSERT_TRUE(client.SendReport(sealed[i]).ok());
          }
          ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(60000)))
              << "outstanding=" << client.outstanding_total();
          client.Close();
          std::lock_guard<std::mutex> lock(stats_mu);
          client_stats.push_back(client.stats());
          folded_stats.push_back(client.FoldedClientStats());
        });
      }
      for (auto& thread : threads) {
        thread.join();
      }
      ASSERT_TRUE(coordinator.CutEpochAll().ok());
    }

    uint64_t merged_reports = 0;
    for (const auto& [epoch, histogram] : expected) {
      SCOPED_TRACE("epoch=" + std::to_string(epoch));
      auto merged = coordinator.MergeEpoch(epoch, merge, std::chrono::milliseconds(60000));
      ASSERT_TRUE(merged.ok()) << merged.error().message;
      EXPECT_TRUE(merged.value().complete());
      EXPECT_EQ(merged.value().groups_merged, num_groups);
      EXPECT_EQ(merged.value().merged.result.histogram, histogram);  // bit-identical
      merged_reports += merged.value().merged.reports;
    }
    EXPECT_EQ(merged_reports, delivered);
    EXPECT_EQ(coordinator.merge_stats().merge_shortfalls.load(), 0u);

    for (ShardGroup* group : groups) {
      ASSERT_TRUE(group->server().Shutdown().ok());
    }
    ExpectClusterBooksBalance(groups, client_stats, folded_stats, delivered);
    coordinator.Stop();
    for (ShardGroup* group : groups) {
      ASSERT_TRUE(group->Stop().ok());
    }
  }
}

TEST(ServiceClusterTest, MergedHistogramsMatchSerialForEveryGroupCount) {
  for (ThresholdMode mode : {ThresholdMode::kNaive, ThresholdMode::kNone}) {
    SCOPED_TRACE("threshold_mode=" + std::to_string(static_cast<int>(mode)));
    ExpectMergedHistogramsMatchSerialForEveryGroupCount(mode);
  }
}

// ---------------------------------------------- threshold before decrypt

// ESA's trust split, held across the cluster: the groups are pure
// shufflers and ship only ciphertext, and the merge thresholds on summed
// crowd counts before it decrypts.  The wave's "-rare" crowd (4 < T=20
// reports) holds valid inner boxes that must never be opened.
TEST(ServiceClusterTest, MergeNeverOpensASubThresholdInnerBox) {
  FrontendConfig base = ClusterBaseConfig();
  std::vector<Bytes> sealed;
  {
    ShufflerFrontend key_holder(base);
    const Encoder encoder = key_holder.MakeEncoder();
    SecureRandom client_rng(ToBytes("cluster-privacy-clients"));
    auto batch = encoder.BatchSealReports(WaveInputs(0), client_rng);
    ASSERT_TRUE(batch.ok());
    sealed = std::move(batch).value();
  }
  ScratchDir serial_dir("cluster-privacy-serial");
  const auto expected = SerialBaseline(base, serial_dir.path, {sealed});
  ASSERT_EQ(expected.size(), 1u);

  for (size_t num_groups : {1u, 2u, 4u}) {
    SCOPED_TRACE("groups=" + std::to_string(num_groups));
    ScratchDir dir("cluster-privacy-" + std::to_string(num_groups));
    std::vector<std::unique_ptr<ShardGroup>> owned;
    std::vector<ShardGroup*> groups;
    for (size_t g = 0; g < num_groups; ++g) {
      owned.push_back(MakeGroup(g + 1, dir.path, base));
      groups.push_back(owned.back().get());
      ASSERT_TRUE(groups.back()->Start().ok());
    }
    // Round-robin: every crowd is scattered across the groups.
    for (size_t i = 0; i < sealed.size(); ++i) {
      ASSERT_TRUE(groups[i % num_groups]->frontend().AcceptReport(sealed[i]).ok());
    }
    EpochCoordinator coordinator(groups);
    ASSERT_TRUE(coordinator.CutEpochAll().ok());

    std::vector<EpochPartial> partials;
    uint64_t shipped_reports = 0;
    for (ShardGroup* group : groups) {
      auto drained = group->frontend().DrainNextEpochPartial();
      ASSERT_TRUE(drained.ok()) << drained.error().message;
      ASSERT_TRUE(drained.value().has_value());
      for (const auto& [crowd_hash, crowd] : drained.value()->partial.crowds) {
        EXPECT_TRUE(crowd.value_counts.empty())
            << "group " << group->group_id() << " shipped plaintext";
      }
      shipped_reports += drained.value()->partial.reports;
      partials.push_back(std::move(drained.value()->partial));
    }
    EXPECT_EQ(shipped_reports, sealed.size());

    HistogramMerge merge(base.pipeline);
    auto merged = merge.Merge(/*epoch=*/0, partials);
    ASSERT_TRUE(merged.ok()) << merged.error().message;
    const PipelineResult& result = merged.value();
    EXPECT_EQ(result.histogram, expected.at(0));  // bit-identical to serial
    EXPECT_EQ(result.shuffler_stats.dropped_threshold, 4u);  // the rare crowd
    // The analyzer opened the forwarded reports and nothing else.
    EXPECT_EQ(result.analyzer_stats.received, result.shuffler_stats.forwarded);
    EXPECT_EQ(result.shuffler_stats.forwarded, sealed.size() - 4);
    for (ShardGroup* group : groups) {
      ASSERT_TRUE(group->Stop().ok());
    }
  }
}

// Under kRandomized, a crowd that loses members to noise keeps its
// smallest ciphertexts, so the merged result is a function of the report
// set alone — however the reports were split across groups and in whatever
// order the partials arrive — even for a crowd that mixes values and holds
// an inner box the analyzer cannot open.
TEST(ServiceClusterTest, RandomizedMergeIsIndependentOfTheSplit) {
  FrontendConfig base = ClusterBaseConfig();
  base.pipeline.shuffler.threshold_mode = ThresholdMode::kRandomized;
  Pipeline shuffler_side(base.pipeline);  // RunReportsPartial draws no randomness
  const Encoder encoder = shuffler_side.MakeEncoder();
  SecureRandom client_rng(ToBytes("cluster-randomized-clients"));
  std::vector<std::pair<std::string, std::string>> inputs = WaveInputs(0);
  const std::vector<std::pair<std::string, int>> mixed{
      {"mixed-a", 14}, {"mixed-b", 12}, {"mixed-c", 10}};
  for (const auto& [value, count] : mixed) {
    for (int i = 0; i < count; ++i) {
      inputs.emplace_back("mixed", value);
    }
  }
  auto batch = encoder.BatchSealReports(inputs, client_rng);
  ASSERT_TRUE(batch.ok());
  std::vector<Bytes> reports = std::move(batch).value();
  // The mixed crowd's 37th member: its outer layer opens, its inner box is
  // sealed to a stranger's analyzer key.
  EncoderConfig stranger = encoder.config();
  stranger.analyzer_public = KeyPair::Generate(client_rng).public_key;
  auto undecryptable = Encoder(stranger).EncodeValue("mixed-a", "mixed", client_rng);
  ASSERT_TRUE(undecryptable.ok());
  reports.push_back(std::move(undecryptable).value());

  HistogramMerge merge(base.pipeline);
  auto merge_split = [&](const std::vector<Bytes>& order, size_t num_groups,
                         bool reverse_partials) {
    std::vector<std::vector<Bytes>> shares(num_groups);
    for (size_t i = 0; i < order.size(); ++i) {
      shares[i % num_groups].push_back(order[i]);
    }
    std::vector<EpochPartial> partials;
    for (const auto& share : shares) {
      VectorRecordStream stream(share);
      auto partial = shuffler_side.RunReportsPartial(stream);
      EXPECT_TRUE(partial.ok());
      partials.push_back(std::move(partial).value());
    }
    if (reverse_partials) {
      std::reverse(partials.begin(), partials.end());
    }
    auto merged = merge.Merge(/*epoch=*/3, partials);
    EXPECT_TRUE(merged.ok());
    return std::move(merged).value();
  };

  const PipelineResult reference = merge_split(reports, 1, false);
  EXPECT_GT(reference.shuffler_stats.dropped_noise, 0u);
  // The mixed crowd (37 members) survived the threshold but lost members
  // to noise, so which of them survive is actually being decided.
  uint64_t mixed_survivors = reference.analyzer_stats.undecryptable;
  for (const auto& [value, count] : mixed) {
    auto it = reference.histogram.find(value);
    mixed_survivors += it != reference.histogram.end() ? it->second : 0;
  }
  EXPECT_GE(mixed_survivors, 20u);
  EXPECT_LT(mixed_survivors, 37u);

  std::vector<Bytes> permuted = reports;
  Rng permutation(0x5045524d);
  permutation.Shuffle(permuted);
  for (const auto& [order, num_groups, reverse] :
       {std::tuple{&reports, 2u, false}, std::tuple{&reports, 4u, false},
        std::tuple{&permuted, 4u, true}, std::tuple{&permuted, 2u, true}}) {
    SCOPED_TRACE("groups=" + std::to_string(num_groups) +
                 (order == &permuted ? " permuted" : "") + (reverse ? " reversed" : ""));
    const PipelineResult split = merge_split(*order, num_groups, reverse);
    EXPECT_EQ(split.histogram, reference.histogram);
    EXPECT_EQ(split.shuffler_stats.forwarded, reference.shuffler_stats.forwarded);
    EXPECT_EQ(split.shuffler_stats.dropped_noise, reference.shuffler_stats.dropped_noise);
    EXPECT_EQ(split.analyzer_stats.undecryptable, reference.analyzer_stats.undecryptable);
  }
}

// ------------------------------------------------- seeded kills, redirects

TEST(ServiceClusterTest, SeededConnectionKillsStillConvergeToSerialHistograms) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE("PROCHLO_CLUSTER_SEED=" + std::to_string(seed));
  FrontendConfig base = ClusterBaseConfig();

  std::vector<std::vector<Bytes>> waves;
  {
    ShufflerFrontend key_holder(base);
    const Encoder encoder = key_holder.MakeEncoder();
    SecureRandom client_rng(ToBytes("cluster-kill-clients"));
    auto batch = encoder.BatchSealReports(WaveInputs(0), client_rng);
    ASSERT_TRUE(batch.ok());
    waves.push_back(std::move(batch).value());
  }
  ScratchDir serial_dir("cluster-kill-serial");
  const auto expected = SerialBaseline(base, serial_dir.path, waves);

  ScratchDir dir("cluster-kill");
  std::vector<std::unique_ptr<ShardGroup>> owned;
  std::vector<ShardGroup*> groups;
  for (uint64_t g = 1; g <= 4; ++g) {
    owned.push_back(MakeGroup(g, dir.path, base));
    groups.push_back(owned.back().get());
    ASSERT_TRUE(groups.back()->Start().ok());
  }
  Router router(groups);
  router.Start();
  EpochCoordinator coordinator(groups);
  coordinator.Start();
  HistogramMerge merge(base.pipeline);

  const auto& sealed = waves[0];
  constexpr int kClients = 3;
  std::vector<std::thread> threads;
  std::vector<ClusterClientStats> client_stats;
  std::vector<FrameClientStats> folded_stats;
  std::mutex stats_mu;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Each client's dialer kills its first few connections per group at a
      // seeded byte budget; after that, healthy sockets guarantee progress.
      auto rng = std::make_shared<Rng>(seed ^ (0x9E3779B97F4A7C15ull *
                                               static_cast<uint64_t>(c + 1)));
      auto kills_left = std::make_shared<std::atomic<int>>(6);
      auto inner = LoopbackDialer(groups);
      ClusterClient::Dialer dialer =
          [rng, kills_left, inner](uint64_t gid) -> Result<std::unique_ptr<ByteStream>> {
        auto stream = inner(gid);
        if (!stream.ok()) {
          return stream;
        }
        if (kills_left->fetch_sub(1) > 0) {
          size_t budget = 200 + static_cast<size_t>(rng->NextBelow(3000));
          return std::unique_ptr<ByteStream>(std::make_unique<KillSwitchStream>(
              std::move(stream).value(), budget));
        }
        return stream;
      };
      ClusterClientConfig config;
      config.session_id_base = 1 + static_cast<uint64_t>(c) * 16;
      config.nack_retry_jitter_seed = seed + static_cast<uint64_t>(c);
      ClusterClient client(router.CurrentMap(), dialer, config);
      ASSERT_TRUE(client.Connect().ok());
      // Failed sends stay owned by the per-group client; Reconnect replays.
      for (size_t i = static_cast<size_t>(c); i < sealed.size(); i += kClients) {
        (void)client.SendReport(sealed[i]);  // failed sends replay on Reconnect
      }
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (!client.WaitForAllAcked(std::chrono::milliseconds(200))) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "outstanding=" << client.outstanding_total();
        // A reconnect may itself be killed mid-replay (the budget applies to
        // the new stream too); the reports stay owned and the next loop
        // iteration tries again.
        (void)client.Reconnect();  // may be killed mid-replay; loop retries
      }
      client.Close();
      std::lock_guard<std::mutex> lock(stats_mu);
      client_stats.push_back(client.stats());
      folded_stats.push_back(client.FoldedClientStats());
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_TRUE(coordinator.CutEpochAll().ok());

  uint64_t merged_reports = 0;
  for (const auto& [epoch, histogram] : expected) {
    auto merged = coordinator.MergeEpoch(epoch, merge, std::chrono::milliseconds(60000));
    ASSERT_TRUE(merged.ok()) << merged.error().message;
    EXPECT_TRUE(merged.value().complete());
    EXPECT_EQ(merged.value().merged.result.histogram, histogram);
    merged_reports += merged.value().merged.reports;
  }
  EXPECT_EQ(merged_reports, sealed.size());

  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->server().Shutdown().ok());
  }
  ExpectClusterBooksBalance(groups, client_stats, folded_stats, sealed.size());
  coordinator.Stop();
  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->Stop().ok());
  }
}

// --------------------------------------------- mid-epoch crash + failover

TEST(ServiceClusterTest, GroupCrashMidEpochFailsOverByRedirectWithoutLossOrDuplication) {
  FrontendConfig base = ClusterBaseConfig();
  std::vector<std::vector<Bytes>> waves;
  {
    ShufflerFrontend key_holder(base);
    const Encoder encoder = key_holder.MakeEncoder();
    SecureRandom client_rng(ToBytes("cluster-crash-clients"));
    auto batch = encoder.BatchSealReports(WaveInputs(0), client_rng);
    ASSERT_TRUE(batch.ok());
    waves.push_back(std::move(batch).value());
  }
  ScratchDir serial_dir("cluster-crash-serial");
  const auto expected = SerialBaseline(base, serial_dir.path, waves);
  const auto& sealed = waves[0];

  ScratchDir dir("cluster-crash");
  WedgeFs wedge;
  auto g1 = MakeGroup(1, dir.path, base);
  auto g2 = MakeGroup(2, dir.path, base);
  auto g3 = MakeGroup(3, dir.path, base, &wedge);
  std::vector<ShardGroup*> groups{g1.get(), g2.get(), g3.get()};
  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->Start().ok());
  }
  Router router(groups);
  router.Start();
  EpochCoordinator coordinator(groups);
  coordinator.Start();
  HistogramMerge merge(base.pipeline);

  ClusterClientConfig config;
  config.nack_retry_delay = std::chrono::milliseconds(1);
  config.nack_retry_max_delay = std::chrono::milliseconds(8);
  ClusterClient client(router.CurrentMap(), LoopbackDialer(groups), config);
  ASSERT_TRUE(client.Connect().ok());

  // First half lands while every group is healthy; group 3 durably spools
  // its share.
  const size_t half = sealed.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(client.SendReport(sealed[i]).ok());
  }
  ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(30000)));
  const uint64_t spooled_at_three = g3->frontend().stats().reports_accepted.load();

  // Mid-epoch, group 3's disk dies.  Its share of the second half fails
  // ingestion and NACK-retries; nothing is half-acked.
  wedge.Wedge();
  for (size_t i = half; i < sealed.size(); ++i) {
    ASSERT_TRUE(client.SendReport(sealed[i]).ok());
  }
  // Failover: hand group 3's arcs to the survivors.  The retried reports
  // now claim kNew at group 3, fail its route check, and are redirected to
  // their new owners — exactly-once end to end, because only durable
  // ingests were ever acked.
  ASSERT_TRUE(router.PublishMap({1, 2}).ok());
  ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(60000)))
      << "outstanding=" << client.outstanding_total();
  client.Close();

  // Heal the disk (the epoch's pre-crash spool is intact on it) and merge
  // across all three groups: group 3 still contributes what it durably
  // ingested before the crash.
  wedge.Heal();
  ASSERT_TRUE(coordinator.CutEpochAll().ok());
  uint64_t merged_reports = 0;
  for (const auto& [epoch, histogram] : expected) {
    auto merged = coordinator.MergeEpoch(epoch, merge, std::chrono::milliseconds(60000));
    ASSERT_TRUE(merged.ok()) << merged.error().message;
    EXPECT_TRUE(merged.value().complete());
    EXPECT_EQ(merged.value().merged.result.histogram, histogram);  // bit-identical
    merged_reports += merged.value().merged.reports;
  }
  EXPECT_EQ(merged_reports, sealed.size());  // zero lost, zero duplicated

  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->server().Shutdown().ok());
  }
  EXPECT_GT(client.stats().redirects_followed, 0u);
  EXPECT_EQ(g3->frontend().stats().reports_accepted.load(), spooled_at_three);
  ExpectClusterBooksBalance(groups, {client.stats()}, {client.FoldedClientStats()},
                            sealed.size());
  coordinator.Stop();
  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->Stop().ok());
  }
}

// ------------------------------------------------------ barrier accounting

TEST(ServiceClusterTest, MergeTimeoutAccountsShortfallPerMissingGroup) {
  ScratchDir dir("cluster-shortfall");
  FrontendConfig base = ClusterBaseConfig();
  auto g1 = MakeGroup(1, dir.path, base);
  auto g2 = MakeGroup(2, dir.path, base);
  std::vector<ShardGroup*> groups{g1.get(), g2.get()};
  ASSERT_TRUE(g1->Start().ok());
  ASSERT_TRUE(g2->Start().ok());
  EpochCoordinator coordinator(groups);
  coordinator.Start();
  HistogramMerge merge(base.pipeline);

  // Only group 1 seals epoch 0; group 2 is still accumulating it (its
  // current epoch has not advanced), so the barrier must wait, then time
  // out with the shortfall accounted — never silently dropped.
  const Encoder encoder = g1->frontend().MakeEncoder();
  SecureRandom rng(ToBytes("shortfall"));
  for (int i = 0; i < 30; ++i) {
    auto report = encoder.EncodeValue("value", "crowd", rng);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(g1->frontend().AcceptReport(std::move(report).value()).ok());
  }
  ASSERT_TRUE(g1->frontend().CutEpoch().ok());

  // Generous enough that draining group 1's partial (WAL checkpoint fsyncs
  // included) finishes inside the window even on a loaded box, so the
  // barrier demonstrably WAITS for group 2 before timing out.
  auto merged = coordinator.MergeEpoch(0, merge, std::chrono::milliseconds(500));
  ASSERT_TRUE(merged.ok()) << merged.error().message;
  EXPECT_FALSE(merged.value().complete());
  EXPECT_EQ(merged.value().missing_groups, std::vector<uint64_t>{2});
  EXPECT_EQ(merged.value().groups_merged, 1u);
  EXPECT_EQ(merged.value().merged.reports, 30u);
  EXPECT_EQ(coordinator.merge_stats().merge_waits.load(), 1u);
  EXPECT_EQ(coordinator.merge_stats().merge_shortfalls.load(), 1u);
  coordinator.Stop();
  ASSERT_TRUE(g1->Stop().ok());
  ASSERT_TRUE(g2->Stop().ok());
}

TEST(ServiceClusterTest, EmptyEpochMergesAsEmptyContributions) {
  // A cluster-wide cut with zero reports: every group force-seals an empty
  // epoch, and the merge barrier completes with an empty histogram instead
  // of waiting for contributions that will never be non-empty.
  ScratchDir dir("cluster-empty");
  FrontendConfig base = ClusterBaseConfig();
  auto g1 = MakeGroup(1, dir.path, base);
  auto g2 = MakeGroup(2, dir.path, base);
  std::vector<ShardGroup*> groups{g1.get(), g2.get()};
  ASSERT_TRUE(g1->Start().ok());
  ASSERT_TRUE(g2->Start().ok());
  EpochCoordinator coordinator(groups);
  coordinator.Start();
  HistogramMerge merge(base.pipeline);

  ASSERT_TRUE(coordinator.CutEpochAll().ok());
  auto merged = coordinator.MergeEpoch(0, merge, std::chrono::milliseconds(10000));
  ASSERT_TRUE(merged.ok()) << merged.error().message;
  EXPECT_TRUE(merged.value().complete());
  EXPECT_EQ(merged.value().merged.reports, 0u);
  EXPECT_TRUE(merged.value().merged.result.histogram.empty());
  EXPECT_EQ(coordinator.merge_stats().merge_shortfalls.load(), 0u);
  coordinator.Stop();
  ASSERT_TRUE(g1->Stop().ok());
  ASSERT_TRUE(g2->Stop().ok());
}

}  // namespace
}  // namespace prochlo
