// Threaded vs. sequential determinism: for a fixed PipelineConfig::seed the
// analyzer must see the same histogram no matter how many worker threads the
// pipeline uses, and the Stash Shuffle must emit bit-identical output with
// and without a pool (its randomness is forked per fixed-size group, not per
// thread).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/report.h"
#include "src/sgx/attestation.h"
#include "src/shuffle/stash_shuffle.h"
#include "src/util/thread_pool.h"

namespace prochlo {
namespace {

std::vector<std::string> SyntheticValues() {
  std::vector<std::string> values;
  // A few crowds safely above the threshold, one below it.
  for (int i = 0; i < 120; ++i) values.push_back("popular-a");
  for (int i = 0; i < 80; ++i) values.push_back("popular-b");
  for (int i = 0; i < 50; ++i) values.push_back("popular-c");
  for (int i = 0; i < 5; ++i) values.push_back("rare");
  return values;
}

PipelineConfig BaseConfig(size_t num_threads) {
  PipelineConfig config;
  config.shuffler.threshold_mode = ThresholdMode::kRandomized;
  config.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.num_threads = num_threads;
  config.seed = "determinism-test";
  return config;
}

TEST(DeterminismTest, ThreadedPipelineMatchesSequentialHistogram) {
  auto values = SyntheticValues();

  Pipeline sequential(BaseConfig(0));
  auto seq = sequential.RunValues(values);
  ASSERT_TRUE(seq.ok()) << seq.error().message;

  Pipeline threaded(BaseConfig(4));
  auto par = threaded.RunValues(values);
  ASSERT_TRUE(par.ok()) << par.error().message;

  EXPECT_FALSE(seq.value().histogram.empty());
  EXPECT_EQ(seq.value().histogram, par.value().histogram);
}

TEST(DeterminismTest, ThreadedBlindedPipelineMatchesSequentialHistogram) {
  auto values = SyntheticValues();

  PipelineConfig seq_config = BaseConfig(0);
  seq_config.use_blinded_crowd_ids = true;
  Pipeline sequential(seq_config);
  auto seq = sequential.RunValues(values);
  ASSERT_TRUE(seq.ok()) << seq.error().message;

  PipelineConfig par_config = BaseConfig(4);
  par_config.use_blinded_crowd_ids = true;
  Pipeline threaded(par_config);
  auto par = threaded.RunValues(values);
  ASSERT_TRUE(par.ok()) << par.error().message;

  EXPECT_FALSE(seq.value().histogram.empty());
  EXPECT_EQ(seq.value().histogram, par.value().histogram);
}

// Run's client side forks one DRBG per fixed-size chunk of inputs, so the
// sealed reports — and everything downstream of them — depend on the seed
// alone: sequential, a private 3-worker pool and the process pool agree
// byte for byte.  Each input carries a unique value inside its crowd, so
// the kRandomized histogram names exactly which reports survived.
TEST(DeterminismTest, RunIsIndependentOfThePoolSize) {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (int i = 0; i < 600; ++i) {  // two full encode chunks and a partial one
    const std::string crowd = "crowd-" + std::to_string(i % 7);
    inputs.emplace_back(crowd, crowd + "/" + std::to_string(i));
  }

  std::vector<Bytes> sealed;
  std::optional<PipelineResult> first;
  for (size_t threads : {size_t{0}, size_t{3}, kProcessPoolThreads}) {
    SCOPED_TRACE(threads == kProcessPoolThreads ? "default" : std::to_string(threads));
    auto reports = Pipeline(BaseConfig(threads)).Encode(inputs);
    ASSERT_TRUE(reports.ok()) << reports.error().message;
    ASSERT_EQ(reports.value().size(), inputs.size());
    auto result = Pipeline(BaseConfig(threads)).Run(inputs);
    ASSERT_TRUE(result.ok()) << result.error().message;
    if (!first.has_value()) {
      sealed = std::move(reports).value();
      first = std::move(result).value();
      EXPECT_GT(first->shuffler_stats.dropped_noise, 0u);
      continue;
    }
    EXPECT_EQ(reports.value(), sealed);
    EXPECT_EQ(result.value().histogram, first->histogram);
    EXPECT_EQ(result.value().shuffler_stats.forwarded, first->shuffler_stats.forwarded);
    EXPECT_EQ(result.value().shuffler_stats.dropped_noise, first->shuffler_stats.dropped_noise);
  }
}

TEST(DeterminismTest, StashShuffleOutputIsPoolInvariant) {
  auto run = [](ThreadPool* pool) {
    SecureRandom rng(ToBytes("stash-determinism"));
    IntelRootAuthority intel(rng);
    auto platform = intel.ProvisionPlatform(rng);
    Enclave enclave(EnclaveConfig{}, platform, rng);

    std::vector<Bytes> input;
    for (int i = 0; i < 500; ++i) {
      input.push_back(Bytes(32, static_cast<uint8_t>(i % 251)));
      input.back()[0] = static_cast<uint8_t>(i >> 8);
      input.back()[1] = static_cast<uint8_t>(i & 0xff);
    }

    StashShuffler::Options options;
    options.pool = pool;
    StashShuffler shuffler(enclave, std::move(options));
    SecureRandom shuffle_rng(ToBytes("stash-determinism-run"));
    auto result = shuffler.Shuffle(input, shuffle_rng);
    EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
    return result.ok() ? result.value() : std::vector<Bytes>{};
  };

  std::vector<Bytes> seq = run(nullptr);
  ThreadPool pool(4);
  std::vector<Bytes> par = run(&pool);
  // Bit-identical, including order: the permutation itself must not depend
  // on the thread count.
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace prochlo
