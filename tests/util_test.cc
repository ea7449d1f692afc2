// Tests for the util substrate: bytes, RNG statistics, serialization, and the
// thread pool.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/mpsc_ring.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace prochlo {
namespace {

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(HexEncode(data), "0001abff7f");
  EXPECT_EQ(HexDecode("0001abff7f"), data);
}

TEST(BytesTest, HexDecodeRejectsMalformed) {
  EXPECT_TRUE(HexDecode("abc").empty());   // odd length
  EXPECT_TRUE(HexDecode("zz").empty());    // non-hex
  EXPECT_TRUE(HexDecode("").empty());      // empty is empty
}

TEST(BytesTest, ConstantTimeEquals) {
  Bytes a = ToBytes("same");
  Bytes b = ToBytes("same");
  Bytes c = ToBytes("diff");
  EXPECT_TRUE(ConstantTimeEquals(a, b));
  EXPECT_FALSE(ConstantTimeEquals(a, c));
  EXPECT_FALSE(ConstantTimeEquals(a, ToBytes("longer value")));
}

TEST(BytesTest, XorInto) {
  Bytes dst = {0xff, 0x00, 0x55};
  Bytes src = {0x0f, 0xf0, 0x55};
  XorInto(src, dst);
  EXPECT_EQ(dst, (Bytes{0xf0, 0xf0, 0x00}));
}

TEST(StatusTest, ResultHoldsValueOrError) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad(Error{"boom"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next());
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.NextBelow(kBuckets)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(2024);
  constexpr int kDraws = 200000;
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < kDraws; ++i) {
    double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / kDraws;
  double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, RoundedTruncatedGaussianNeverNegative) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.NextRoundedTruncatedGaussian(1.0, 5.0), 0);
  }
}

TEST(RngTest, RoundedTruncatedGaussianMean) {
  // With D=10, sigma=2 (the paper's §5 settings) truncation is negligible and
  // the mean should be ~10.
  Rng rng(6);
  constexpr int kDraws = 100000;
  int64_t total = 0;
  for (int i = 0; i < kDraws; ++i) {
    total += rng.NextRoundedTruncatedGaussian(10.0, 2.0);
  }
  EXPECT_NEAR(static_cast<double>(total) / kDraws, 10.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  auto original = items;
  rng.Shuffle(items);
  EXPECT_NE(items, original);  // astronomically unlikely to match
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

TEST(RngTest, ShuffleUniformityOnThreeElements) {
  // All 6 permutations of {0,1,2} should be roughly equally likely.
  Rng rng(9);
  std::map<std::vector<int>, int> counts;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    std::vector<int> v = {0, 1, 2};
    rng.Shuffle(v);
    counts[v]++;
  }
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [perm, count] : counts) {
    EXPECT_NEAR(count, kDraws / 6, 500);
  }
}

TEST(SerializationTest, RoundTripAllTypes) {
  Writer w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutLengthPrefixed(ToBytes("payload"));
  w.PutString("a string");

  Reader r(w.data());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  Bytes blob;
  std::string str;
  EXPECT_TRUE(r.GetU8(&u8));
  EXPECT_TRUE(r.GetU16(&u16));
  EXPECT_TRUE(r.GetU32(&u32));
  EXPECT_TRUE(r.GetU64(&u64));
  EXPECT_TRUE(r.GetLengthPrefixed(&blob));
  EXPECT_TRUE(r.GetString(&str));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(blob, ToBytes("payload"));
  EXPECT_EQ(str, "a string");
}

TEST(SerializationTest, ReaderFailsSoftlyOnTruncation) {
  Writer w;
  w.PutU64(42);
  Reader r(ByteSpan(w.data().data(), 4));  // cut in half
  uint64_t v = 0;
  EXPECT_FALSE(r.GetU64(&v));
  EXPECT_FALSE(r.ok());
  uint8_t b;
  EXPECT_FALSE(r.GetU8(&b));  // stays failed
}

TEST(SerializationTest, LengthPrefixBeyondBufferFails) {
  Writer w;
  w.PutU32(1000);  // claims 1000 bytes follow
  w.PutBytes(ToBytes("short"));
  Reader r(w.data());
  Bytes out;
  EXPECT_FALSE(r.GetLengthPrefixed(&out));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter++; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i]++; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
}

// Runs `body` on its own thread and aborts the test binary if it has not
// returned within a minute.  The bound only turns a deadlock into a
// failure instead of a hang (a deadlocked pool cannot be torn down); the
// properties themselves are established with latches, not timings.
void ExpectCompletes(const std::function<void()>& body) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    body();
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "deadlock: ThreadPool call did not return\n");
    std::abort();
  }
  runner.join();
}

// The nest-safety and independence properties, at pool sizes 1 and 4.
class ThreadPoolSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ThreadPoolSizeTest, NestedParallelForCompletes) {
  ThreadPool pool(GetParam());
  constexpr size_t kFan = 5;
  std::vector<std::atomic<int>> hits(kFan * kFan * kFan);
  ExpectCompletes([&] {
    pool.ParallelFor(kFan, [&](size_t i) {
      pool.ParallelFor(kFan, [&](size_t j) {
        pool.ParallelFor(kFan, [&](size_t k) { hits[(i * kFan + j) * kFan + k]++; });
      });
    });
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST_P(ThreadPoolSizeTest, ParallelForFromASubmittedTaskCompletes) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(100);
  ExpectCompletes([&] {
    std::latch task_done(1);
    pool.Submit([&] {
      pool.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
      task_done.count_down();
    });
    task_done.wait();
    pool.Wait();
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST_P(ThreadPoolSizeTest, ConcurrentCallersWaitOnlyForTheirOwnIndices) {
  const size_t workers = GetParam();
  ThreadPool pool(workers);
  // Caller C's indices block until released.  Its runners — every worker
  // plus C's own thread — each claim one and block in it.
  const size_t blocked_indices = 4 * (workers + 1);
  std::latch all_runners_blocked(static_cast<std::ptrdiff_t>(workers + 1));
  std::latch release_c(1);
  std::atomic<size_t> c_entered{0};
  std::vector<std::atomic<int>> c_hits(blocked_indices);
  std::atomic<bool> c_returned{false};
  std::thread caller_c([&] {
    pool.ParallelFor(blocked_indices, [&](size_t i) {
      if (c_entered.fetch_add(1) < workers + 1) {
        all_runners_blocked.count_down();
      }
      release_c.wait();
      c_hits[i]++;
    });
    c_returned = true;
  });
  ExpectCompletes([&] { all_runners_blocked.wait(); });

  // With every worker stuck in C's job, A and B still finish: each runs
  // its own indices and waits for nothing else.
  std::vector<std::atomic<int>> a_hits(64);
  std::vector<std::atomic<int>> b_hits(64);
  ExpectCompletes([&] {
    std::thread caller_a([&] { pool.ParallelFor(a_hits.size(), [&](size_t i) { a_hits[i]++; }); });
    std::thread caller_b([&] { pool.ParallelFor(b_hits.size(), [&](size_t i) { b_hits[i]++; }); });
    caller_a.join();
    caller_b.join();
  });
  for (size_t i = 0; i < a_hits.size(); ++i) {
    EXPECT_EQ(a_hits[i].load(), 1);
    EXPECT_EQ(b_hits[i].load(), 1);
  }
  EXPECT_FALSE(c_returned.load());

  release_c.count_down();
  caller_c.join();
  EXPECT_TRUE(c_returned.load());
  for (const auto& h : c_hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST_P(ThreadPoolSizeTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{20}, size_t{21}, size_t{1000},
                   size_t{4097}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](size_t i) { hits[i]++; });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ThreadPoolSizeTest, ::testing::Values(1, 4));

TEST(ThreadPoolTest, ProcessPoolIsOneInstanceSizedToTheAffinityMask) {
  ThreadPool& pool = ThreadPool::Process();
  EXPECT_EQ(&pool, &ThreadPool::Process());
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const size_t cpus = static_cast<size_t>(CPU_COUNT(&set));
  EXPECT_EQ(pool.num_threads(), std::max<size_t>(1, cpus - 1));
}

TEST(MpscRingTest, FifoSingleThreaded) {
  MpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush(int{i}));
  }
  int overflow = 99;
  EXPECT_FALSE(ring.TryPush(std::move(overflow)));
  EXPECT_EQ(overflow, 99);  // a rejected push leaves the value untouched
  for (int i = 0; i < 4; ++i) {
    auto got = ring.TryPop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(MpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  MpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  MpscRing<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(MpscRingTest, WrapsAroundManyLaps) {
  MpscRing<int> ring(2);
  for (int lap = 0; lap < 1000; ++lap) {
    EXPECT_TRUE(ring.TryPush(int{lap}));
    auto got = ring.TryPop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, lap);
  }
}

TEST(MpscRingTest, ConcurrentProducersDeliverEverythingExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  MpscRing<uint64_t> ring(64);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        uint64_t value = static_cast<uint64_t>(p) << 32 | static_cast<uint64_t>(i);
        while (!ring.TryPush(std::move(value))) {
          std::this_thread::yield();
        }
      }
    });
  }
  // Single consumer: per-producer sequences must arrive in order, every
  // value exactly once, across many ring laps under contention.
  std::vector<uint64_t> next(kProducers, 0);
  size_t received = 0;
  while (received < static_cast<size_t>(kProducers) * kPerProducer) {
    auto got = ring.TryPop();
    if (!got.has_value()) {
      std::this_thread::yield();
      continue;
    }
    int p = static_cast<int>(*got >> 32);
    uint64_t i = *got & 0xFFFFFFFFu;
    ASSERT_LT(p, kProducers);
    EXPECT_EQ(i, next[p]);  // FIFO per producer
    next[p] = i + 1;
    received++;
  }
  for (auto& producer : producers) {
    producer.join();
  }
  EXPECT_FALSE(ring.TryPop().has_value());
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[p], static_cast<uint64_t>(kPerProducer));
  }
}

TEST(MpscRingTest, MoveOnlyPayloads) {
  MpscRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(7)));
  auto got = ring.TryPop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(**got, 7);
}

}  // namespace
}  // namespace prochlo
