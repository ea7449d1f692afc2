// Tests for the core ESA layer: report format, encoder, shuffler semantics,
// blind two-shuffler protocol, and analyzer recovery.
#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/core/blind_shuffler.h"
#include "src/core/encoder.h"
#include "src/core/fragment.h"
#include "src/core/pipeline.h"
#include "src/core/report.h"
#include "src/core/shuffler.h"

namespace prochlo {
namespace {

struct CoreFixture {
  SecureRandom rng{ToBytes("core-test")};
  Rng noise_rng{42};
  KeyPair shuffler_keys{KeyPair::Generate(rng)};
  KeyPair analyzer_keys{KeyPair::Generate(rng)};
};

TEST(ReportTest, PadUnpadRoundTrip) {
  auto padded = PadPayload(ToBytes("hello"), 64);
  ASSERT_TRUE(padded.has_value());
  EXPECT_EQ(padded->size(), 64u);
  auto unpadded = UnpadPayload(*padded);
  ASSERT_TRUE(unpadded.has_value());
  EXPECT_EQ(*unpadded, ToBytes("hello"));
}

TEST(ReportTest, PadRejectsOversizedPayload) {
  EXPECT_FALSE(PadPayload(Bytes(64, 1), 64).has_value());  // needs 4-byte header
  EXPECT_TRUE(PadPayload(Bytes(60, 1), 64).has_value());
}

TEST(ReportTest, SealOpenRoundTrip) {
  CoreFixture fx;
  CrowdPart crowd;
  crowd.mode = CrowdIdMode::kPlainHash;
  crowd.plain_hash = CrowdIdHash("my-crowd");
  auto padded = PadPayload(ToBytes("payload"), 64);
  Bytes report = SealReport(crowd, *padded, fx.shuffler_keys.public_key,
                            fx.analyzer_keys.public_key, fx.rng);

  auto view = OpenReport(fx.shuffler_keys, report);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->crowd.plain_hash, CrowdIdHash("my-crowd"));

  auto inner = OpenInnerBox(fx.analyzer_keys, view->inner_box);
  ASSERT_TRUE(inner.has_value());
  auto payload = UnpadPayload(*inner);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, ToBytes("payload"));
}

TEST(ReportTest, ShufflerCannotReadInnerLayer) {
  CoreFixture fx;
  CrowdPart crowd;
  crowd.plain_hash = 1;
  auto padded = PadPayload(ToBytes("secret"), 64);
  Bytes report = SealReport(crowd, *padded, fx.shuffler_keys.public_key,
                            fx.analyzer_keys.public_key, fx.rng);
  auto view = OpenReport(fx.shuffler_keys, report);
  ASSERT_TRUE(view.has_value());
  // Opening the inner box with the shuffler's key must fail.
  EXPECT_FALSE(OpenInnerBox(fx.shuffler_keys, view->inner_box).has_value());
}

TEST(ReportTest, WrongShufflerKeyFails) {
  CoreFixture fx;
  KeyPair other = KeyPair::Generate(fx.rng);
  CrowdPart crowd;
  crowd.plain_hash = 1;
  auto padded = PadPayload(ToBytes("x"), 64);
  Bytes report = SealReport(crowd, *padded, fx.shuffler_keys.public_key,
                            fx.analyzer_keys.public_key, fx.rng);
  EXPECT_FALSE(OpenReport(other, report).has_value());
}

TEST(ReportTest, ReportsAreEqualSized) {
  CoreFixture fx;
  CrowdPart crowd;
  crowd.plain_hash = 7;
  auto short_payload = PadPayload(ToBytes("a"), 64);
  auto long_payload = PadPayload(ToBytes("a considerably longer value"), 64);
  Bytes r1 = SealReport(crowd, *short_payload, fx.shuffler_keys.public_key,
                        fx.analyzer_keys.public_key, fx.rng);
  Bytes r2 = SealReport(crowd, *long_payload, fx.shuffler_keys.public_key,
                        fx.analyzer_keys.public_key, fx.rng);
  EXPECT_EQ(r1.size(), r2.size());
  EXPECT_EQ(r1.size(), ReportWireSize(64, CrowdIdMode::kPlainHash));
}

TEST(EncoderTest, AttestationGatedKeyExtraction) {
  SecureRandom rng(ToBytes("encoder-attest"));
  IntelRootAuthority intel(rng);
  auto platform = intel.ProvisionPlatform(rng);
  Enclave enclave(EnclaveConfig{}, platform, rng);
  auto key = VerifyShufflerAttestation(enclave.quote(), MeasureCode("prochlo-shuffler"),
                                       intel.root_public());
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key.value(), enclave.keys().public_key);

  auto wrong = VerifyShufflerAttestation(enclave.quote(), MeasureCode("other-code"),
                                         intel.root_public());
  EXPECT_FALSE(wrong.ok());
}

std::vector<Bytes> EncodeValues(Encoder& encoder, const std::vector<std::string>& values,
                                SecureRandom& rng) {
  std::vector<Bytes> reports;
  for (const auto& value : values) {
    auto report = encoder.EncodeValue(value, rng);
    EXPECT_TRUE(report.ok());
    reports.push_back(std::move(report).value());
  }
  return reports;
}

TEST(ShufflerTest, NaiveThresholdDropsSmallCrowds) {
  CoreFixture fx;
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kNaive;
  config.policy.threshold = 3;
  Shuffler shuffler(fx.shuffler_keys, config);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = fx.shuffler_keys.public_key;
  encoder_config.analyzer_public = fx.analyzer_keys.public_key;
  Encoder encoder(encoder_config);

  // "common" x5, "rare" x2.
  std::vector<std::string> values = {"common", "common", "common", "common", "common",
                                     "rare", "rare"};
  auto reports = EncodeValues(encoder, values, fx.rng);
  auto forwarded = shuffler.ProcessBatch(reports, fx.rng, fx.noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded.value().size(), 5u);
  EXPECT_EQ(shuffler.stats().crowds_seen, 2u);
  EXPECT_EQ(shuffler.stats().crowds_forwarded, 1u);
  EXPECT_EQ(shuffler.stats().dropped_threshold, 2u);

  Analyzer analyzer(fx.analyzer_keys);
  auto payloads = analyzer.DecryptBatch(forwarded.value());
  auto histogram = Analyzer::HistogramOfValues(payloads);
  EXPECT_EQ(histogram.size(), 1u);
  EXPECT_EQ(histogram.at("common"), 5u);
}

TEST(ShufflerTest, RandomizedThresholdingDropsNoise) {
  CoreFixture fx;
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kRandomized;
  config.policy = ThresholdPolicy{5, 3, 1};  // T=5, drop ~3 per crowd
  Shuffler shuffler(fx.shuffler_keys, config);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = fx.shuffler_keys.public_key;
  encoder_config.analyzer_public = fx.analyzer_keys.public_key;
  Encoder encoder(encoder_config);

  std::vector<std::string> values(30, "popular");
  auto reports = EncodeValues(encoder, values, fx.rng);
  auto forwarded = shuffler.ProcessBatch(reports, fx.rng, fx.noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_LT(forwarded.value().size(), 30u);           // some dropped as noise
  EXPECT_GE(forwarded.value().size(), 20u);           // but most survive
  EXPECT_GT(shuffler.stats().dropped_noise, 0u);
}

TEST(ShufflerTest, MinBatchSizeEnforced) {
  CoreFixture fx;
  ShufflerConfig config;
  config.min_batch_size = 10;
  Shuffler shuffler(fx.shuffler_keys, config);
  std::vector<Bytes> tiny_batch(3, Bytes(100, 0));
  EXPECT_FALSE(shuffler.ProcessBatch(tiny_batch, fx.rng, fx.noise_rng).ok());
}

TEST(ShufflerTest, MalformedReportsAreCounted) {
  CoreFixture fx;
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kNone;
  Shuffler shuffler(fx.shuffler_keys, config);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = fx.shuffler_keys.public_key;
  encoder_config.analyzer_public = fx.analyzer_keys.public_key;
  Encoder encoder(encoder_config);
  auto reports = EncodeValues(encoder, {"a", "b"}, fx.rng);
  reports.push_back(Bytes(reports[0].size(), 0xaa));  // garbage
  auto forwarded = shuffler.ProcessBatch(reports, fx.rng, fx.noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded.value().size(), 2u);
  EXPECT_EQ(shuffler.stats().malformed, 1u);
}

TEST(BlindShufflerTest, EndToEndBlindThresholding) {
  SecureRandom rng(ToBytes("blind-test"));
  Rng noise_rng(7);
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kNaive;
  config.policy.threshold = 3;
  BlindShufflerPair pair(rng, config);
  KeyPair analyzer_keys = KeyPair::Generate(rng);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = pair.shuffler1_public();
  encoder_config.shuffler2_public = pair.shuffler2_elgamal_public();
  encoder_config.analyzer_public = analyzer_keys.public_key;
  encoder_config.crowd_mode = CrowdIdMode::kBlinded;
  Encoder encoder(encoder_config);

  std::vector<std::string> values = {"frequent", "frequent", "frequent", "frequent",
                                     "one-off"};
  std::vector<Bytes> reports;
  for (const auto& value : values) {
    auto report = encoder.EncodeValue(value, rng);
    ASSERT_TRUE(report.ok());
    reports.push_back(std::move(report).value());
  }

  auto forwarded = pair.ProcessBatch(reports, rng, noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded.value().size(), 4u);  // "one-off" crowd dropped
  EXPECT_EQ(pair.stats2().crowds_seen, 2u);
  EXPECT_EQ(pair.stats2().crowds_forwarded, 1u);

  Analyzer analyzer(analyzer_keys);
  auto payloads = analyzer.DecryptBatch(forwarded.value());
  auto histogram = Analyzer::HistogramOfValues(payloads);
  EXPECT_EQ(histogram.at("frequent"), 4u);
}

TEST(BlindShufflerTest, PlainHashReportsRejectedInBlindedPipeline) {
  SecureRandom rng(ToBytes("blind-reject"));
  Rng noise_rng(7);
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kNone;
  BlindShufflerPair pair(rng, config);
  KeyPair analyzer_keys = KeyPair::Generate(rng);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = pair.shuffler1_public();
  encoder_config.analyzer_public = analyzer_keys.public_key;
  encoder_config.crowd_mode = CrowdIdMode::kPlainHash;  // wrong mode
  Encoder encoder(encoder_config);
  auto report = encoder.EncodeValue("x", rng);
  ASSERT_TRUE(report.ok());
  auto forwarded = pair.ProcessBatch({report.value()}, rng, noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_TRUE(forwarded.value().empty());
  EXPECT_EQ(pair.stats1().malformed, 1u);
}

TEST(AnalyzerTest, SecretShareRecoveryThreshold) {
  SecureRandom rng(ToBytes("analyzer-ss"));
  SecretSharer sharer(3);
  std::vector<Bytes> payloads;
  // 4 shares of "unlocked", 2 of "locked".
  for (int i = 0; i < 4; ++i) {
    SecureRandom client(ToBytes("c" + std::to_string(i)));
    payloads.push_back(sharer.Encode(ToBytes("unlocked"), client).Serialize());
  }
  for (int i = 0; i < 2; ++i) {
    SecureRandom client(ToBytes("d" + std::to_string(i)));
    payloads.push_back(sharer.Encode(ToBytes("locked"), client).Serialize());
  }
  auto result = Analyzer::RecoverSecretShared(payloads, 3);
  EXPECT_EQ(result.values.size(), 1u);
  EXPECT_EQ(result.values.at("unlocked"), 4u);
  EXPECT_EQ(result.locked_groups, 1u);
  EXPECT_EQ(result.malformed, 0u);
}

TEST(AnalyzerTest, MalformedPayloadsCounted) {
  std::vector<Bytes> payloads = {ToBytes("not a secret share encoding")};
  auto result = Analyzer::RecoverSecretShared(payloads, 2);
  EXPECT_EQ(result.malformed, 1u);
}

// DecryptBatch opens in fixed 64-box chunks spread over the pool: the
// payloads and the undecryptable count must not depend on the thread count,
// and a bad box in the middle of a chunk must fail its own slot only.
TEST(AnalyzerTest, DecryptBatchIsThreadCountInvariantAndFailsOnlyBadSlots) {
  CoreFixture fx;
  constexpr size_t kBoxes = 150;  // chunks [0,64) [64,128) [128,150)
  std::vector<Bytes> boxes;
  std::vector<Bytes> expected;
  for (size_t i = 0; i < kBoxes; ++i) {
    Bytes payload = ToBytes("value-" + std::to_string(i));
    boxes.push_back(HybridSeal(fx.analyzer_keys.public_key, *PadPayload(payload, 64),
                               kAnalyzerLayerContext, fx.rng)
                        .Serialize());
    if (i != 95 && i != 96 && i != 97) {
      expected.push_back(payload);
    }
  }
  boxes[95][kEcPointEncodedSize + kGcmNonceSize + 3] ^= 0x01;  // AEAD failure
  boxes[96][10] ^= 0x01;                                        // off-curve key
  boxes[97].resize(20);                                         // not a HybridBox

  ThreadPool three(3);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &three, &ThreadPool::Process()}) {
    SCOPED_TRACE(pool == nullptr ? "num_threads=0" : pool == &three ? "3" : "default");
    Analyzer analyzer(fx.analyzer_keys);
    std::vector<Bytes> payloads = analyzer.DecryptBatch(boxes, pool);
    EXPECT_EQ(payloads, expected);
    EXPECT_EQ(analyzer.stats().received, kBoxes);
    EXPECT_EQ(analyzer.stats().undecryptable, 3u);
  }
}

// The cluster merge is the analyzer: it thresholds on crowd cardinalities
// summed across groups and opens only the survivors' inner boxes.
TEST(PipelineMergeTest, MergeNeverOpensASubThresholdInnerBox) {
  PipelineConfig config;
  config.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.shuffler.policy = ThresholdPolicy{5, 0, 0};
  config.seed = "merge-partials";
  Pipeline pipeline(config);
  const EcPoint analyzer_public = pipeline.MakeEncoder().config().analyzer_public;

  // Hand-built group partials: valid inner boxes to the pipeline's analyzer,
  // taken out of reports sealed to a shuffler key this test holds.
  CoreFixture fx;
  auto inner_box = [&](const std::string& value) {
    CrowdPart crowd;
    crowd.plain_hash = CrowdIdHash(value);
    auto padded = PadPayload(ToBytes(value), 64);
    Bytes report = SealReport(crowd, *padded, fx.shuffler_keys.public_key, analyzer_public,
                              fx.rng);
    auto view = OpenReport(fx.shuffler_keys, report);
    EXPECT_TRUE(view.has_value());
    return view->inner_box;
  };
  auto make_partial = [&](int popular, int rare) {
    EpochPartial partial;
    partial.reports = static_cast<uint64_t>(popular + rare);
    for (int i = 0; i < popular; ++i) {
      partial.crowds[CrowdIdHash("popular")].inner_boxes.push_back(inner_box("popular"));
    }
    for (int i = 0; i < rare; ++i) {
      partial.crowds[CrowdIdHash("rare")].inner_boxes.push_back(inner_box("rare"));
    }
    return partial;
  };
  // "popular" is 3+3 = 6 >= T=5 only across the split; "rare" is 2+2 = 4.
  std::vector<EpochPartial> partials;
  partials.push_back(make_partial(3, 2));
  partials.push_back(make_partial(3, 2));

  // Below the minimum batch the merge fails and leaves the partials intact,
  // so a caller can retry them.
  PipelineConfig batching = config;
  batching.shuffler.min_batch_size = 11;
  Rng unused_noise(1);
  EXPECT_FALSE(Pipeline(batching).MergePartials(partials, unused_noise).ok());
  EXPECT_EQ(partials[0].crowds[CrowdIdHash("popular")].inner_boxes.size(), 3u);

  Rng noise(1);
  auto merged = pipeline.MergePartials(partials, noise);
  ASSERT_TRUE(merged.ok()) << merged.error().message;
  EXPECT_EQ(merged.value().histogram, (std::map<std::string, uint64_t>{{"popular", 6}}));
  EXPECT_EQ(merged.value().shuffler_stats.forwarded, 6u);
  EXPECT_EQ(merged.value().shuffler_stats.dropped_threshold, 4u);
  // The analyzer was handed exactly the forwarded boxes, and the rare
  // crowd's boxes were never taken out of the partials.
  EXPECT_EQ(merged.value().analyzer_stats.received, 6u);
  EXPECT_EQ(merged.value().analyzer_stats.undecryptable, 0u);
  for (const EpochPartial& partial : partials) {
    EXPECT_EQ(partial.crowds.at(CrowdIdHash("rare")).inner_boxes.size(), 2u);
  }
}

TEST(FragmentTest, PairwiseFragments) {
  std::vector<int> items = {1, 2, 3};
  auto pairs = PairwiseFragments(items);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<int, int>{1, 2}));
  EXPECT_EQ(pairs[1], (std::pair<int, int>{1, 3}));
  EXPECT_EQ(pairs[2], (std::pair<int, int>{2, 3}));
  EXPECT_TRUE(PairwiseFragments(std::vector<int>{1}).empty());
}

TEST(FragmentTest, DisjointTuples) {
  std::vector<int> sequence = {1, 2, 3, 4, 5, 6, 7};
  auto tuples = DisjointTuples(sequence, 3);
  ASSERT_EQ(tuples.size(), 2u);  // trailing 7 dropped
  EXPECT_EQ(tuples[0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(tuples[1], (std::vector<int>{4, 5, 6}));
  EXPECT_TRUE(DisjointTuples(sequence, 0).empty());
}

TEST(FragmentTest, SampleCapped) {
  Rng rng(3);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sampled = SampleCapped(items, 3, rng);
  EXPECT_EQ(sampled.size(), 3u);
  for (int v : sampled) {
    EXPECT_TRUE(std::find(items.begin(), items.end(), v) != items.end());
  }
  auto unchanged = SampleCapped(items, 100, rng);
  EXPECT_EQ(unchanged.size(), items.size());
}

}  // namespace
}  // namespace prochlo
