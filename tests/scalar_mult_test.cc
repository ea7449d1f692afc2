// Cross-checks for the variable-base wNAF scalar multiplication and the
// batched constant-time lane (BatchScalarMultSecret) that every long-term-key
// open runs on.  Everything is checked against JacScalarMultReference — the plain
// left-to-right double-and-add ladder kept precisely so these tests have an
// obviously-correct baseline — over edge scalars (0, 1, 2, n-1, n, n+1,
// 2^255) and bulk random scalars, plus the identity-point edges through the
// batched El Gamal open and report-open paths.
#include <gtest/gtest.h>

#include "src/core/report.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/hash_to_curve.h"
#include "src/crypto/keys.h"
#include "src/crypto/p256.h"
#include "src/util/thread_pool.h"

namespace prochlo {
namespace {

EcPoint ReferenceMult(const EcPoint& point, const U256& scalar) {
  const P256& curve = P256::Get();
  return curve.FromJacobian(curve.JacScalarMultReference(curve.ToJacobian(point), scalar));
}

EcPoint WnafMult(const EcPoint& point, const U256& scalar) {
  const P256& curve = P256::Get();
  return curve.FromJacobian(curve.JacScalarMult(curve.ToJacobian(point), scalar));
}

std::vector<U256> EdgeScalars() {
  const P256& curve = P256::Get();
  U256 n_minus_1;
  SubWithBorrow(curve.order(), U256::One(), &n_minus_1);
  U256 n_plus_1;
  AddWithCarry(curve.order(), U256::One(), &n_plus_1);
  U256 two_255;
  two_255.limbs[3] = 1ull << 63;
  U256 two_255_plus_1 = two_255;
  two_255_plus_1.limbs[0] = 1;  // exercises top-window + bottom-digit carry
  return {U256::Zero(), U256::One(),  U256::FromU64(2), n_minus_1,
          curve.order(), n_plus_1,    two_255,          two_255_plus_1};
}

TEST(WnafScalarMultTest, EdgeScalarsMatchDoubleAdd) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("wnaf-edges"));
  EcPoint random_base = curve.BaseMult(rng.RandomScalar(curve.order()));
  for (const EcPoint& base : {curve.generator(), random_base}) {
    for (const U256& k : EdgeScalars()) {
      EXPECT_EQ(WnafMult(base, k), ReferenceMult(base, k)) << "scalar " << k.ToHex();
    }
  }
  // k = 0 and k = n are the identity; the identity point maps to itself.
  EXPECT_TRUE(WnafMult(curve.generator(), U256::Zero()).infinity);
  EXPECT_TRUE(WnafMult(curve.generator(), curve.order()).infinity);
  EXPECT_TRUE(WnafMult(EcPoint::Infinity(), U256::FromU64(7)).infinity);
}

TEST(WnafScalarMultTest, OneThousandRandomScalarsMatchDoubleAdd) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("wnaf-1k"));
  EcPoint base = curve.generator();
  for (int i = 0; i < 1000; ++i) {
    U256 k = rng.RandomScalar(curve.order());
    EXPECT_EQ(WnafMult(base, k), ReferenceMult(base, k)) << "scalar " << k.ToHex();
    if (i % 100 == 0) {
      base = curve.BaseMult(rng.RandomScalar(curve.order()));  // vary the base too
    }
  }
}

// ------------------------------------------- batched constant-time lane

// Affine results of the batched ct lane for one scalar over `points`.
std::vector<EcPoint> LaneMult(const std::vector<EcPoint>& points, const U256& scalar) {
  const P256& curve = P256::Get();
  std::vector<P256::Jacobian> jacs = curve.BatchScalarMultSecret(points, Secret<U256>(scalar));
  EXPECT_EQ(jacs.size(), points.size());
  return curve.BatchNormalize(jacs);
}

// Edge scalars for the signed 4-bit recode: the EdgeScalars() set plus
// n-2, powers of two on and off window boundaries, scalars whose middle
// windows are all zero, all-8 windows (the largest digit with no carry),
// all-9 windows (every window carries), and 2^256-1 (reduced once).
std::vector<U256> LaneEdgeScalars() {
  const P256& curve = P256::Get();
  std::vector<U256> out = EdgeScalars();
  U256 n_minus_2;
  SubWithBorrow(curve.order(), U256::FromU64(2), &n_minus_2);
  out.push_back(n_minus_2);
  for (int bit : {3, 4, 63, 64, 128, 252, 254}) {
    U256 pow;
    pow.limbs[bit / 64] = 1ull << (bit % 64);
    out.push_back(pow);
  }
  U256 sparse;  // nonzero bottom and top windows only
  sparse.limbs[0] = 0x9;
  sparse.limbs[3] = 0x7ull << 60;
  out.push_back(sparse);
  out.push_back(U256::FromHex("8888888888888888888888888888888888888888888888888888888888888888"));
  out.push_back(U256::FromHex("9999999999999999999999999999999999999999999999999999999999999999"));
  out.push_back(U256::FromHex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"));
  return out;
}

// Checks one lane batch of `size` points drawn from `pool` (starting at
// `offset`), with the identity interleaved at every 7th slot from slot 3,
// against the double-and-add reference.
void CheckLaneBatch(const std::vector<EcPoint>& pool, size_t size, size_t offset,
                    const U256& k) {
  std::vector<EcPoint> points;
  for (size_t j = 0; j < size; ++j) {
    points.push_back(j % 7 == 3 ? EcPoint::Infinity() : pool[(offset + j) % pool.size()]);
  }
  std::vector<EcPoint> lane = LaneMult(points, k);
  ASSERT_EQ(lane.size(), size);
  for (size_t j = 0; j < size; ++j) {
    ASSERT_EQ(lane[j], ReferenceMult(points[j], k))
        << "scalar " << k.ToHex() << " batch " << size << " slot " << j;
  }
}

std::vector<EcPoint> RandomPoints(SecureRandom& rng, size_t n) {
  const P256& curve = P256::Get();
  std::vector<EcPoint> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(curve.BaseMult(rng.RandomScalar(curve.order())));
  }
  return out;
}

constexpr size_t kLaneBatchSizes[] = {1, 2, 63, 64, 65, 256};

TEST(BatchScalarMultSecretTest, BitIdenticalToReferenceAtEveryBatchSize) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-lane-sizes"));
  std::vector<EcPoint> pool = RandomPoints(rng, 256);
  pool[0] = curve.generator();
  // Every edge scalar at every batch size (the chunk edges 63/64/65 and
  // the shuffler's 256 included).
  size_t offset = 0;
  for (const U256& k : LaneEdgeScalars()) {
    for (size_t size : kLaneBatchSizes) {
      CheckLaneBatch(pool, size, offset++, k);
    }
  }
  // 1k random scalars: mostly batches of one and two, every 100th at one
  // of the larger sizes.
  for (int i = 0; i < 1000; ++i) {
    U256 k = rng.RandomScalar(curve.order());
    size_t size = i % 100 == 99 ? kLaneBatchSizes[2 + (i / 100) % 4] : kLaneBatchSizes[i % 2];
    CheckLaneBatch(pool, size, offset++, k);
  }
  // A lone identity point, and the empty batch.
  EXPECT_TRUE(LaneMult({EcPoint::Infinity()}, U256::FromU64(5))[0].infinity);
  EXPECT_TRUE(LaneMult({}, U256::FromU64(5)).empty());
}

TEST(BatchScalarMultSecretTest, MatchesDoubleAddIncludingEdges) {
  // The edge scalars on a random base, the generator and the identity in
  // one batch, plus 200 random points.
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("batch-var"));
  std::vector<EcPoint> points = RandomPoints(rng, 200);
  points.push_back(curve.generator());
  points.push_back(EcPoint::Infinity());
  U256 k = rng.RandomScalar(curve.order());
  std::vector<EcPoint> batch = LaneMult(points, k);
  ASSERT_EQ(batch.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batch[i], ReferenceMult(points[i], k)) << "index " << i;
  }
  EcPoint base = points[0];
  for (const U256& edge : EdgeScalars()) {
    EXPECT_EQ(LaneMult({base, base}, edge)[1], ReferenceMult(base, edge))
        << "scalar " << edge.ToHex();
  }
}

TEST(BatchScalarMultSecretTest, ConsecutiveBatchesKeepTheirOwnScalar) {
  // The decrypt shape run back to back: one scalar over a batch, then a
  // different scalar over the same points, then the first again.  Each
  // call recodes its own scalar; nothing carries over between batches.
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("batch-repeat"));
  std::vector<EcPoint> points = RandomPoints(rng, 60);
  U256 x = rng.RandomScalar(curve.order());
  U256 y = rng.RandomScalar(curve.order());
  for (const U256& k : {x, y, x}) {
    std::vector<EcPoint> batch = LaneMult(points, k);
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(batch[i], ReferenceMult(points[i], k)) << "index " << i;
    }
  }
}

TEST(BatchScalarMultSecretTest, CtNormalizeMatchesVariableTimeNormalize) {
  // The lane's Jacobian output normalizes the same on the ct path
  // (BatchNormalizeCt, Fermat inverse) as on the variable-time one, and
  // ScalarMultSecret (a batch of one) agrees with the batch.
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("batch-jac"));
  std::vector<EcPoint> points = RandomPoints(rng, 50);
  points[17] = EcPoint::Infinity();
  Secret<U256> k = rng.RandomSecretScalar(curve.order());
  std::vector<P256::Jacobian> jacs = curve.BatchScalarMultSecret(points, k);
  std::vector<EcPoint> via_ct = curve.BatchNormalizeCt(jacs);
  std::vector<EcPoint> via_vt = curve.BatchNormalize(jacs);
  ASSERT_EQ(via_ct.size(), via_vt.size());
  for (size_t i = 0; i < via_ct.size(); ++i) {
    EXPECT_EQ(via_ct[i], via_vt[i]) << "index " << i;
    EXPECT_EQ(via_ct[i], curve.ScalarMultSecret(points[i], k)) << "index " << i;
  }
  EXPECT_TRUE(via_ct[17].infinity);
}

TEST(EcdhBatchTest, MatchesSingleEcdhIncludingIdentityPeer) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ecdh-batch"));
  Secret<U256> priv = rng.RandomSecretScalar(curve.order());
  std::vector<EcPoint> peers;
  for (int i = 0; i < 40; ++i) {
    peers.push_back(curve.BaseMult(rng.RandomScalar(curve.order())));
  }
  peers.push_back(EcPoint::Infinity());  // identity peer -> nullopt
  std::vector<std::optional<Secret<U256>>> batch = EcdhSharedSecretBatch(priv, peers);
  ASSERT_EQ(batch.size(), peers.size());
  for (size_t i = 0; i < peers.size(); ++i) {
    auto single = EcdhSharedSecret(priv, peers[i]);
    ASSERT_EQ(batch[i].has_value(), single.has_value()) << "index " << i;
    if (single.has_value()) {
      EXPECT_EQ(batch[i]->Declassify(), single->Declassify()) << "index " << i;
    }
  }
  EXPECT_FALSE(batch.back().has_value());
}

TEST(ElGamalOpenBatchTest, IdentityComponentCiphertexts) {
  // c1 = identity: decrypt must return c2 untouched (shared secret is the
  // identity).  c2 = identity: decrypt returns -x*c1.  Both identity:
  // the result is the identity point.  All three must match the scalar
  // ElGamalDecrypt exactly through the batched open.
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("eg-open-ident"));
  KeyPair recipient = KeyPair::Generate(rng);
  EcPoint message = HashToCurve(std::string("edge-crowd"));

  std::vector<ElGamalCiphertext> cts;
  cts.push_back(ElGamalCiphertext{EcPoint::Infinity(), message});
  cts.push_back(ElGamalCiphertext{curve.BaseMult(rng.RandomScalar(curve.order())),
                                  EcPoint::Infinity()});
  cts.push_back(ElGamalCiphertext{EcPoint::Infinity(), EcPoint::Infinity()});
  for (int i = 0; i < 20; ++i) {
    cts.push_back(ElGamalEncrypt(recipient.public_key, message, rng));
  }

  std::vector<EcPoint> batch = ElGamalOpenBatch(recipient.private_key, cts);
  ASSERT_EQ(batch.size(), cts.size());
  for (size_t i = 0; i < cts.size(); ++i) {
    EXPECT_EQ(batch[i], ElGamalDecrypt(recipient.private_key, cts[i])) << "index " << i;
  }
  EXPECT_EQ(batch[0], message);
  EXPECT_TRUE(batch[2].infinity);
}

TEST(HybridOpenBatchTest, MatchesSingleOpenIncludingFailures) {
  SecureRandom rng(ToBytes("hybrid-batch"));
  KeyPair recipient = KeyPair::Generate(rng);
  std::vector<HybridBox> boxes;
  for (int i = 0; i < 25; ++i) {
    boxes.push_back(HybridSeal(recipient.public_key, Bytes(32, static_cast<uint8_t>(i)),
                               "batch-ctx", rng));
  }
  boxes[3].sealed[5] ^= 0x10;           // tampered ciphertext -> AEAD failure
  boxes[7].ephemeral_public[10] ^= 0x01;  // invalid ephemeral key -> decode failure
  boxes.push_back(HybridBox{});          // empty box -> decode failure
  std::vector<std::optional<Bytes>> batch = HybridOpenBatch(recipient, boxes, "batch-ctx");
  ASSERT_EQ(batch.size(), boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(batch[i], HybridOpen(recipient, boxes[i], "batch-ctx")) << "index " << i;
  }
  EXPECT_FALSE(batch[3].has_value());
  EXPECT_FALSE(batch[7].has_value());
  EXPECT_FALSE(batch.back().has_value());
}

TEST(BatchOpenReportsTest, MatchesOpenReportAndIsPoolInvariant) {
  SecureRandom rng(ToBytes("batch-open-reports"));
  KeyPair shuffler = KeyPair::Generate(rng);
  KeyPair analyzer = KeyPair::Generate(rng);
  std::vector<Bytes> reports;
  for (int i = 0; i < 70; ++i) {
    CrowdPart crowd;
    crowd.plain_hash = static_cast<uint64_t>(i % 9);
    auto padded = PadPayload(Bytes(40, static_cast<uint8_t>(i)), 64);
    reports.push_back(
        SealReport(crowd, *padded, shuffler.public_key, analyzer.public_key, rng));
  }
  reports[11][20] ^= 0x80;        // corrupted report -> open fails
  reports.push_back(Bytes{1, 2});  // not even a HybridBox

  std::vector<std::optional<ShufflerView>> batch = BatchOpenReports(shuffler, reports);
  ThreadPool pool(3);
  std::vector<std::optional<ShufflerView>> pooled = BatchOpenReports(shuffler, reports, &pool);
  ASSERT_EQ(batch.size(), reports.size());
  ASSERT_EQ(pooled.size(), reports.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    auto single = OpenReport(shuffler, reports[i]);
    EXPECT_EQ(batch[i].has_value(), single.has_value()) << "index " << i;
    EXPECT_EQ(pooled[i].has_value(), single.has_value()) << "index " << i;
    if (single.has_value()) {
      EXPECT_EQ(batch[i]->Serialize(), single->Serialize());
      EXPECT_EQ(pooled[i]->Serialize(), single->Serialize());
    }
  }
  EXPECT_FALSE(batch[11].has_value());
  EXPECT_FALSE(batch.back().has_value());
}

}  // namespace
}  // namespace prochlo
