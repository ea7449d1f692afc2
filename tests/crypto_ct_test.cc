// Constant-time lane cross-checks.
//
// Three layers, each checked against its variable-time twin:
//   * the ct.h mask/select primitives themselves, over every mask edge case
//     (zero, one, all-ones, high-bit-only) and out-of-range table indices;
//   * the ModField *Ct field ops, over both P-256 fields (the fast-reduction
//     prime field and the generic-CIOS scalar field — the two MontMulCt code
//     paths);
//   * the point ops (the ct mixed add and doubling), ScalarMultSecret (the
//     batched lane as a batch of one), the JacBaseMultSecret ladder and the
//     ct batch normalization, bit-identical to their variable-time twins
//     over the edge-scalar set (0, 1, 2, n-1, n, n+1, 2^255, 2^255+1).  The
//     batched lane itself is cross-checked at every chunk size in
//     tests/scalar_mult_test.cc.
//
// These are functional checks; the "no secret-dependent branches" property
// is checked by scripts/lint.py (statically) and tools/ct_harness.cc under
// valgrind/MSan (dynamically).
#include <gtest/gtest.h>

#include <type_traits>

#include "src/crypto/bignum.h"
#include "src/crypto/ct.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/hash_to_curve.h"
#include "src/crypto/hmac.h"
#include "src/crypto/keys.h"
#include "src/crypto/p256.h"
#include "src/crypto/random.h"

namespace prochlo {
namespace {

// ------------------------------------------------------------- primitives

TEST(CtPrimitiveTest, Masks) {
  EXPECT_EQ(ct::NonZeroMask(0), 0u);
  EXPECT_EQ(ct::NonZeroMask(1), ~0ull);
  EXPECT_EQ(ct::NonZeroMask(~0ull), ~0ull);
  EXPECT_EQ(ct::NonZeroMask(1ull << 63), ~0ull);  // high bit only
  EXPECT_EQ(ct::NonZeroMask(0x8000000000000001ull), ~0ull);

  EXPECT_EQ(ct::IsZeroMask(0), ~0ull);
  EXPECT_EQ(ct::IsZeroMask(42), 0u);
  EXPECT_EQ(ct::IsZeroMask(1ull << 63), 0u);

  EXPECT_EQ(ct::EqMask(uint64_t{7}, uint64_t{7}), ~0ull);
  EXPECT_EQ(ct::EqMask(uint64_t{7}, uint64_t{8}), 0u);
  EXPECT_EQ(ct::EqMask(~0ull, ~0ull), ~0ull);
  EXPECT_EQ(ct::EqMask(0ull, ~0ull), 0u);

  U256 a = U256::FromHex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  EXPECT_EQ(ct::IsZeroMask(U256::Zero()), ~0ull);
  EXPECT_EQ(ct::IsZeroMask(a), 0u);
  EXPECT_EQ(ct::EqMask(a, a), ~0ull);
  U256 b = a;
  b.limbs[3] ^= 1ull << 63;  // single-bit difference in the top limb
  EXPECT_EQ(ct::EqMask(a, b), 0u);
}

TEST(CtPrimitiveTest, SelectAndSwap) {
  EXPECT_EQ(ct::CtSelect(~0ull, uint64_t{11}, uint64_t{22}), 11u);
  EXPECT_EQ(ct::CtSelect(uint64_t{0}, uint64_t{11}, uint64_t{22}), 22u);

  U256 a = U256::FromU64(111);
  U256 b = U256::FromU64(222);
  EXPECT_EQ(ct::CtSelect(~0ull, a, b), a);
  EXPECT_EQ(ct::CtSelect(uint64_t{0}, a, b), b);

  U256 x = a;
  U256 y = b;
  ct::CtSwap(uint64_t{0}, x, y);
  EXPECT_EQ(x, a);
  EXPECT_EQ(y, b);
  ct::CtSwap(~0ull, x, y);
  EXPECT_EQ(x, b);
  EXPECT_EQ(y, a);

  uint64_t u = 5, v = 9;
  ct::CtSwap(~0ull, u, v);
  EXPECT_EQ(u, 9u);
  EXPECT_EQ(v, 5u);
}

TEST(CtPrimitiveTest, TableLookup) {
  U256 table[9];
  for (uint64_t i = 0; i < 9; ++i) {
    table[i] = U256::FromU64(i * 1000 + 7);
  }
  for (uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(ct::CtTableLookup(table, 9, i), table[i]) << "index " << i;
  }
  // Out of range selects nothing and yields zero rather than reading OOB.
  EXPECT_EQ(ct::CtTableLookup(table, 9, 9), U256::Zero());
  EXPECT_EQ(ct::CtTableLookup(table, 9, ~0ull), U256::Zero());
}

TEST(CtPrimitiveTest, CtEq) {
  Bytes a = ToBytes("sixteen-byte-tag");
  Bytes b = a;
  EXPECT_TRUE(ct::CtEq(a, b));
  b[0] ^= 1;  // first byte
  EXPECT_FALSE(ct::CtEq(a, b));
  b = a;
  b.back() ^= 0x80;  // last byte, high bit
  EXPECT_FALSE(ct::CtEq(a, b));
  Bytes shorter(a.begin(), a.end() - 1);
  EXPECT_FALSE(ct::CtEq(a, shorter));
  EXPECT_TRUE(ct::CtEq(ByteSpan(), ByteSpan()));
}

// Secret<T> compiles away its footguns: no comparison, no bool conversion,
// no indexing.  (Checked at compile time; the runtime body is trivial.)
TEST(CtPrimitiveTest, SecretDeletesFootguns) {
  static_assert(!std::equality_comparable<Secret<U256>>);
  static_assert(!std::is_constructible_v<bool, Secret<U256>>);
  static_assert(!std::is_convertible_v<Secret<U256>, bool>);
  Secret<U256> s(U256::FromU64(5));
  EXPECT_EQ(s.Expose().limbs[0], 5u);
  EXPECT_EQ(s.Declassify().limbs[0], 5u);
}

// ------------------------------------------------------------- field ops

void CheckFieldCtLane(const ModField& f, const char* label) {
  SecureRandom rng(ToBytes(std::string("ct-field-") + label));
  U256 m_minus_1;
  SubWithBorrow(f.modulus(), U256::One(), &m_minus_1);
  std::vector<U256> specials = {U256::Zero(), U256::One(), U256::FromU64(2), m_minus_1};
  for (int i = 0; i < 64; ++i) {
    specials.push_back(rng.RandomScalar(f.modulus()));
  }
  for (const U256& a : specials) {
    for (const U256& b : specials) {
      EXPECT_EQ(f.AddCt(a, b), f.Add(a, b)) << label;
      EXPECT_EQ(f.SubCt(a, b), f.Sub(a, b)) << label;
      EXPECT_EQ(f.MontMulCt(a, b), f.MontMul(a, b)) << label;
    }
    EXPECT_EQ(f.NegCt(a), f.Neg(a)) << label;
    EXPECT_EQ(f.MontSqrCt(a), f.MontSqr(a)) << label;
    EXPECT_EQ(f.ToMontCt(a), f.ToMont(a)) << label;
    EXPECT_EQ(f.FromMontCt(f.ToMontCt(a)), a) << label;
    // MontInvCt: Fermat in the Montgomery domain vs the xGCD Inv.
    U256 inv_ct = f.FromMont(f.MontInvCt(f.ToMont(a)));
    EXPECT_EQ(inv_ct, f.Inv(a)) << label << " a=" << a.ToHex();
    // ReduceOnceCt on a and a + m (both below 2m).
    EXPECT_EQ(f.ReduceOnceCt(a), a) << label;
    U256 shifted;
    if (AddWithCarry(a, f.modulus(), &shifted) == 0) {
      EXPECT_EQ(f.ReduceOnceCt(shifted), a) << label;
    }
  }
}

TEST(CtFieldTest, PrimeFieldMatchesVariableTime) {
  CheckFieldCtLane(P256::Get().field(), "fp");  // fast-reduction path
}

TEST(CtFieldTest, ScalarFieldMatchesVariableTime) {
  CheckFieldCtLane(P256::Get().scalar_field(), "fn");  // generic CIOS path
}

// ------------------------------------------------------------- point ops

std::vector<U256> CtEdgeScalars() {
  const P256& curve = P256::Get();
  U256 n_minus_1;
  SubWithBorrow(curve.order(), U256::One(), &n_minus_1);
  U256 n_plus_1;
  AddWithCarry(curve.order(), U256::One(), &n_plus_1);
  U256 two_255;
  two_255.limbs[3] = 1ull << 63;
  U256 two_255_plus_1 = two_255;
  two_255_plus_1.limbs[0] = 1;
  return {U256::Zero(), U256::One(), U256::FromU64(2),    n_minus_1,
          curve.order(), n_plus_1,   two_255,             two_255_plus_1};
}

EcPoint ReferenceMult(const EcPoint& point, const U256& scalar) {
  const P256& curve = P256::Get();
  return curve.FromJacobian(curve.JacScalarMultReference(curve.ToJacobian(point), scalar));
}

// p scaled to the Jacobian representation (l^2 x, l^3 y, l z): same point,
// non-trivial z.
P256::Jacobian Rescale(const P256::Jacobian& p, const U256& lambda_normal) {
  const ModField& f = P256::Get().field();
  U256 lambda = f.ToMont(lambda_normal);
  U256 lambda2 = f.MontSqr(lambda);
  return P256::Jacobian{f.MontMul(p.x, lambda2), f.MontMul(p.y, f.MontMul(lambda2, lambda)),
                        f.MontMul(p.z, lambda)};
}

TEST(CtPointTest, MixedAddAndDoubleMatchVariableTime) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-point-ops"));
  P256::Jacobian p = Rescale(curve.JacBaseMult(rng.RandomScalar(curve.order())),
                             U256::FromU64(3));
  EcPoint q_affine = curve.BaseMult(rng.RandomScalar(curve.order()));
  P256::Jacobian q = curve.ToJacobian(q_affine);
  P256::AffineMont q_mont{q.x, q.y};
  P256::Jacobian inf = curve.ToJacobian(EcPoint::Infinity());
  const uint64_t kFinite = 0;
  const uint64_t kIdentity = ~0ull;

  auto same = [&](const P256::Jacobian& a, const P256::Jacobian& b) {
    EXPECT_EQ(curve.FromJacobian(a), curve.FromJacobian(b));
  };
  // Generic addition.
  same(curve.JacAddAffineCt(p, q_mont, kFinite), curve.JacAdd(p, q));
  same(curve.JacDoubleCt(p), curve.JacDouble(p));
  // p + (-p) is the identity without any patch (h == 0 gives z3 == 0),
  // also when p carries a non-trivial z.
  EcPoint p_affine = curve.FromJacobian(p);
  P256::Jacobian neg = curve.ToJacobian(curve.Negate(p_affine));
  EXPECT_TRUE(curve.FromJacobian(curve.JacAddAffineCt(p, {neg.x, neg.y}, kFinite)).infinity);
  // Identity operands, by mask: an identity p selects q, an identity q
  // selects p, whatever coordinates the identity q carries.
  same(curve.JacAddAffineCt(inf, q_mont, kFinite), q);
  same(curve.JacAddAffineCt(p, q_mont, kIdentity), p);
  same(curve.JacAddAffineCt(p, {U256::Zero(), U256::Zero()}, kIdentity), p);
  EXPECT_TRUE(curve.FromJacobian(curve.JacAddAffineCt(inf, q_mont, kIdentity)).infinity);
  EXPECT_TRUE(curve.FromJacobian(curve.JacDoubleCt(inf)).infinity);
}

TEST(CtScalarMultTest, EdgeScalarsMatchReference) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-ladder-edges"));
  EcPoint random_base = curve.BaseMult(rng.RandomScalar(curve.order()));
  for (const EcPoint& base : {curve.generator(), random_base}) {
    for (const U256& k : CtEdgeScalars()) {
      EXPECT_EQ(curve.ScalarMultSecret(base, Secret<U256>(k)), ReferenceMult(base, k))
          << "scalar " << k.ToHex();
    }
  }
  // Identity in, identity out; k = 0 and k = n are the identity.
  EXPECT_TRUE(curve.ScalarMultSecret(EcPoint::Infinity(), Secret<U256>(U256::FromU64(7))).infinity);
  EXPECT_TRUE(curve.ScalarMultSecret(curve.generator(), Secret<U256>(U256::Zero())).infinity);
  EXPECT_TRUE(curve.ScalarMultSecret(curve.generator(), Secret<U256>(curve.order())).infinity);
}

TEST(CtScalarMultTest, BaseMultSecretMatchesBaseMult) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-basemult"));
  for (const U256& k : CtEdgeScalars()) {
    EXPECT_EQ(curve.BaseMultSecret(Secret<U256>(k)), curve.BaseMult(k)) << "scalar " << k.ToHex();
  }
  for (int i = 0; i < 200; ++i) {
    U256 k = rng.RandomScalar(curve.order());
    ASSERT_EQ(curve.BaseMultSecret(Secret<U256>(k)), curve.BaseMult(k)) << "scalar " << k.ToHex();
  }
}

TEST(CtScalarMultTest, BatchNormalizeCtMatchesBatchNormalize) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-fromjac"));
  std::vector<P256::Jacobian> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back(Rescale(curve.JacBaseMult(rng.RandomScalar(curve.order())),
                             rng.RandomScalar(curve.field().modulus())));
    if (i % 7 == 3) {
      points.push_back(curve.ToJacobian(EcPoint::Infinity()));
    }
  }
  std::vector<EcPoint> ct_points = curve.BatchNormalizeCt(points);
  std::vector<EcPoint> vt_points = curve.BatchNormalize(points);
  ASSERT_EQ(ct_points.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(ct_points[i], vt_points[i]) << "index " << i;
    ASSERT_EQ(ct_points[i], curve.FromJacobian(points[i])) << "index " << i;
  }
  EXPECT_TRUE(curve.BatchNormalizeCt({}).empty());
  EXPECT_TRUE(curve.BatchNormalizeCt({curve.ToJacobian(EcPoint::Infinity())})[0].infinity);
}

// ------------------------------------------------- end-to-end secret paths

TEST(CtEndToEndTest, HmacVerifyAcceptsAndRejects) {
  SecureRandom rng(ToBytes("ct-hmac"));
  Bytes key = rng.RandomBytes(32);
  Bytes data = ToBytes("the quick brown fox");
  Sha256Digest mac = HmacSha256(ByteSpan(key), ByteSpan(data));
  ByteSpan mac_span(mac.data(), mac.size());

  EXPECT_TRUE(HmacVerify(ByteSpan(key), ByteSpan(data), mac_span));

  // Any single flipped bit, in any byte position, must reject: exercises
  // every lane of the accumulated-XOR compare.
  for (size_t i = 0; i < mac.size(); ++i) {
    Sha256Digest bad = mac;
    bad[i] ^= 0x01;
    EXPECT_FALSE(HmacVerify(ByteSpan(key), ByteSpan(data), ByteSpan(bad.data(), bad.size())))
        << "flipped byte " << i;
  }
  // Truncated and oversized MACs reject on length alone.
  EXPECT_FALSE(HmacVerify(ByteSpan(key), ByteSpan(data), ByteSpan(mac.data(), mac.size() - 1)));
  Bytes longer(mac.begin(), mac.end());
  longer.push_back(0);
  EXPECT_FALSE(HmacVerify(ByteSpan(key), ByteSpan(data), ByteSpan(longer)));
}

TEST(CtEndToEndTest, EcdhSecretPathMatchesVariableTimeScalarMult) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-ecdh"));
  for (int i = 0; i < 20; ++i) {
    Secret<U256> priv = rng.RandomSecretScalar(curve.order());
    EcPoint peer = curve.BaseMult(rng.RandomScalar(curve.order()));
    auto shared = EcdhSharedSecret(priv, peer);
    ASSERT_TRUE(shared.has_value());
    // Same x-coordinate as the public-lane wNAF multiply.
    EcPoint expected = curve.ScalarMult(peer, priv.Declassify());
    EXPECT_EQ(shared->Declassify(), expected.x);
  }
  // The identity peer must be rejected, not silently produce x = 0.
  Secret<U256> priv = rng.RandomSecretScalar(curve.order());
  EXPECT_FALSE(EcdhSharedSecret(priv, EcPoint::Infinity()).has_value());
}

TEST(CtEndToEndTest, ElGamalDecryptRoundTripsThroughCtLane) {
  SecureRandom rng(ToBytes("ct-elgamal"));
  KeyPair recipient = KeyPair::Generate(rng);
  for (int i = 0; i < 20; ++i) {
    EcPoint message = HashToCurve("ct-msg-" + std::to_string(i));
    ElGamalCiphertext ct = ElGamalEncrypt(recipient.public_key, message, rng);
    EXPECT_EQ(ElGamalDecrypt(recipient.private_key, ct), message);
  }
  // Identity-component edges through the ct add/normalize path.
  EcPoint message = HashToCurve(std::string("ct-msg-edge"));
  EXPECT_EQ(ElGamalDecrypt(recipient.private_key,
                           ElGamalCiphertext{EcPoint::Infinity(), message}),
            message);
  EXPECT_TRUE(ElGamalDecrypt(recipient.private_key,
                             ElGamalCiphertext{EcPoint::Infinity(), EcPoint::Infinity()})
                  .infinity);
  // c2 = -x*c1 makes the final c2 - x*c1 a doubling (message -2rH), and
  // c2 = x*c1 makes it the identity; an encoder that knows r can build both.
  const P256& curve = P256::Get();
  U256 r = rng.RandomScalar(curve.order());
  EcPoint c1 = curve.BaseMult(r);
  EcPoint shared = curve.ScalarMult(recipient.public_key, r);
  EXPECT_EQ(ElGamalDecrypt(recipient.private_key, ElGamalCiphertext{c1, curve.Negate(shared)}),
            curve.Double(curve.Negate(shared)));
  EXPECT_TRUE(ElGamalDecrypt(recipient.private_key, ElGamalCiphertext{c1, shared}).infinity);
}

}  // namespace
}  // namespace prochlo
