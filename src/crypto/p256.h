// NIST P-256 (secp256r1) elliptic-curve arithmetic, from scratch.
//
// PROCHLO uses P-256 for (paper §4.1.1, §4.3, §5.1):
//   * shuffler/analyzer key pairs and ECDH-derived AES-GCM session keys for
//     the nested report encryption;
//   * ECDSA signatures on simulated SGX attestation quotes;
//   * EC-El-Gamal encryption plus exponent blinding of crowd IDs for the
//     two-shuffler private thresholding.
//
// Scalar multiplication uses Jacobian coordinates kept in the Montgomery
// domain.  Two timing regimes coexist, split by scalar lifetime
// (docs/constant-time.md has the full policy):
//
//   * The fast paths below (fixed-base tables, width-5 wNAF, batch
//     normalization) are variable-time and serve PUBLIC and EPHEMERAL
//     scalars — per-report keys and re-randomizers.
//
//   * `BatchScalarMultSecret` / `JacBaseMultSecret` and the `*Ct` point ops
//     form a constant-time lane for `Secret<U256>` scalars (long-term
//     private keys): fixed-window ladder, full-scan masked table reads,
//     branchless conditional negation, no secret-dependent branches
//     anywhere.  It is batched, so the shuffler's and the analyzer's bulk
//     opens (§4.1.4, Table 3) run on it at about the cost the variable-time
//     batch used to have.
//
// Two fast paths serve the ephemeral-scalar workloads:
//
//   * Fixed-base precomputation — a 4-bit windowed table of multiples of a
//     base point (the generator always; any caller-registered point, e.g. a
//     shuffler's El Gamal key, via RegisterFixedBase).  A table-driven
//     multiplication is 64 mixed additions with no doublings and no
//     per-call table build.
//
//   * Variable-base wNAF — ScalarMult on an arbitrary point (a recipient
//     key that was not registered) recodes the scalar into width-5 signed
//     digits over the odd multiples 1P, 3P, ..., 15P.  Signed digits cost
//     nothing extra because Jacobian negation is a free y-flip, and they
//     cut the addition count by a third versus a fixed 4-bit window.
//
// Both lanes convert to affine in batches: BatchNormalize (and the ct
// lane's BatchNormalizeCt) turns a whole batch of Jacobian points into
// affine ones with ONE field inversion (Montgomery's simultaneous-inversion
// trick) instead of one inversion per point.
//
// The Jacobian type and Jac* entry points are public for the same reason
// ModField exposes its Montgomery primitives: hot loops compose them and
// convert to affine only at the batch edge.
#ifndef PROCHLO_SRC_CRYPTO_P256_H_
#define PROCHLO_SRC_CRYPTO_P256_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/crypto/bignum.h"
#include "src/crypto/ct.h"
#include "src/util/bytes.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

// Affine point in normal (non-Montgomery) domain; (0,0,infinity=true) is the
// identity.
struct EcPoint {
  U256 x;
  U256 y;
  bool infinity = false;

  static EcPoint Infinity() { return EcPoint{U256::Zero(), U256::Zero(), true}; }

  bool operator==(const EcPoint& other) const {
    if (infinity || other.infinity) {
      return infinity == other.infinity;
    }
    return x == other.x && y == other.y;
  }
};

constexpr size_t kEcPointEncodedSize = 65;  // 0x04 || X || Y
constexpr size_t kEcScalarSize = 32;

// The P-256 group.  Stateless apart from precomputed constants and the
// fixed-base table cache; access the process-wide instance via Get().
class P256 {
 public:
  // Jacobian point with coordinates in the Montgomery domain of field();
  // z == 0 (normal-domain zero) encodes infinity.
  struct Jacobian {
    U256 x, y, z;
  };
  // Affine point in the Montgomery domain (implicit z = 1).
  struct AffineMont {
    U256 x, y;
  };

  static const P256& Get();

  const ModField& field() const { return fp_; }
  const ModField& scalar_field() const { return fn_; }
  const U256& order() const { return fn_.modulus(); }
  const EcPoint& generator() const { return generator_; }

  bool IsOnCurve(const EcPoint& point) const;

  EcPoint Add(const EcPoint& a, const EcPoint& b) const;
  EcPoint Double(const EcPoint& a) const;
  EcPoint Negate(const EcPoint& a) const;
  // scalar * point; scalar is reduced mod the group order.  Table-driven
  // when `point` is the generator or has been registered via
  // RegisterFixedBase; width-5 wNAF otherwise.
  EcPoint ScalarMult(const EcPoint& point, const U256& scalar) const;
  // scalar * G, always table-driven.
  EcPoint BaseMult(const U256& scalar) const;

  // Precomputes and caches the windowed multiples of `base` so later
  // multiplications by that exact point take the fixed-base fast path.
  // Idempotent and thread-safe; the identity is ignored.  Each table costs
  // 60 KB, so register long-lived keys (shuffler/analyzer public keys), not
  // ephemerals.
  void RegisterFixedBase(const EcPoint& base) const;
  bool HasFixedBase(const EcPoint& base) const;

  // ------------------------------------------------ Jacobian batch API
  Jacobian ToJacobian(const EcPoint& p) const;
  EcPoint FromJacobian(const Jacobian& p) const;
  Jacobian JacAdd(const Jacobian& p, const Jacobian& q) const;
  Jacobian JacDouble(const Jacobian& p) const;
  // Variable-base path: width-5 wNAF over a per-call odd-multiples table.
  Jacobian JacScalarMult(const Jacobian& p, const U256& scalar) const;
  // Plain left-to-right double-and-add, one bit at a time: the pre-wNAF
  // baseline, kept as the obviously-correct reference that the wNAF and
  // batched paths are cross-checked (and benchmarked) against.
  Jacobian JacScalarMultReference(const Jacobian& p, const U256& scalar) const;
  // Fixed-base path for the generator.
  Jacobian JacBaseMult(const U256& scalar) const;
  // Table-driven when `base` is registered, wNAF otherwise.
  Jacobian JacScalarMultCached(const EcPoint& base, const U256& scalar) const;
  // Affine conversion of the whole batch with a single field inversion.
  std::vector<EcPoint> BatchNormalize(const std::vector<Jacobian>& points) const;
  // scalar[i] * G for every i, normalized with a single inversion.
  std::vector<EcPoint> BatchBaseMult(const std::vector<U256>& scalars) const;

  // --------------------------------------------- constant-time secret lane
  //
  // Scalar multiplication for `Secret<U256>` scalars (long-term private
  // keys): control flow, memory addresses and the field-op sequence are all
  // independent of the scalar.  Window digits are read via full-scan masked
  // table lookups, negative digits negate branchlessly, and the point ops
  // are the masked `JacAddAffineCt`/`JacDoubleCt` below.  The lane is
  // batched: a whole chunk of (public) points shares one scalar recode and
  // one affine normalization of their tables, so a batch costs about what
  // the variable-time wNAF path would (see docs/constant-time.md).
  //
  // secret_scalar * points[i] for every i, Jacobian out: a signed
  // fixed-window (w = 4) ladder over each point's multiples 1..8, which are
  // built variable-time (the points are public) and normalized to affine in
  // place with one shared inversion, so every window is 4 ct doublings, one
  // masked lookup and one ct mixed addition.  Identity inputs yield the
  // identity.  Bit-identical to JacScalarMultReference for every scalar
  // (tests/scalar_mult_test.cc, tests/crypto_ct_test.cc).
  std::vector<Jacobian> BatchScalarMultSecret(const std::vector<EcPoint>& points,
                                              const Secret<U256>& secret_scalar) const;
  // Fixed-base ladder over the generator table: same discipline (every
  // window's 15 entries are scanned; a zero digit adds the identity by
  // mask).  Used by long-term key generation.
  Jacobian JacBaseMultSecret(const Secret<U256>& secret_scalar) const;
  // Affine conversion of a batch with one Fermat-ladder inverse (no
  // variable-time xGCD on a secret-derived z) and masked products.  The
  // point-at-infinity bit of each result is declassified (it is public
  // protocol state); the coordinates keep their taint until a caller
  // declassifies them.
  std::vector<EcPoint> BatchNormalizeCt(const std::vector<Jacobian>& points) const;
  // Affine conveniences: a batch of one through the two calls above.
  EcPoint ScalarMultSecret(const EcPoint& point, const Secret<U256>& secret_scalar) const;
  EcPoint BaseMultSecret(const Secret<U256>& secret_scalar) const;
  // Branchless mixed addition p + q (q affine in the Montgomery domain):
  // the madd formula runs unconditionally and the identity cases are masked
  // in — an identity p selects q, an all-ones `q_identity` selects p.  The
  // doubling case p == q is NOT handled (its result is garbage); both
  // ladders above exclude it (the variable-base one by running on
  // min(k, n - k)).  p == -q yields the identity.  Safe for secret-derived
  // operands.
  Jacobian JacAddAffineCt(const Jacobian& p, const AffineMont& q, uint64_t q_identity) const;
  // Branchless doubling: for z == 0 the formula yields the identity again.
  Jacobian JacDoubleCt(const Jacobian& p) const;

  // Uncompressed SEC1 encoding: 0x04 || X || Y (65 bytes); the identity
  // encodes as a single 0x00 byte.
  Bytes Encode(const EcPoint& point) const;
  std::optional<EcPoint> Decode(ByteSpan encoded) const;

  // Recovers y from x and a parity bit; used by hash-to-curve.
  std::optional<EcPoint> LiftX(const U256& x, bool y_odd) const;

 private:
  // win[w][d-1] = d * 2^(4w) * base for d in 1..15: one 4-bit window per
  // scalar nibble, so a multiplication is at most 64 mixed additions.
  struct FixedBaseTable {
    std::array<std::array<AffineMont, 15>, 64> win;
  };

  P256();

  FixedBaseTable BuildFixedBaseTable(const EcPoint& base) const;
  Jacobian JacFixedMult(const FixedBaseTable& table, const U256& scalar) const;
  // Mixed addition p + (qx, qy, 1), all in the Montgomery domain.
  Jacobian JacAddAffine(const Jacobian& p, const AffineMont& q) const;
  // Rewrites every finite point to (affine x, affine y, 1), Montgomery
  // domain, sharing one inversion across the batch.
  void NormalizeToAffineMont(std::vector<Jacobian>& points) const;
  const FixedBaseTable* FindTable(const EcPoint& base) const;
  // Cheap 64-bit mix of the point's coordinates; collisions are resolved by
  // comparing the stored point (no per-lookup heap allocation, unlike a
  // string key).
  static uint64_t TableKey(const EcPoint& base);

  ModField fp_;
  ModField fn_;
  U256 b_mont_;        // curve b in Montgomery domain
  U256 one_mont_;      // 1 in Montgomery domain
  EcPoint generator_;
  FixedBaseTable gen_table_;
  mutable SharedMutex tables_mu_;
  mutable std::unordered_map<uint64_t,
                             std::vector<std::pair<EcPoint, std::unique_ptr<FixedBaseTable>>>>
      tables_ GUARDED_BY(tables_mu_);
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_CRYPTO_P256_H_
