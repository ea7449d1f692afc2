// Secret-taint type and constant-time primitives for the crypto tier.
//
// The paper's adversary (conf_sosp_BittauEMMRLRKTS17 §3) watches the
// shuffler from the outside; a timing or cache side channel in the crypto
// tier leaks exactly the associations the protocol exists to hide.  This
// header gives the repo a *typed* discipline for secret data:
//
//   * `Secret<T>` wraps a value whose bits must never influence control
//     flow, memory addresses, or variable-time instruction operands.  The
//     wrapper deletes `operator==`, conversion to `bool`, and `operator[]`,
//     so the compiler rejects the obvious leaks outright.  Reading the
//     value requires either
//       - `Expose()`  — allowed only inside src/crypto/ (lint rule
//         `secret-expose`), for constant-time code that keeps the taint, or
//       - `Declassify()` — the explicit, greppable escape hatch, which must
//         carry a same-line `// ct:declassify(<reason>)` comment (lint rule
//         `ct-declassify-reason`).  Declassified copies are released
//         from the dynamic verifier's poison tracking as well.
//
//   * Constant-time primitives: a compiler value barrier, all-ones/all-zero
//     masks, `CtSelect`, `CtSwap`, `CtEq` (fixed-scan byte compare), and
//     `CtTableLookup` (full-scan masked table read).  These are the ONLY
//     approved ways to branch-free select, compare, or index on secret
//     data; everything in src/crypto that touches `Secret` values composes
//     them.  Note that a cmov is NOT safe under the dynamic verifier
//     (valgrind flags conditional moves on undefined data just like
//     branches), so every select here is arithmetic masking, never `?:`.
//
//   * Harness hooks: `PoisonSecret`/`UnpoisonSecret` mark memory as
//     secret/public for the ctgrind-style dynamic verifier
//     (tools/ct_harness.cc).  Under valgrind they map to
//     VALGRIND_MAKE_MEM_UNDEFINED / _DEFINED client requests; under MSan to
//     __msan_poison / __msan_unpoison; otherwise they are no-ops.  Any
//     branch or load address derived from poisoned bytes then trips the
//     tool, which is the dynamic complement to the static lint.
//
// Which paths are constant-time and which deliberately are not is a policy
// question, not a per-call-site accident: see docs/constant-time.md.
#ifndef PROCHLO_SRC_CRYPTO_CT_H_
#define PROCHLO_SRC_CRYPTO_CT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "src/crypto/bignum.h"
#include "src/util/bytes.h"

namespace prochlo {
namespace ct {

// The mask primitives (ValueBarrier, NonZeroMask, IsZeroMask, EqMask,
// CtSelect, CtSwap) live in bignum.h, next to U256, so the inline ct field
// ops there can use them; every includer of this header sees them.

// Fixed-scan byte equality: reads every byte of both spans regardless of
// where they first differ (a byte-wise early-exit compare on a MAC tag is a
// practical forgery oracle).  Only the lengths and the final verdict are
// public; the verdict is explicitly declassified before returning, since
// every caller immediately branches on it.  Mismatched lengths return false
// without reading data — lengths are public here.
bool CtEq(ByteSpan a, ByteSpan b);

// Full-scan masked table read: out = table[index] computed by touching every
// entry, so the memory access pattern is independent of `index`.  An
// out-of-range index yields zero.  This is the only approved way to index a
// table by secret data.
U256 CtTableLookup(const U256* table, size_t n, uint64_t index);

// ------------------------------------------------------------- harness hooks
//
// Shadow-state plumbing for the ctgrind-style dynamic verifier.  Outside a
// valgrind/MSan run these are no-ops; the functions stay out-of-line so the
// tool macros never leak into every translation unit.

// True when a poisoning backend (valgrind client requests or MSan) was
// compiled in AND is active for this process; the harness uses it to report
// whether a clean run actually proved anything.
bool PoisonBackendActive();

// Marks [data, data+size) as secret: any branch or address derived from it
// trips the verifier.
void PoisonSecret(const void* data, size_t size);

// Marks [data, data+size) as public again.  This is the dynamic half of
// declassification; Secret<T>::Declassify() calls it on the returned copy.
void UnpoisonSecret(const void* data, size_t size);

// Declassifies a single word in place: unpoisons it and passes it through
// the value barrier.  Used where constant-time code ends in a deliberately
// public bit (a tag-compare verdict, a point-at-infinity flag).
uint64_t Declassify(uint64_t v);

// Declassifies a mask into a branchable bool (true when mask is nonzero).
bool DeclassifyBit(uint64_t mask);

// Applies Poison/UnpoisonSecret to an object: contiguous containers (Bytes,
// std::array) are covered element storage; trivially-copyable values (U256)
// are covered byte-wise.
template <typename T>
void PoisonObject(T& v) {
  if constexpr (requires { v.data(); v.size(); }) {
    PoisonSecret(v.data(), v.size() * sizeof(*v.data()));
  } else {
    static_assert(std::is_trivially_copyable_v<T>);
    PoisonSecret(&v, sizeof(T));
  }
}

template <typename T>
void UnpoisonObject(const T& v) {
  if constexpr (requires { v.data(); v.size(); }) {
    UnpoisonSecret(v.data(), v.size() * sizeof(*v.data()));
  } else {
    static_assert(std::is_trivially_copyable_v<T>);
    UnpoisonSecret(&v, sizeof(T));
  }
}

}  // namespace ct

// Taint wrapper for secret values.  See the file comment for the rules; in
// short: construct freely, pass around freely, but *use* the value only via
// Expose() (constant-time code inside src/crypto/) or Declassify() (the
// documented escape hatch).
template <typename T>
class Secret {
 public:
  Secret() = default;
  explicit Secret(const T& value) : value_(value) {}
  explicit Secret(T&& value) : value_(std::move(value)) {}

  // The operations a secret must never flow into, deleted so the mistake is
  // a compile error rather than a lint finding:
  bool operator==(const Secret&) const = delete;   // comparisons leak
  template <typename U>
  bool operator==(const U&) const = delete;
  explicit operator bool() const = delete;          // branches leak
  template <typename I>
  void operator[](I) const = delete;                // secret-indexed loads leak

  // Read access for constant-time code.  Call sites outside src/crypto/ are
  // rejected by lint rule `secret-expose`; the value KEEPS its taint (the
  // dynamic verifier still tracks it).
  const T& Expose() const { return value_; }
  // Mutable access, same rules; exists so generation code can fill the value
  // in place and the harness can poison it.
  T& ExposeMutable() { return value_; }

  // Explicit declassification: returns a copy released from poison tracking.
  // Every call site must justify itself with a same-line
  // `// ct:declassify(<reason>)` comment (lint rule
  // `ct-declassify-reason`) and is expected to appear in the
  // declassification registry in docs/constant-time.md.
  T Declassify() const {
    T copy = value_;
    ct::UnpoisonObject(copy);
    return copy;
  }

 private:
  T value_;
};

using SecretBytes = Secret<Bytes>;

}  // namespace prochlo

#endif  // PROCHLO_SRC_CRYPTO_CT_H_
