// ctgrind-style dynamic constant-time verifier.
//
// The idea (Langley's ctgrind): mark secret bytes as *undefined* for
// valgrind/MSan shadow tracking, run the real crypto, and let the tool flag
// any branch or memory address computed from them — exactly the signals a
// timing attacker sees.  The static taint lint (scripts/lint.py) reasons
// about names; this harness tracks the actual data flow, so the two cover
// each other's blind spots.
//
// Usage:  ct_harness <scenario> [--inject=branch|index|tag-memcmp]
//
// Scenarios (all must be shadow-clean under valgrind/MSan):
//   ecdh             poisoned long-term scalar -> EcdhSharedSecret
//   elgamal-decrypt  poisoned private key -> ElGamalDecrypt (ct ladder)
//   ecdh-batch       poisoned long-term scalar -> EcdhSharedSecretBatch over
//                    a 65-point chunk with an identity entry (batched ct lane)
//   elgamal-decrypt-batch
//                    poisoned private key -> ElGamalDecryptBatch over the
//                    same chunk shape
//   gcm-verify       poisoned 16 provided-tag bytes -> AesGcm::Open
//   hmac-verify      poisoned key and expected MAC -> HmacVerify
//   all              every scenario above in sequence
//
// --inject deliberately violates the discipline on poisoned bytes (a branch,
// a secret-indexed load, an early-exit memcmp).  scripts/ct_verify.sh runs
// the positives expecting a clean shadow report AND the negatives expecting
// the tool to complain — a verifier that can't see planted bugs proves
// nothing.
//
// Without a backend (plain build, no valgrind) the poison calls are no-ops
// and this binary is a plain functional smoke test; it prints
// `backend-active=no` so the driver knows the run carries no ct evidence.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/crypto/ct.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/gcm.h"
#include "src/crypto/hash_to_curve.h"
#include "src/crypto/hmac.h"
#include "src/crypto/keys.h"
#include "src/crypto/p256.h"
#include "src/crypto/random.h"

namespace prochlo {
namespace {

// Shared across injections so the violating loads can't be optimized out.
volatile uint8_t g_sink;

bool ScenarioEcdh() {
  SecureRandom rng(ToBytes("ct-harness-ecdh"));
  KeyPair a = KeyPair::Generate(rng);
  KeyPair b = KeyPair::Generate(rng);
  // Poison only a's scalar: the b-side run stays clean and provides the
  // expected value for the functional check.
  ct::PoisonObject(a.private_key.ExposeMutable());
  auto ab = EcdhSharedSecret(a.private_key, b.public_key);
  auto ba = EcdhSharedSecret(b.private_key, a.public_key);
  if (!ab.has_value() || !ba.has_value()) {
    return false;
  }
  // ct:declassify(harness-side agreement check on the finished shared secret)
  return ab->Declassify() == ba->Declassify();
}

bool ScenarioElGamalDecrypt() {
  SecureRandom rng(ToBytes("ct-harness-elgamal"));
  KeyPair recipient = KeyPair::Generate(rng);
  EcPoint message = HashToCurve(std::string("ct-harness-message"));
  ElGamalCiphertext ciphertext = ElGamalEncrypt(recipient.public_key, message, rng);
  ct::PoisonObject(recipient.private_key.ExposeMutable());
  EcPoint opened = ElGamalDecrypt(recipient.private_key, ciphertext);
  return opened == message;
}

// A 65-point chunk for the batch scenarios: one past the analyzer's 64-box
// chunk, with the identity at slot 3.  The points are public, so they stay
// unpoisoned; only the long-term scalar is.
std::vector<EcPoint> BatchChunkPoints(SecureRandom& rng) {
  const P256& curve = P256::Get();
  std::vector<EcPoint> points;
  for (int i = 0; i < 65; ++i) {
    points.push_back(i == 3 ? EcPoint::Infinity()
                            : curve.BaseMult(rng.RandomScalar(curve.order())));
  }
  return points;
}

bool ScenarioEcdhBatch() {
  SecureRandom rng(ToBytes("ct-harness-ecdh-batch"));
  KeyPair a = KeyPair::Generate(rng);
  std::vector<EcPoint> peers = BatchChunkPoints(rng);
  // The clean copy of the scalar computes the expected values.
  Secret<U256> clean(a.private_key.Expose());
  ct::PoisonObject(a.private_key.ExposeMutable());
  auto poisoned = EcdhSharedSecretBatch(a.private_key, peers);
  auto expected = EcdhSharedSecretBatch(clean, peers);
  if (poisoned.size() != peers.size() || poisoned[3].has_value()) {
    return false;
  }
  for (size_t i = 0; i < peers.size(); ++i) {
    if (poisoned[i].has_value() != expected[i].has_value()) {
      return false;
    }
    // ct:declassify(harness-side agreement check on the finished shared secrets)
    if (poisoned[i].has_value() && !(poisoned[i]->Declassify() == expected[i]->Declassify())) {
      return false;
    }
  }
  return true;
}

bool ScenarioElGamalDecryptBatch() {
  SecureRandom rng(ToBytes("ct-harness-elgamal-batch"));
  KeyPair recipient = KeyPair::Generate(rng);
  std::vector<EcPoint> c1s = BatchChunkPoints(rng);
  // Ciphertexts (c1, M) with arbitrary c1: decrypt yields M - x*c1, which
  // the clean run computes independently.  The identity c1 decrypts to M.
  std::vector<ElGamalCiphertext> cts;
  for (size_t i = 0; i < c1s.size(); ++i) {
    cts.push_back(ElGamalCiphertext{c1s[i], HashToCurve("ct-harness-msg-" + std::to_string(i))});
  }
  Secret<U256> clean(recipient.private_key.Expose());
  ct::PoisonObject(recipient.private_key.ExposeMutable());
  std::vector<EcPoint> opened = ElGamalDecryptBatch(recipient.private_key, cts);
  std::vector<EcPoint> expected = ElGamalDecryptBatch(clean, cts);
  return opened == expected && opened[3] == cts[3].c2;
}

bool ScenarioGcmVerify() {
  // The key itself is NOT poisoned: the AES key schedule is table-driven and
  // deliberately outside the ct contract (see docs/constant-time.md).  What
  // must be constant-time is the tag comparison, so poison the 16
  // provided-tag bytes the verifier compares against.
  Bytes key(16, 0x42);
  AesGcm aead((ByteSpan(key)));
  GcmNonce nonce{};
  nonce[0] = 7;
  Bytes plaintext = ToBytes("ct-harness gcm payload");
  Bytes aad = ToBytes("aad");
  Bytes sealed = aead.Seal(nonce, plaintext, aad);
  ct::PoisonSecret(sealed.data() + sealed.size() - kGcmTagSize, kGcmTagSize);
  auto opened = aead.Open(nonce, sealed, aad);
  return opened.has_value() && *opened == plaintext;
}

bool ScenarioHmacVerify() {
  // Both the MAC key and the expected MAC are secrets here; SHA-256 is pure
  // arithmetic, so the taint must flow through the whole recomputation and
  // die only at the declassified verdict inside ct::CtEq.
  Bytes key(32, 0x5a);
  Bytes data = ToBytes("ct-harness hmac message");
  Sha256Digest mac = HmacSha256(ByteSpan(key), ByteSpan(data));
  ct::PoisonSecret(key.data(), key.size());
  ct::PoisonSecret(mac.data(), mac.size());
  return HmacVerify(ByteSpan(key), ByteSpan(data),
                    ByteSpan(mac.data(), mac.size()));
}

// Planted violations: each does to a poisoned byte exactly what the
// discipline forbids.  A working backend MUST report these.
int RunInjection(const std::string& kind) {
  Bytes secret(32, 0xc3);
  ct::PoisonSecret(secret.data(), secret.size());
  if (kind == "branch") {
    if (secret[0] & 1) {  // secret-dependent branch
      g_sink = 1;
    }
    return 0;
  }
  if (kind == "index") {
    static const uint8_t table[256] = {1};
    g_sink = table[secret[1]];  // secret-derived address
    return 0;
  }
  if (kind == "tag-memcmp") {
    uint8_t other[16] = {0};
    if (std::memcmp(secret.data(), other, sizeof(other)) == 0) {  // early exit
      g_sink = 2;
    }
    return 0;
  }
  std::fprintf(stderr, "ct_harness: unknown injection '%s'\n", kind.c_str());
  return 2;
}

int Run(const std::string& scenario, const std::string& inject) {
  std::printf("backend-active=%s\n", ct::PoisonBackendActive() ? "yes" : "no");
  if (!inject.empty()) {
    return RunInjection(inject);
  }
  struct Entry {
    const char* name;
    bool (*fn)();
  };
  static const Entry kScenarios[] = {
      {"ecdh", &ScenarioEcdh},
      {"elgamal-decrypt", &ScenarioElGamalDecrypt},
      {"ecdh-batch", &ScenarioEcdhBatch},
      {"elgamal-decrypt-batch", &ScenarioElGamalDecryptBatch},
      {"gcm-verify", &ScenarioGcmVerify},
      {"hmac-verify", &ScenarioHmacVerify},
  };
  bool matched = false;
  bool all_ok = true;
  for (const Entry& e : kScenarios) {
    if (scenario != "all" && scenario != e.name) {
      continue;
    }
    matched = true;
    bool ok = e.fn();
    std::printf("scenario=%s ok=%d\n", e.name, ok ? 1 : 0);
    all_ok = all_ok && ok;
  }
  if (!matched) {
    std::fprintf(stderr, "ct_harness: unknown scenario '%s'\n", scenario.c_str());
    return 2;
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace prochlo

int main(int argc, char** argv) {
  std::string scenario;
  std::string inject;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--inject=", 0) == 0) {
      inject = arg.substr(9);
    } else if (scenario.empty()) {
      scenario = arg;
    }
  }
  if (scenario.empty() && inject.empty()) {
    std::fprintf(stderr,
                 "usage: ct_harness <ecdh|elgamal-decrypt|ecdh-batch|elgamal-decrypt-batch|"
                 "gcm-verify|hmac-verify|all>"
                 " [--inject=branch|index|tag-memcmp]\n");
    return 2;
  }
  if (scenario.empty()) {
    scenario = "all";
  }
  return prochlo::Run(scenario, inject);
}
