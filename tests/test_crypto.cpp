// SHA-256 / HMAC against official vectors; DRBG, Schnorr signatures and
// sealed boxes including tamper cases.

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/group.hpp"
#include "crypto/hmac.hpp"
#include "crypto/seal.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "util/ensure.hpp"
#include "util/hex.hpp"

namespace rvaas::crypto {
namespace {

using util::Bytes;
using util::from_hex;
using util::to_hex;

std::string hex_of(const Digest32& d) { return to_hex(d); }

// --- Fixed-base table: concurrent first use ---

// Declared first so that, in a default run, these threads make the process's
// first default_group() calls: the table is built under the static-local
// guard while all of them wait on it (the TSan job runs this suite).
TEST(GroupTable, ConcurrentFirstUseAgrees) {
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<BigUInt> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&start, &results, i] {
      start.arrive_and_wait();
      results[static_cast<std::size_t>(i)] =
          default_group().exp(BigUInt(0xc0ffee + static_cast<std::uint64_t>(i)));
    });
  }
  for (auto& t : threads) t.join();
  const Group& g = default_group();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)],
              BigUInt::modpow(
                  g.g, BigUInt(0xc0ffee + static_cast<std::uint64_t>(i)), g.p));
  }
}

// --- SHA-256: NIST / FIPS 180-4 vectors ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("ab").update("c");
  EXPECT_EQ(h.finalize(), sha256("abc"));
}

TEST(Sha256, ExactBlockBoundary) {
  const std::string block(64, 'x');
  const std::string two_blocks(128, 'x');
  // Values computed by the same padding rules; check self-consistency between
  // chunked and one-shot hashing at block boundaries.
  Sha256 a;
  a.update(block);
  a.update(block);
  EXPECT_EQ(a.finalize(), sha256(two_blocks));
}

TEST(Sha256, ReuseAfterFinalizeThrows) {
  Sha256 h;
  h.finalize();
  EXPECT_THROW(h.update("x"), util::InvariantViolation);
  Sha256 h2;
  h2.finalize();
  EXPECT_THROW(h2.finalize(), util::InvariantViolation);
}

// --- HMAC-SHA-256: RFC 4231 vectors ---

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = util::to_bytes("Hi There");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const Bytes key = util::to_bytes("Jefe");
  const Bytes msg = util::to_bytes("what do ya want for nothing?");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes msg = util::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DigestEqual) {
  const Digest32 a = sha256("x");
  Digest32 b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

// --- DRBG / stream ---

TEST(Keystream, DeterministicAndLengthExact) {
  const Bytes key = util::to_bytes("key");
  const Bytes info = util::to_bytes("info");
  const Bytes a = keystream(key, info, 100);
  const Bytes b = keystream(key, info, 100);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_NE(keystream(key, util::to_bytes("other"), 100), a);
}

TEST(Keystream, PrefixProperty) {
  const Bytes key = util::to_bytes("key");
  const Bytes info = util::to_bytes("info");
  const Bytes long_ks = keystream(key, info, 96);
  const Bytes short_ks = keystream(key, info, 40);
  EXPECT_TRUE(std::equal(short_ks.begin(), short_ks.end(), long_ks.begin()));
}

TEST(XorStream, Involutive) {
  const Bytes key = util::to_bytes("key");
  const Bytes nonce = util::to_bytes("nonce");
  const Bytes plain = util::to_bytes("attack at dawn");
  const Bytes cipher = xor_stream(key, nonce, plain);
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(xor_stream(key, nonce, cipher), plain);
}

// --- Group ---

TEST(Group, DefaultGroupStructure) {
  const Group& g = default_group();
  EXPECT_EQ(g.q.mul(BigUInt(2)).add(BigUInt(1)), g.p);
  EXPECT_TRUE(g.is_element(g.g));
  EXPECT_TRUE(g.is_element(g.exp(BigUInt(12345))));
  EXPECT_FALSE(g.is_element(BigUInt{}));
  EXPECT_FALSE(g.is_element(g.p));
  EXPECT_EQ(g.element_bytes(), 32u);
}

TEST(Group, TableExpMatchesModPow) {
  const Group& g = default_group();
  const BigUInt one(1);
  const BigUInt max = one.shift_left(Group::kExpBits).sub(one);
  std::vector<BigUInt> exps = {BigUInt{}, one, g.q.sub(one), max};
  // Runs of all-zero 4-bit digits: lone digits at the ends and in the middle
  // of an otherwise zero exponent, and a full exponent with a zero gap.
  for (const std::size_t k : {4u, 60u, 128u, 252u, 255u}) {
    exps.push_back(one.shift_left(k));
  }
  exps.push_back(one.shift_left(252).add(BigUInt(0xf)));
  exps.push_back(max.sub(one.shift_left(200).sub(one.shift_left(64))));
  util::Rng rng(20160612);
  for (int i = 0; i < 2000; ++i) {
    exps.push_back(BigUInt::random_below(rng, one.shift_left(Group::kExpBits)));
  }
  for (const BigUInt& x : exps) {
    ASSERT_EQ(g.exp(x), BigUInt::modpow(g.g, x, g.p)) << "x=" << x.to_hex();
  }
}

TEST(Group, TableExpRejectsWideExponent) {
  const BigUInt wide = BigUInt(1).shift_left(Group::kExpBits);
  EXPECT_THROW(default_group().exp(wide), util::InvariantViolation);
}

TEST(Group, NonResidueRejected) {
  // 2 generates the full group of order 2q in a safe-prime group iff it is a
  // non-residue; either way, p-1 ( = -1 ) has order 2 and is not in the
  // order-q subgroup.
  const Group& g = default_group();
  EXPECT_FALSE(g.is_element(g.p.sub(BigUInt(1))));
}

// --- Signatures ---

TEST(Schnorr, SignVerifyRoundTrip) {
  util::Rng rng(100);
  const SigningKey sk = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("verify my routes");
  const Signature sig = sk.sign(msg);
  EXPECT_TRUE(sk.verify_key().verify(msg, sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  util::Rng rng(101);
  const SigningKey sk = SigningKey::generate(rng);
  const Signature sig = sk.sign(util::to_bytes("msg-a"));
  EXPECT_FALSE(sk.verify_key().verify(util::to_bytes("msg-b"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  util::Rng rng(102);
  const SigningKey a = SigningKey::generate(rng);
  const SigningKey b = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("msg");
  EXPECT_FALSE(b.verify_key().verify(msg, a.sign(msg)));
}

TEST(Schnorr, RejectsTamperedSignature) {
  util::Rng rng(103);
  const SigningKey sk = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("msg");
  Signature sig = sk.sign(msg);
  sig.s = sig.s.add(BigUInt(1)).mod(default_group().q);
  EXPECT_FALSE(sk.verify_key().verify(msg, sig));
}

TEST(Schnorr, DeterministicSignatures) {
  util::Rng rng(104);
  const SigningKey sk = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("msg");
  const Signature s1 = sk.sign(msg);
  const Signature s2 = sk.sign(msg);
  EXPECT_EQ(s1.e, s2.e);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Schnorr, SerializationRoundTrip) {
  util::Rng rng(105);
  const SigningKey sk = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("msg");
  const Signature sig = sk.sign(msg);

  util::ByteReader sr(sig.serialize());
  const Signature sig2 = Signature::deserialize(sr);
  EXPECT_TRUE(sk.verify_key().verify(msg, sig2));

  util::ByteReader kr(sk.verify_key().serialize());
  const VerifyKey vk2 = VerifyKey::deserialize(kr);
  EXPECT_EQ(vk2.id(), sk.verify_key().id());
  EXPECT_TRUE(vk2.verify(msg, sig));
}

TEST(Schnorr, DistinctKeysGetDistinctIds) {
  util::Rng rng(106);
  const SigningKey a = SigningKey::generate(rng);
  const SigningKey b = SigningKey::generate(rng);
  EXPECT_NE(a.verify_key().id(), b.verify_key().id());
}

// --- Sealed boxes ---

TEST(SealedBox, SealOpenRoundTrip) {
  util::Rng rng(200);
  const BoxOpener opener = BoxOpener::generate(rng);
  const Bytes plain = util::to_bytes("which endpoints can reach me?");
  const SealedBox box = opener.sealer().seal(rng, plain);
  const auto out = opener.open(box);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, plain);
}

TEST(SealedBox, WrongRecipientCannotOpen) {
  util::Rng rng(201);
  const BoxOpener alice = BoxOpener::generate(rng);
  const BoxOpener eve = BoxOpener::generate(rng);
  const SealedBox box = alice.sealer().seal(rng, util::to_bytes("secret"));
  EXPECT_FALSE(eve.open(box).has_value());
}

TEST(SealedBox, TamperedCipherRejected) {
  util::Rng rng(202);
  const BoxOpener opener = BoxOpener::generate(rng);
  SealedBox box = opener.sealer().seal(rng, util::to_bytes("secret"));
  box.cipher[0] ^= 1;
  EXPECT_FALSE(opener.open(box).has_value());
}

TEST(SealedBox, TamperedEphemeralRejected) {
  util::Rng rng(203);
  const BoxOpener opener = BoxOpener::generate(rng);
  SealedBox box = opener.sealer().seal(rng, util::to_bytes("secret"));
  box.ephemeral = box.ephemeral.add(BigUInt(1));
  EXPECT_FALSE(opener.open(box).has_value());
}

TEST(SealedBox, SerializationRoundTrip) {
  util::Rng rng(204);
  const BoxOpener opener = BoxOpener::generate(rng);
  const Bytes plain = util::to_bytes("payload");
  const SealedBox box = opener.sealer().seal(rng, plain);
  util::ByteReader r(box.serialize());
  const SealedBox box2 = SealedBox::deserialize(r);
  const auto out = opener.open(box2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, plain);
}

TEST(SealedBox, EmptyPlaintextSupported) {
  util::Rng rng(205);
  const BoxOpener opener = BoxOpener::generate(rng);
  const SealedBox box = opener.sealer().seal(rng, Bytes{});
  const auto out = opener.open(box);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(SealedBox, FreshEphemeralPerSeal) {
  util::Rng rng(206);
  const BoxOpener opener = BoxOpener::generate(rng);
  const Bytes plain = util::to_bytes("same plaintext");
  const SealedBox a = opener.sealer().seal(rng, plain);
  const SealedBox b = opener.sealer().seal(rng, plain);
  EXPECT_NE(a.ephemeral, b.ephemeral);
  EXPECT_NE(a.cipher, b.cipher);
}

// --- Additional known-answer vectors ---

// NIST CAVP SHA-256 short-message vectors (byte-oriented).
TEST(Sha256, NistOneByte) {
  const Bytes msg = from_hex("bd");
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(hex_of(h.finalize()),
            "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b");
}

TEST(Sha256, NistFourBytes) {
  const Bytes msg = from_hex("c98c8e55");
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(hex_of(h.finalize()),
            "7abc22c0ae5af26ce93dbb94433a0e0b2e119d014f8e7f65bd56c61ccccd9504");
}

// FIPS 180-4 appendix vector: the 448-bit two-block-boundary message "abc..."
// extended; here the 896-bit variant from SHA-2 test suites.
TEST(Sha256, FourBlockBoundaryMessage) {
  const std::string msg =
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  EXPECT_EQ(hex_of(sha256(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(HmacSha256, Rfc4231Case4) {
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i + 1);  // 0x01..0x19
  }
  const Bytes msg(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  const Bytes msg = util::to_bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// --- Randomized round-trips across message shapes ---

TEST(Schnorr, SignVerifyRoundTripsAcrossSizes) {
  util::Rng rng(300);
  const SigningKey sk = SigningKey::generate(rng);
  for (const std::size_t len : {0u, 1u, 31u, 32u, 33u, 64u, 255u, 1024u}) {
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    const Signature sig = sk.sign(msg);
    EXPECT_TRUE(sk.verify_key().verify(msg, sig)) << "len=" << len;
    if (!msg.empty()) {
      msg[len / 2] ^= 0x40;
      EXPECT_FALSE(sk.verify_key().verify(msg, sig)) << "len=" << len;
    }
  }
}

TEST(SealedBox, SealOpenRoundTripsAcrossSizes) {
  util::Rng rng(301);
  const BoxOpener opener = BoxOpener::generate(rng);
  for (const std::size_t len : {1u, 16u, 63u, 64u, 65u, 512u, 4096u}) {
    Bytes plain(len);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_u64());
    const SealedBox box = opener.sealer().seal(rng, plain);
    const auto out = opener.open(box);
    ASSERT_TRUE(out.has_value()) << "len=" << len;
    EXPECT_EQ(*out, plain) << "len=" << len;
  }
}


// --- Known-answer vectors: the exact bytes of the public-key arithmetic ---
//
// Recorded once and never regenerated: any change to modpow, the verify
// equation or the subgroup check must leave every byte below unchanged.

Bytes kib_message() {
  Bytes msg(1024);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return msg;
}

TEST(KnownAnswer, SchnorrKeyAndSignatureBytes) {
  util::Rng rng(20160609);
  const SigningKey sk = SigningKey::generate(rng);
  EXPECT_EQ(to_hex(sk.verify_key().serialize()),
            "20000000"
            "93f71cc77ed4e963fa32ab54c978ab73a0eeb3a0d09dbcc3118654e2bbdfc30b");

  const struct {
    Bytes message;
    const char* signature_hex;
  } cases[] = {
      {Bytes{},
       "20000000469e8597d3165292673c5afe99a3e2f96b248672ecfe0e13dae5e6e6bd045600"
       "20000000466e33aaabb1685b90b62794984eb26b5c7bdda0fbd63c35dfeb3c6a15205ccc"},
      {util::to_bytes("routing as agreed"),
       "200000000dbd605770186be484caa2a3a26c02b75cd9453928f3fc6046fa131164bc2d85"
       "20000000604b21916b89f84c9c166ba97937801d4de06a639ffba9334cc18486399aa095"},
      {kib_message(),
       "2000000053c213fa9c0ff7c2d611da662bd500fedbbb88dcfdd9246fedcff2f9475ea16c"
       "2000000034f5af8134457c15b0abf02cd4641961db6b591bcf07603cda6cc906250954d2"},
  };
  for (const auto& c : cases) {
    const Signature sig = sk.sign(c.message);
    EXPECT_EQ(to_hex(sig.serialize()), c.signature_hex)
        << "len=" << c.message.size();
    EXPECT_TRUE(sk.verify_key().verify(c.message, sig));
  }
}

TEST(KnownAnswer, SealedBoxBytes) {
  util::Rng rng(20160610);
  const BoxOpener opener = BoxOpener::generate(rng);
  EXPECT_EQ(opener.public_element().to_hex(),
            "3907dbeebe7e9e89e59b22823b9844db4ead61ada9fa3b31204281276ff2a743");
  const SealedBox box =
      opener.sealer().seal(rng, util::to_bytes("which endpoints can reach me?"));
  EXPECT_EQ(to_hex(box.serialize()),
            "2000000016ee0c63fc7265edcddbbcef5ba10930bd0c0908af87c6a6a45037ee0ede3c94"
            "100000008fbf3c005ad1298a10ca0368cf3713d8"
            "1d00000047cfe96fa91d53746f8c0622e843b40a6ab28a3f0e54309fc5a2e2137a"
            "f46747c624f3bdac9643a846342a26ea37d606532f6bc568c05f3a0fc2f586fc");
  ASSERT_TRUE(opener.open(box).has_value());
}

TEST(KnownAnswer, SubgroupMembershipTruthTable) {
  const Group& g = default_group();
  const BigUInt one(1);
  EXPECT_FALSE(g.is_element(BigUInt{}));
  EXPECT_TRUE(g.is_element(one));
  EXPECT_TRUE(g.is_element(g.g));
  EXPECT_FALSE(g.is_element(g.p.sub(one)));  // -1 has order 2
  EXPECT_FALSE(g.is_element(g.p));
  EXPECT_FALSE(g.is_element(g.p.add(one)));
  EXPECT_FALSE(g.is_element(BigUInt(2)));    // p = 3 mod 8: 2 is a non-residue
  EXPECT_TRUE(g.is_element(BigUInt(3)));     // 3^q = 1 mod p

  util::Rng rng(20160611);
  Sha256 elements;  // pins the 32 exponentiations themselves
  for (int i = 0; i < 32; ++i) {
    const BigUInt x = BigUInt::random_below(rng, g.q);
    const BigUInt e = g.exp(x);
    elements.update(e.to_bytes(g.element_bytes()));
    EXPECT_TRUE(g.is_element(e)) << "x=" << x.to_hex();
    // -e = (p-1)*e lies in the other coset, as does 2*e.
    EXPECT_FALSE(g.is_element(g.p.sub(e))) << "x=" << x.to_hex();
    EXPECT_FALSE(g.is_element(BigUInt::modmul(e, BigUInt(2), g.p)))
        << "x=" << x.to_hex();
  }
  EXPECT_EQ(hex_of(elements.finalize()), 
            "2026c3b71b8c37dcc64db4825d2a0696bd0d0bec85a1eb123ade61e79e3bfd12");
}

}  // namespace
}  // namespace rvaas::crypto
