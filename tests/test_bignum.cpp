// BigUInt arithmetic: unit tests plus randomized property sweeps that
// cross-check mul/divmod/modpow against 64-bit native arithmetic and against
// algebraic identities at larger widths.

#include <gtest/gtest.h>

#include "crypto/bignum.hpp"
#include "util/rng.hpp"

namespace rvaas::crypto {
namespace {

using util::Rng;

BigUInt random_bits(Rng& rng, std::size_t max_bits) {
  const std::size_t bits = 1 + rng.below(max_bits);
  BigUInt bound = BigUInt(1).shift_left(bits);
  return BigUInt::random_below(rng, bound);
}

TEST(BigUInt, ZeroAndSmallValues) {
  EXPECT_TRUE(BigUInt{}.is_zero());
  EXPECT_TRUE(BigUInt(0).is_zero());
  EXPECT_FALSE(BigUInt(1).is_zero());
  EXPECT_EQ(BigUInt(5).to_u64(), 5u);
  EXPECT_EQ(BigUInt{}.bit_length(), 0u);
  EXPECT_EQ(BigUInt(1).bit_length(), 1u);
  EXPECT_EQ(BigUInt(255).bit_length(), 8u);
  EXPECT_EQ(BigUInt(256).bit_length(), 9u);
}

TEST(BigUInt, U64RoundTrip) {
  const std::uint64_t v = 0xfedcba9876543210ULL;
  EXPECT_EQ(BigUInt(v).to_u64(), v);
}

TEST(BigUInt, HexRoundTrip) {
  const std::string hex = "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b9";
  EXPECT_EQ(BigUInt::from_hex(hex).to_hex(), hex);
  EXPECT_EQ(BigUInt::from_hex("0").to_hex(), "0");
  EXPECT_EQ(BigUInt::from_hex("00ff").to_hex(), "ff");
}

TEST(BigUInt, BytesRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const BigUInt v = random_bits(rng, 300);
    EXPECT_EQ(BigUInt::from_bytes(v.to_bytes()), v);
    EXPECT_EQ(BigUInt::from_bytes(v.to_bytes(64)), v);  // padded
  }
}

TEST(BigUInt, ToBytesFixedLengthThrowsWhenTooSmall) {
  EXPECT_THROW(BigUInt(0x1234).to_bytes(1), util::InvariantViolation);
  EXPECT_EQ(BigUInt(0x1234).to_bytes(2), (util::Bytes{0x12, 0x34}));
}

TEST(BigUInt, CompareOrdering) {
  EXPECT_LT(BigUInt(3), BigUInt(4));
  EXPECT_GT(BigUInt(1).shift_left(100), BigUInt(~std::uint64_t{0}));
  EXPECT_EQ(BigUInt(7).compare(BigUInt(7)), 0);
}

TEST(BigUInt, AddSubInverseProperty) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const BigUInt a = random_bits(rng, 256);
    const BigUInt b = random_bits(rng, 256);
    const BigUInt sum = a.add(b);
    EXPECT_EQ(sum.sub(b), a);
    EXPECT_EQ(sum.sub(a), b);
  }
}

TEST(BigUInt, SubUnderflowThrows) {
  EXPECT_THROW(BigUInt(3).sub(BigUInt(4)), util::InvariantViolation);
}

TEST(BigUInt, MulMatchesNativeU64) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.next_u64() >> 33;  // 31 bits
    const std::uint64_t b = rng.next_u64() >> 33;
    EXPECT_EQ(BigUInt(a).mul(BigUInt(b)).to_u64(), a * b);
  }
}

TEST(BigUInt, MulCommutativeAndDistributive) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const BigUInt a = random_bits(rng, 200);
    const BigUInt b = random_bits(rng, 200);
    const BigUInt c = random_bits(rng, 200);
    EXPECT_EQ(a.mul(b), b.mul(a));
    EXPECT_EQ(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
  }
}

TEST(BigUInt, ShiftsInverse) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const BigUInt a = random_bits(rng, 300);
    const std::size_t k = rng.below(200);
    EXPECT_EQ(a.shift_left(k).shift_right(k), a);
  }
}

TEST(BigUInt, DivModMatchesNativeU64) {
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = 1 + rng.below(1u << 31);
    const auto [q, r] = BigUInt(a).divmod(BigUInt(b));
    EXPECT_EQ(q.to_u64(), a / b);
    EXPECT_EQ(r.to_u64(), a % b);
  }
}

// The defining property of division: a == q*b + r with 0 <= r < b. This
// sweeps multi-limb divisors, exercising the Knuth D corner cases.
TEST(BigUInt, DivModPropertyLargeOperands) {
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const BigUInt a = random_bits(rng, 512);
    BigUInt b = random_bits(rng, 280);
    if (b.is_zero()) b = BigUInt(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q.mul(b).add(r), a);
  }
}

TEST(BigUInt, DivModQhatCorrectionEdge) {
  // Dividend engineered so the top limbs of u and v are equal, which forces
  // the qhat >= base branch in Knuth D.
  const BigUInt v = BigUInt::from_hex("ffffffff00000000ffffffff");
  const BigUInt u = v.shift_left(64).add(v);
  const auto [q, r] = u.divmod(v);
  EXPECT_EQ(q.mul(v).add(r), u);
  EXPECT_LT(r, v);
}

TEST(BigUInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigUInt(5).divmod(BigUInt{}), util::InvariantViolation);
}

TEST(BigUInt, ModPowMatchesNative) {
  Rng rng(8);
  auto native_modpow = [](std::uint64_t b, std::uint64_t e, std::uint64_t m) {
    std::uint64_t result = 1 % m;
    b %= m;
    while (e) {
      if (e & 1) result = (__uint128_t(result) * b) % m;
      b = (__uint128_t(b) * b) % m;
      e >>= 1;
    }
    return result;
  };
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t b = rng.next_u64() >> 16;
    const std::uint64_t e = rng.next_u64() >> 48;
    const std::uint64_t m = 2 + rng.below(1u << 30);
    EXPECT_EQ(BigUInt::modpow(BigUInt(b), BigUInt(e), BigUInt(m)).to_u64(),
              native_modpow(b, e, m));
  }
}

TEST(BigUInt, ModPowFermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p, gcd(a, p) = 1.
  const BigUInt p = BigUInt::from_hex(
      "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b97bc31878ef175983");
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    const BigUInt a =
        BigUInt::random_below(rng, p.sub(BigUInt(2))).add(BigUInt(1));
    EXPECT_EQ(BigUInt::modpow(a, p.sub(BigUInt(1)), p), BigUInt(1));
  }
}

TEST(BigUInt, ModAddReduces) {
  const BigUInt m(100);
  EXPECT_EQ(BigUInt::modadd(BigUInt(60), BigUInt(70), m), BigUInt(30));
  EXPECT_EQ(BigUInt::modadd(BigUInt(10), BigUInt(20), m), BigUInt(30));
}

TEST(BigUInt, RandomBelowStaysInBounds) {
  Rng rng(10);
  const BigUInt bound = BigUInt::from_hex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigUInt::random_below(rng, bound), bound);
  }
}

TEST(BigUInt, PrimalityKnownPrimesAndComposites) {
  Rng rng(11);
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt(2), rng));
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt(3), rng));
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt(65537), rng));
  EXPECT_TRUE(BigUInt::is_probable_prime(BigUInt(0xffffffffffffffc5ULL), rng));
  EXPECT_FALSE(BigUInt::is_probable_prime(BigUInt(1), rng));
  EXPECT_FALSE(BigUInt::is_probable_prime(BigUInt(65537ULL * 3), rng));
  EXPECT_FALSE(BigUInt::is_probable_prime(
      BigUInt(6700417ULL).mul(BigUInt(6700417ULL)), rng));
}

TEST(BigUInt, DefaultGroupPrimesArePrime) {
  Rng rng(12);
  const BigUInt p = BigUInt::from_hex(
      "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b97bc31878ef175983");
  const BigUInt q = BigUInt::from_hex(
      "6feacf6be24f6e6fbbd338de198dfbc2afc6a8c29a1f61dcbde18c3c778bacc1");
  EXPECT_TRUE(BigUInt::is_probable_prime(p, rng, 16));
  EXPECT_TRUE(BigUInt::is_probable_prime(q, rng, 16));
  EXPECT_EQ(q.mul(BigUInt(2)).add(BigUInt(1)), p);  // safe prime structure
}

// --- Differential tests: windowed / joint exponentiation and Jacobi ---

const BigUInt kGroupP = BigUInt::from_hex(
    "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b97bc31878ef175983");
const BigUInt kGroupQ = BigUInt::from_hex(
    "6feacf6be24f6e6fbbd338de198dfbc2afc6a8c29a1f61dcbde18c3c778bacc1");

/// Reference: right-to-left binary square-and-multiply, one bit at a time.
BigUInt naive_modpow(const BigUInt& base, const BigUInt& exp,
                     const BigUInt& m) {
  BigUInt result(1);
  BigUInt acc = base.mod(m);
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = BigUInt::modmul(result, acc, m);
    acc = BigUInt::modmul(acc, acc, m);
  }
  return result;
}

/// Exponents that stress window boundaries: 0, 1, 15, 16, 2^k - 1 around
/// limb and window edges, q and p - 1, plus seeded 256-bit values.
std::vector<BigUInt> edge_exponents(Rng& rng) {
  const BigUInt one(1);
  std::vector<BigUInt> exps = {BigUInt{}, one, BigUInt(15), BigUInt(16),
                               kGroupQ, kGroupP.sub(one)};
  for (const std::size_t k : {3u, 4u, 5u, 8u, 31u, 32u, 33u, 64u, 255u, 256u}) {
    exps.push_back(one.shift_left(k).sub(one));
  }
  for (int i = 0; i < 6; ++i) {
    exps.push_back(BigUInt::random_below(rng, one.shift_left(256)));
  }
  return exps;
}

TEST(BigUIntDifferential, WindowedModPowMatchesNaive) {
  Rng rng(20);
  const BigUInt one(1);
  const BigUInt top = one.shift_left(255);
  // The group prime, and a seeded 256-bit modulus made odd and even.
  BigUInt odd = BigUInt::random_below(rng, top).add(top);
  if (!odd.is_odd()) odd = odd.add(one);
  const std::vector<BigUInt> moduli = {kGroupP, odd, odd.sub(one)};
  const std::vector<BigUInt> exps = edge_exponents(rng);
  for (const BigUInt& m : moduli) {
    // Seeded 256-bit bases (some above m, exercising the reduction) plus
    // the degenerate 0, 1 and m - 1.
    std::vector<BigUInt> bases = {BigUInt{}, one, m.sub(one), BigUInt(4)};
    for (int i = 0; i < 3; ++i) {
      bases.push_back(BigUInt::random_below(rng, one.shift_left(256)));
    }
    for (const BigUInt& b : bases) {
      for (const BigUInt& e : exps) {
        EXPECT_EQ(BigUInt::modpow(b, e, m), naive_modpow(b, e, m))
            << "b=" << b.to_hex() << " e=" << e.to_hex()
            << " m=" << m.to_hex();
      }
    }
  }
}

TEST(BigUIntDifferential, JointModPowMatchesProductOfPowers) {
  Rng rng(21);
  const BigUInt g(4);
  const BigUInt one(1);
  std::vector<BigUInt> exps = edge_exponents(rng);
  for (int i = 0; i < 6; ++i) {
    exps.push_back(BigUInt::random_below(rng, kGroupQ));
  }
  for (int i = 0; i < 4; ++i) {
    const BigUInt y = BigUInt::random_below(rng, one.shift_left(256));
    for (std::size_t j = 0; j < exps.size(); ++j) {
      // Pair every exponent with a rotated partner so the two sides differ
      // in length, including one side zero.
      const BigUInt& s = exps[j];
      const BigUInt& t = exps[(j + 1 + static_cast<std::size_t>(i)) %
                              exps.size()];
      EXPECT_EQ(BigUInt::modpow2(g, s, y, t, kGroupP),
                BigUInt::modmul(BigUInt::modpow(g, s, kGroupP),
                                BigUInt::modpow(y, t, kGroupP), kGroupP))
          << "s=" << s.to_hex() << " y=" << y.to_hex()
          << " t=" << t.to_hex();
    }
  }
  EXPECT_EQ(BigUInt::modpow2(g, BigUInt{}, g, BigUInt{}, kGroupP), one);
}

/// Euler's criterion a^((p-1)/2) mod p, mapped to {-1, 0, 1}.
int euler_u64(std::uint64_t a, std::uint64_t p) {
  std::uint64_t result = 1;
  std::uint64_t b = a % p;
  for (std::uint64_t e = (p - 1) / 2; e; e >>= 1) {
    if (e & 1) result = result * b % p;
    b = b * b % p;
  }
  if (a % p == 0) return 0;
  return result == 1 ? 1 : -1;
}

TEST(BigUIntDifferential, JacobiMatchesEulerForSmallPrimes) {
  std::vector<bool> composite(2000, false);
  for (std::uint64_t p = 3; p < 2000; p += 2) {
    if (composite[p]) continue;
    for (std::uint64_t k = p * p; k < 2000; k += p) composite[k] = true;
    for (std::uint64_t a = 0; a < p; ++a) {
      ASSERT_EQ(BigUInt::jacobi(BigUInt(a), BigUInt(p)), euler_u64(a, p))
          << "a=" << a << " p=" << p;
    }
  }
}

TEST(BigUIntDifferential, JacobiMatchesEulerForGroupPrime) {
  Rng rng(22);
  const BigUInt one(1);
  const BigUInt minus_one = kGroupP.sub(one);
  for (int i = 0; i < 1000; ++i) {
    const BigUInt a = BigUInt::random_below(rng, kGroupP);
    const BigUInt euler = BigUInt::modpow(a, kGroupQ, kGroupP);
    ASSERT_TRUE(a.is_zero() || euler == one || euler == minus_one);
    const int expected = a.is_zero() ? 0 : (euler == one ? 1 : -1);
    EXPECT_EQ(BigUInt::jacobi(a, kGroupP), expected) << "a=" << a.to_hex();
  }
}

TEST(BigUIntDifferential, JacobiIsMultiplicativeInTheModulus) {
  // (a | n) is the product of (a | p) over the prime factors of odd n, and
  // 0 whenever gcd(a, n) > 1.
  for (std::uint64_t n = 1; n < 400; n += 2) {
    for (std::uint64_t a = 0; a < 2 * n; ++a) {
      int expected = 1;
      std::uint64_t rest = n;
      for (std::uint64_t p = 3; p <= rest; p += 2) {
        while (rest % p == 0) {
          expected *= euler_u64(a, p);
          rest /= p;
        }
      }
      ASSERT_EQ(BigUInt::jacobi(BigUInt(a), BigUInt(n)), expected)
          << "a=" << a << " n=" << n;
    }
  }
  EXPECT_THROW(BigUInt::jacobi(BigUInt(3), BigUInt(10)),
               util::InvariantViolation);
}

}  // namespace
}  // namespace rvaas::crypto
