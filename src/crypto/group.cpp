#include "crypto/group.hpp"

#include <utility>

#include "util/ensure.hpp"

namespace rvaas::crypto {

Group::Group(BigUInt p_in, BigUInt q_in, BigUInt g_in)
    : p(std::move(p_in)), q(std::move(q_in)), g(std::move(g_in)) {
  g_powers_.reserve(kDigits * kRowSize);
  BigUInt base = g.mod(p);  // g^(16^i)
  for (std::size_t i = 0; i < kDigits; ++i) {
    g_powers_.push_back(base);
    for (std::size_t d = 2; d <= kRowSize; ++d) {
      g_powers_.push_back(BigUInt::modmul(g_powers_.back(), base, p));
    }
    base = BigUInt::modmul(g_powers_.back(), base, p);
  }
}

BigUInt Group::exp(const BigUInt& x) const {
  util::ensure(x.bit_length() <= kExpBits, "Group::exp exponent >= 2^256");
  // g^x = prod_i g^(d_i * 16^i) over the base-16 digits d_i of x.
  BigUInt result(1);
  const std::size_t digits = (x.bit_length() + kDigitBits - 1) / kDigitBits;
  for (std::size_t i = 0; i < digits; ++i) {
    std::size_t d = 0;
    for (std::size_t b = kDigitBits; b-- > 0;) {
      d = (d << 1) | (x.bit(i * kDigitBits + b) ? 1 : 0);
    }
    if (d != 0) {
      result = BigUInt::modmul(result, g_powers_[kRowSize * i + d - 1], p);
    }
  }
  return result;
}

bool Group::is_element(const BigUInt& e) const {
  // For a safe prime p = 2q + 1 the order-q subgroup is exactly the
  // quadratic residues mod p, so Euler's criterion e^q == 1 is the Jacobi
  // symbol (e | p) == 1: no exponentiation needed.
  if (e.is_zero() || e >= p) return false;
  return BigUInt::jacobi(e, p) == 1;
}

const Group& default_group() {
  // 256-bit safe prime p = 2q + 1, generated offline with seed 20160609
  // (the paper's submission year/venue) and verified with 40 Miller-Rabin
  // rounds on both p and q. g = 4 = 2^2 is a quadratic residue, hence a
  // generator of the order-q subgroup.
  static const Group group(
      BigUInt::from_hex(
          "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b97bc31878ef175983"),
      BigUInt::from_hex(
          "6feacf6be24f6e6fbbd338de198dfbc2afc6a8c29a1f61dcbde18c3c778bacc1"),
      BigUInt(4));
  return group;
}

}  // namespace rvaas::crypto
