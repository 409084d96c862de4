#include "crypto/group.hpp"

namespace rvaas::crypto {

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
  static const Group group = [] {
    Group g;
    g.p = BigUInt::from_hex(
        "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b97bc31878ef175983");
    g.q = BigUInt::from_hex(
        "6feacf6be24f6e6fbbd338de198dfbc2afc6a8c29a1f61dcbde18c3c778bacc1");
    g.g = BigUInt(4);
    return g;
  }();
  return group;
}

}  // namespace rvaas::crypto
