#pragma once
// Schnorr group: prime-order subgroup of Z_p^* for a safe prime p = 2q + 1.
// The default group uses a fixed 256-bit safe prime (generated offline from a
// fixed seed). Simulation-grade parameters: a production deployment would use
// Ed25519 or a 2048-bit MODP group; the protocol code is parameter-agnostic.

#include "crypto/bignum.hpp"

namespace rvaas::crypto {

struct Group {
  BigUInt p;  ///< safe prime modulus
  BigUInt q;  ///< subgroup order, q = (p - 1) / 2
  BigUInt g;  ///< generator of the order-q subgroup

  /// Number of bytes needed to serialize a group element.
  std::size_t element_bytes() const { return (p.bit_length() + 7) / 8; }

  /// g^x mod p
  BigUInt exp(const BigUInt& x) const { return BigUInt::modpow(g, x, p); }

  /// true iff e is a valid element of the order-q subgroup (0 < e < p and
  /// e^q == 1, decided as the Legendre symbol (e | p) == 1).
  bool is_element(const BigUInt& e) const;
};

/// The library-wide default group (cached; thread-safe initialization).
const Group& default_group();

}  // namespace rvaas::crypto
