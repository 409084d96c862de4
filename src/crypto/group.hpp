#pragma once
// Schnorr group: prime-order subgroup of Z_p^* for a safe prime p = 2q + 1.
// The default group uses a fixed 256-bit safe prime (generated offline from a
// fixed seed). Simulation-grade parameters: a production deployment would use
// Ed25519 or a 2048-bit MODP group; the protocol code is parameter-agnostic.

#include <vector>

#include "crypto/bignum.hpp"

namespace rvaas::crypto {

class Group {
 public:
  /// Exponents of exp() are below 2^kExpBits (every scalar mod q is).
  static constexpr std::size_t kExpBits = 256;

  /// Builds the fixed-base table for g (kExpBits / kDigitBits rows of 15
  /// modmuls each).
  Group(BigUInt p, BigUInt q, BigUInt g);

  BigUInt p;  ///< safe prime modulus
  BigUInt q;  ///< subgroup order, q = (p - 1) / 2
  BigUInt g;  ///< generator of the order-q subgroup

  /// Number of bytes needed to serialize a group element.
  std::size_t element_bytes() const { return (p.bit_length() + 7) / 8; }

  /// g^x mod p; x must be below 2^kExpBits. One table multiply per non-zero
  /// 4-bit digit of x and no squarings.
  BigUInt exp(const BigUInt& x) const;

  /// true iff e is a valid element of the order-q subgroup (0 < e < p and
  /// e^q == 1, decided as the Legendre symbol (e | p) == 1).
  bool is_element(const BigUInt& e) const;

 private:
  /// Width of one exponent digit of the fixed-base table (see
  /// docs/ARCHITECTURE.md, "Public-key arithmetic", for why 4).
  static constexpr std::size_t kDigitBits = 4;
  static constexpr std::size_t kDigits = kExpBits / kDigitBits;
  static constexpr std::size_t kRowSize = (std::size_t{1} << kDigitBits) - 1;

  /// g_powers_[kRowSize * i + d - 1] = g^(d * 16^i) mod p for i < kDigits,
  /// 1 <= d < 16. Read-only after construction.
  std::vector<BigUInt> g_powers_;
};

/// The library-wide default group (cached; thread-safe initialization,
/// table included).
const Group& default_group();

}  // namespace rvaas::crypto
