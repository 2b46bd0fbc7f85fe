// Schnorr group: the order-q subgroup of quadratic residues of Z_p^* for a
// safe prime p = 2q + 1.
//
// The paper's feasibility results (Claims 5.1, 5.3, Corollary 5.5) assume
// enhanced trapdoor permutations; we instantiate the commitments the
// protocols need on discrete-log-style assumptions in this group instead
// (see DESIGN.md "Substitutions").  The standard parameters use a 62-bit
// safe prime - simulation scale, checked prime at construction - so the
// group is only *statistically* meaningful for our experiments, not a
// production security level.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/field.h"
#include "crypto/hmac.h"
#include "crypto/modmath.h"

namespace simulcast::crypto {

/// Fixed-base windowed exponentiation: for a known base, precomputes
/// table[i][d] = base^(d * 256^i) mod p for the eight radix-256 digit
/// positions of a 64-bit exponent, so base^e costs at most eight modular
/// multiplications instead of the ~90 of square-and-multiply.  Rows are in
/// Montgomery form, and the table carries its own copy of the Montgomery
/// context (no pointer back into the group).  32 KiB per table; built once
/// per (base, p) in the SchnorrGroup constructor.
class FixedBaseTable {
 public:
  FixedBaseTable() = default;
  FixedBaseTable(std::uint64_t base, const Montgomery& mont);

  /// acc * base^e mod p.  Each step multiplies by a Montgomery-form row,
  /// which keeps acc's form: a plain acc gives a plain result and a
  /// Montgomery-form acc a Montgomery-form one.
  [[nodiscard]] std::uint64_t mul_exp(std::uint64_t acc, std::uint64_t e) const noexcept;

  /// base^e mod p.  Bit-identical to powmod(base, e, p).
  [[nodiscard]] std::uint64_t exp(std::uint64_t e) const noexcept { return mul_exp(1, e); }

 private:
  static constexpr std::size_t kWindows = 8;
  Montgomery mont_;
  std::vector<std::array<std::uint64_t, 256>> table_;
};

/// Group description.  Elements are canonical representatives in [1, p).
/// Every group operation runs on the group's Montgomery context; inputs and
/// outputs of the public methods are plain residues.
class SchnorrGroup {
 public:
  /// Constructs and validates: p, q prime, p = 2q + 1, g a generator of the
  /// order-q subgroup.  Throws UsageError on invalid parameters.
  SchnorrGroup(std::uint64_t p, std::uint64_t q, std::uint64_t g);

  /// The library-wide default group (62-bit safe prime, g = 4) with a
  /// second generator h derived by hashing, so that log_g(h) is unknown
  /// ("nothing up my sleeve") - required by Pedersen commitments.
  [[nodiscard]] static const SchnorrGroup& standard();

  [[nodiscard]] std::uint64_t p() const noexcept { return p_; }
  [[nodiscard]] std::uint64_t q() const noexcept { return q_; }
  [[nodiscard]] std::uint64_t g() const noexcept { return g_; }
  [[nodiscard]] std::uint64_t h() const noexcept { return h_; }

  /// The Montgomery context modulo p, for callers that chain many group
  /// operations (VSS share verification) and convert once.
  [[nodiscard]] const Montgomery& mont() const noexcept { return mont_; }

  /// g^e mod p for an exponent in Zq.
  [[nodiscard]] std::uint64_t exp_g(const Zq& e) const;
  /// h^e mod p.
  [[nodiscard]] std::uint64_t exp_h(const Zq& e) const;
  /// g^a h^b mod p: one multiplication chain through both tables (the
  /// Pedersen commitment to a with blinding b).
  [[nodiscard]] std::uint64_t exp_gh(const Zq& a, const Zq& b) const;
  /// base^e mod p for a group element base.
  [[nodiscard]] std::uint64_t exp(std::uint64_t base, const Zq& e) const;
  /// Product of two group elements.
  [[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) const;
  /// Inverse of a group element.
  [[nodiscard]] std::uint64_t inv(std::uint64_t a) const;

  /// True when `a` lies in the order-q subgroup.  Since p = 2q + 1, that
  /// subgroup is exactly the quadratic residues of Z_p^*, so the test is the
  /// Legendre symbol (a / p) = 1 (Euler's criterion: a^q = (a / p)).
  [[nodiscard]] bool is_element(std::uint64_t a) const;

  /// Uniform exponent in Zq.
  [[nodiscard]] Zq sample_exponent(HmacDrbg& drbg) const { return Zq::sample(drbg, q_); }

  /// Deterministically maps a label to a subgroup element by hashing and
  /// squaring (used to derive h and any extra generators).
  [[nodiscard]] std::uint64_t hash_to_group(std::string_view label) const;

 private:
  std::uint64_t p_;
  std::uint64_t q_;
  std::uint64_t g_;
  std::uint64_t h_ = 0;
  Montgomery mont_;
  FixedBaseTable g_table_;
  FixedBaseTable h_table_;
};

}  // namespace simulcast::crypto
