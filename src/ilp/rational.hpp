// Exact rational arithmetic over bounded 64-bit fractions.
//
// This is the number type of the IPET LP solver (src/ilp/solver.cpp) and of
// its independent certificate verifier (src/ilp/verify.cpp). Every operation
// is exact: intermediates are carried in 128 bits, results are reduced by
// gcd, and any value whose reduced numerator or denominator no longer fits
// in int64 raises InternalError instead of silently losing precision — a
// WCET bound computed with rounded arithmetic would be worthless as
// evidence. The bound is deliberate: unbounded bignums would hide
// pathological pivot growth; the int64 budget makes it a detected failure.
#pragma once

#include <cstdint>
#include <string>

#include "support/diagnostics.hpp"

namespace vc::ilp {

class Rat {
 public:
  /// Zero.
  Rat() = default;
  /// Integer value v/1.
  Rat(std::int64_t v) : num_(v), den_(1) {}  // NOLINT(google-explicit-*)
  /// num/den, reduced; den must be non-zero.
  static Rat fraction(std::int64_t num, std::int64_t den);

  [[nodiscard]] std::int64_t num() const { return num_; }
  [[nodiscard]] std::int64_t den() const { return den_; }

  [[nodiscard]] bool is_zero() const { return num_ == 0; }
  [[nodiscard]] bool is_integer() const { return den_ == 1; }
  /// Largest integer <= this (exact).
  [[nodiscard]] std::int64_t floor() const;

  [[nodiscard]] Rat operator+(const Rat& o) const;
  [[nodiscard]] Rat operator-(const Rat& o) const;
  [[nodiscard]] Rat operator*(const Rat& o) const;
  /// Division; o must be non-zero (InternalError otherwise).
  [[nodiscard]] Rat operator/(const Rat& o) const;
  [[nodiscard]] Rat operator-() const;

  Rat& operator+=(const Rat& o) { return *this = *this + o; }
  Rat& operator-=(const Rat& o) { return *this = *this - o; }
  Rat& operator*=(const Rat& o) { return *this = *this * o; }
  Rat& operator/=(const Rat& o) { return *this = *this / o; }

  // Exact comparisons by 128-bit cross multiplication (no normalization or
  // overflow lane involved — this is what the certificate verifier leans on).
  [[nodiscard]] bool operator==(const Rat& o) const;
  [[nodiscard]] bool operator!=(const Rat& o) const { return !(*this == o); }
  [[nodiscard]] bool operator<(const Rat& o) const;
  [[nodiscard]] bool operator<=(const Rat& o) const;
  [[nodiscard]] bool operator>(const Rat& o) const { return o < *this; }
  [[nodiscard]] bool operator>=(const Rat& o) const { return o <= *this; }

  [[nodiscard]] std::string to_string() const;

 private:
  static Rat reduce(__int128 num, __int128 den);

  std::int64_t num_ = 0;
  std::int64_t den_ = 1;  // always > 0
};

}  // namespace vc::ilp
