#include "ilp/rational.hpp"

#include <numeric>

namespace vc::ilp {
namespace {

constexpr std::int64_t kMax = INT64_MAX;
constexpr std::int64_t kMin = INT64_MIN;

[[noreturn]] void overflow(const char* op) {
  throw InternalError(std::string("ilp: rational overflow in ") + op +
                      " (value exceeds the int64 fraction budget)");
}

__int128 gcd128(__int128 a, __int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const __int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

Rat Rat::reduce(__int128 num, __int128 den) {
  check(den != 0, "ilp: rational with zero denominator");
  if (den < 0) {
    num = -num;
    den = -den;
  }
  if (num == 0) return Rat(0);
  // Integer fast lane: den == 1 needs no gcd, only the fit check. The
  // simplex tableaus are predominantly integral, so this skips the two
  // 128-bit divisions of the gcd loop on most calls.
  if (den == 1) {
    if (num > kMax || num < kMin) overflow("reduce");
    Rat r;
    r.num_ = static_cast<std::int64_t>(num);
    r.den_ = 1;
    return r;
  }
  const __int128 g = gcd128(num, den);
  num /= g;
  den /= g;
  if (num > kMax || num < kMin || den > kMax) overflow("reduce");
  Rat r;
  r.num_ = static_cast<std::int64_t>(num);
  r.den_ = static_cast<std::int64_t>(den);
  return r;
}

Rat Rat::fraction(std::int64_t num, std::int64_t den) {
  check(den != 0, "ilp: Rat::fraction with zero denominator");
  return reduce(num, den);
}

std::int64_t Rat::floor() const {
  if (num_ >= 0) return num_ / den_;
  return -((-num_ + den_ - 1) / den_);
}

Rat Rat::operator+(const Rat& o) const {
  if (den_ == 1 && o.den_ == 1)
    return reduce(static_cast<__int128>(num_) + o.num_, 1);
  return reduce(static_cast<__int128>(num_) * o.den_ +
                    static_cast<__int128>(o.num_) * den_,
                static_cast<__int128>(den_) * o.den_);
}

Rat Rat::operator-(const Rat& o) const {
  if (den_ == 1 && o.den_ == 1)
    return reduce(static_cast<__int128>(num_) - o.num_, 1);
  return reduce(static_cast<__int128>(num_) * o.den_ -
                    static_cast<__int128>(o.num_) * den_,
                static_cast<__int128>(den_) * o.den_);
}

Rat Rat::operator*(const Rat& o) const {
  return reduce(static_cast<__int128>(num_) * o.num_,
                static_cast<__int128>(den_) * o.den_);
}

Rat Rat::operator/(const Rat& o) const {
  check(!o.is_zero(), "ilp: rational division by zero");
  return reduce(static_cast<__int128>(num_) * o.den_,
                static_cast<__int128>(den_) * o.num_);
}

Rat Rat::operator-() const {
  if (num_ == kMin) overflow("negate");
  Rat r;
  r.num_ = -num_;
  r.den_ = den_;
  return r;
}

bool Rat::operator==(const Rat& o) const {
  // Both sides are reduced with positive denominators, so equality is
  // component-wise; no multiplication needed.
  return num_ == o.num_ && den_ == o.den_;
}

bool Rat::operator<(const Rat& o) const {
  return static_cast<__int128>(num_) * o.den_ <
         static_cast<__int128>(o.num_) * den_;
}

bool Rat::operator<=(const Rat& o) const {
  return static_cast<__int128>(num_) * o.den_ <=
         static_cast<__int128>(o.num_) * den_;
}

std::string Rat::to_string() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

}  // namespace vc::ilp
