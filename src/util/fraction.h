#pragma once

/// \file fraction.h
/// Exact rational arithmetic on 64-bit integers.
///
/// Every response-time bound in the paper has the shape
/// `integer + integer / m`, so analysis results are exact rationals with a
/// small denominator.  Using Frac (instead of double) makes scenario
/// comparisons such as `C_off >= R_hom(G_par)` exact, which matters because
/// Theorem 1 switches formulas precisely at the equality point.
///
/// Intermediate products are computed in 128-bit arithmetic and checked for
/// int64 overflow on normalisation.  Building with -DHEDRA_CHECKED_FRAC=ON
/// (the sanitizer CI configuration) additionally cross-checks every 64x64
/// product against an independent __builtin_mul_overflow computation, so
/// the two arithmetic paths audit each other.

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace hedra {

/// An exact rational number num/den with den > 0, always kept normalised
/// (gcd(|num|, den) == 1).  Arithmetic throws hedra::Error on overflow or
/// division by zero.
class Frac {
 public:
  /// Zero.
  constexpr Frac() noexcept : num_(0), den_(1) {}

  /// Integer value.
  constexpr Frac(std::int64_t value) noexcept  // NOLINT(google-explicit-constructor)
      : num_(value), den_(1) {}

  /// num/den, normalised.  Throws if den == 0.
  Frac(std::int64_t num, std::int64_t den);

  [[nodiscard]] std::int64_t num() const noexcept { return num_; }
  [[nodiscard]] std::int64_t den() const noexcept { return den_; }

  /// True if the value is an integer.
  [[nodiscard]] bool is_integer() const noexcept { return den_ == 1; }

  /// Closest double; fine for reporting, never used for comparisons.
  [[nodiscard]] double to_double() const noexcept;

  /// Largest integer <= value.
  [[nodiscard]] std::int64_t floor() const noexcept;

  /// "7/2" or "3" when integral.
  [[nodiscard]] std::string to_string() const;

  Frac& operator+=(const Frac& rhs);
  Frac& operator-=(const Frac& rhs);
  Frac& operator*=(const Frac& rhs);
  Frac& operator/=(const Frac& rhs);

  friend Frac operator+(Frac lhs, const Frac& rhs) { return lhs += rhs; }
  friend Frac operator-(Frac lhs, const Frac& rhs) { return lhs -= rhs; }
  friend Frac operator*(Frac lhs, const Frac& rhs) { return lhs *= rhs; }
  friend Frac operator/(Frac lhs, const Frac& rhs) { return lhs /= rhs; }

  friend bool operator==(const Frac& a, const Frac& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Frac& a, const Frac& b) noexcept;

 private:
  std::int64_t num_;
  std::int64_t den_;
};

std::ostream& operator<<(std::ostream& os, const Frac& f);

/// max/min helpers (std::max works too; these read better in formulas).
[[nodiscard]] Frac frac_max(const Frac& a, const Frac& b) noexcept;
[[nodiscard]] Frac frac_min(const Frac& a, const Frac& b) noexcept;

/// Parses "3", "-2", "1.5" or "7/3" into an exact rational.  Finite decimals
/// are exactly representable (1.5 = 3/2), so spec files can carry decimal
/// factors without losing exactness.  Throws hedra::Error on malformed input
/// ("", "1.2.3", "1/0", "x").
[[nodiscard]] Frac parse_frac(std::string_view text);

/// Shortest spec-friendly rendering, the inverse of parse_frac: integers as
/// "3", exact finite decimals as "1.5"/"0.25", everything else as "7/3".
[[nodiscard]] std::string frac_spec_string(const Frac& f);

}  // namespace hedra
