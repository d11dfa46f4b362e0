#include "util/fraction.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "util/error.h"

namespace hedra {
namespace {

TEST(FracTest, DefaultIsZero) {
  const Frac f;
  EXPECT_EQ(f.num(), 0);
  EXPECT_EQ(f.den(), 1);
  EXPECT_TRUE(f.is_integer());
}

TEST(FracTest, IntegerConversionIsImplicit) {
  const Frac f = 7;
  EXPECT_EQ(f.num(), 7);
  EXPECT_EQ(f.den(), 1);
}

TEST(FracTest, NormalisesOnConstruction) {
  const Frac f(6, 4);
  EXPECT_EQ(f.num(), 3);
  EXPECT_EQ(f.den(), 2);
}

TEST(FracTest, NormalisesSignIntoNumerator) {
  const Frac f(3, -6);
  EXPECT_EQ(f.num(), -1);
  EXPECT_EQ(f.den(), 2);
  const Frac g(-3, -6);
  EXPECT_EQ(g.num(), 1);
  EXPECT_EQ(g.den(), 2);
}

TEST(FracTest, ZeroDenominatorThrows) {
  EXPECT_THROW(Frac(1, 0), Error);
}

TEST(FracTest, Addition) {
  EXPECT_EQ(Frac(1, 3) + Frac(2, 3), Frac(1));
  EXPECT_EQ(Frac(1, 2) + Frac(1, 3), Frac(5, 6));
  EXPECT_EQ(Frac(-1, 2) + Frac(1, 2), Frac(0));
}

TEST(FracTest, Subtraction) {
  EXPECT_EQ(Frac(5, 6) - Frac(1, 3), Frac(1, 2));
  EXPECT_EQ(Frac(1, 4) - Frac(1, 2), Frac(-1, 4));
}

TEST(FracTest, Multiplication) {
  EXPECT_EQ(Frac(2, 3) * Frac(3, 4), Frac(1, 2));
  EXPECT_EQ(Frac(-2, 5) * Frac(5, 2), Frac(-1));
}

TEST(FracTest, Division) {
  EXPECT_EQ(Frac(1, 2) / Frac(1, 4), Frac(2));
  EXPECT_THROW(Frac(1) / Frac(0), Error);
}

TEST(FracTest, Comparison) {
  EXPECT_LT(Frac(1, 3), Frac(1, 2));
  EXPECT_GT(Frac(7, 2), Frac(3));
  EXPECT_LE(Frac(2, 4), Frac(1, 2));
  EXPECT_EQ(Frac(2, 4), Frac(1, 2));
  EXPECT_LT(Frac(-1, 2), Frac(0));
}

TEST(FracTest, FloorAndCeil) {
  EXPECT_EQ(Frac(7, 2).floor(), 3);
  EXPECT_EQ(Frac(-7, 2).floor(), -4);
  EXPECT_EQ(Frac(6).floor(), 6);
}

TEST(FracTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Frac(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Frac(-3, 4).to_double(), -0.75);
}

TEST(FracTest, ToString) {
  EXPECT_EQ(Frac(7, 2).to_string(), "7/2");
  EXPECT_EQ(Frac(4, 2).to_string(), "2");
  EXPECT_EQ(Frac(-1, 3).to_string(), "-1/3");
}

TEST(FracTest, StreamOutput) {
  std::ostringstream os;
  os << Frac(5, 4);
  EXPECT_EQ(os.str(), "5/4");
}

TEST(FracTest, MinMaxHelpers) {
  EXPECT_EQ(frac_max(Frac(1, 2), Frac(2, 3)), Frac(2, 3));
  EXPECT_EQ(frac_min(Frac(1, 2), Frac(2, 3)), Frac(1, 2));
}

TEST(FracTest, LargeIntermediatesDoNotOverflowWhenResultFits) {
  // (2^40)/3 + (2^40)/3 has a 2^80-scale cross product before reduction.
  const std::int64_t big = std::int64_t{1} << 40;
  const Frac f(big, 3);
  EXPECT_EQ(f + f, Frac(2 * big, 3));
}

TEST(FracTest, OverflowIsDetected) {
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  const Frac f(huge, 1);
  EXPECT_THROW(f * Frac(2), Error);
  EXPECT_THROW(f + f, Error);
}

// --- INT64_MIN edge cases -------------------------------------------------
// |INT64_MIN| is not representable as int64, so every code path that used
// to negate blindly (`den < 0` sign normalisation, operator-)
// was undefined behaviour exactly there.  These pin the fixed semantics:
// representable results are exact, unrepresentable ones throw.

TEST(FracTest, Int64MinNumeratorIsRepresentable) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const Frac f(min, 1);
  EXPECT_EQ(f.num(), min);
  EXPECT_EQ(f.den(), 1);
  EXPECT_EQ(f.floor(), min);
}

TEST(FracTest, Int64MinReducesAgainstEvenDenominators) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  // gcd(2^63, 2) = 2; the old signed-abs gcd negated INT64_MIN first (UB).
  const Frac f(min, 2);
  EXPECT_EQ(f.num(), min / 2);
  EXPECT_EQ(f.den(), 1);
}

TEST(FracTest, Int64MinOverInt64MinIsOne) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  // g = 2^63 does not even fit int64; reduction must run on magnitudes.
  const Frac f(min, min);
  EXPECT_EQ(f, Frac(1));
}

TEST(FracTest, Int64MinDenominatorThrowsWhenIrreducible) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  // 1/INT64_MIN would need den = 2^63 > INT64_MAX: genuinely
  // unrepresentable, so the constructor must throw, not wrap.
  EXPECT_THROW(Frac(1, min), Error);
  // With a shared factor the value fits: -3/2^62.
  const Frac ok(6, min);
  EXPECT_EQ(ok.num(), -3);
  EXPECT_EQ(ok.den(), std::int64_t{1} << 62);
}

TEST(FracTest, NegatingInt64MinThrows) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const Frac f(min, 1);
  EXPECT_THROW(Frac(0) - f, Error);
  // The boundary neighbour negates fine.
  const Frac g(min + 1, 1);
  EXPECT_EQ((Frac(0) - g).num(), std::numeric_limits<std::int64_t>::max());
}

TEST(FracTest, Int64MinSurvivesMultiplyCrossReduction) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  // Cross-reduction gcd(|INT64_MIN|, 4) must use the unsigned magnitude.
  EXPECT_EQ(Frac(min, 1) * Frac(1, 4), Frac(min / 4, 1));
  EXPECT_EQ(Frac(min, 1) / Frac(4, 1), Frac(min / 4, 1));
}

TEST(FracTest, Int64MinSpecStringFallsBackToRatioForm) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  // den = 5 survives normalisation (2^63 is odd-free of 5s); the decimal
  // expansion would scale the numerator past INT64_MAX, so the exact
  // ratio spelling is used — previously this path negated INT64_MIN (UB).
  const Frac f(min, 5);
  EXPECT_EQ(frac_spec_string(f), f.to_string());
}

/// The shape every bound in the paper takes: len + (vol - len)/m must be
/// exactly representable and ordered sensibly for all m.
class FracBoundShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(FracBoundShapeTest, GrahamBoundShape) {
  const int m = GetParam();
  const std::int64_t len = 37;
  const std::int64_t vol = 1234;
  const Frac bound = Frac(len) + Frac(vol - len, m);
  EXPECT_GE(bound, Frac(len));
  EXPECT_LE(bound, Frac(vol));
  // Exactness: multiplying back by m recovers the numerator identity.
  EXPECT_EQ(bound * Frac(m), Frac(len * (m - 1) + vol));
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, FracBoundShapeTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

TEST(FracSpecTest, ParsesIntegersDecimalsAndRatios) {
  EXPECT_EQ(parse_frac("3"), Frac(3));
  EXPECT_EQ(parse_frac("-2"), Frac(-2));
  EXPECT_EQ(parse_frac("+4"), Frac(4));
  EXPECT_EQ(parse_frac("1.5"), Frac(3, 2));
  EXPECT_EQ(parse_frac("3.0"), Frac(3));
  EXPECT_EQ(parse_frac("0.25"), Frac(1, 4));
  EXPECT_EQ(parse_frac("-0.5"), Frac(-1, 2));
  EXPECT_EQ(parse_frac(".5"), Frac(1, 2));
  EXPECT_EQ(parse_frac("7/3"), Frac(7, 3));
  EXPECT_EQ(parse_frac("-7/3"), Frac(-7, 3));
  EXPECT_EQ(parse_frac("6/4"), Frac(3, 2));  // normalised
}

TEST(FracSpecTest, RejectsMalformedInput) {
  for (const char* bad : {"", "x", "1.2.3", "1/0", "1/2/3", "1.5/2", "--1",
                          "1.", "1e3", " 2", "0.123456789012345678901"}) {
    EXPECT_THROW((void)parse_frac(bad), Error) << bad;
  }
}

TEST(FracSpecTest, RejectsOverflowingNumerals) {
  // Numerals past int64 must throw, not silently wrap (they previously
  // overflowed to an arbitrary value — e.g. 2^64+1 parsed as 1).
  for (const char* bad : {"18446744073709551617", "9223372036854775808",
                          "-9223372036854775808000", "10.000000000000000001",
                          "9223372036854775807/9999999999999999999"}) {
    EXPECT_THROW((void)parse_frac(bad), Error) << bad;
  }
  // The extremes that do fit still parse.
  EXPECT_EQ(parse_frac("9223372036854775807"),
            Frac(std::numeric_limits<std::int64_t>::max()));
}

TEST(FracSpecTest, HugeDecimalDenominatorsFallBackToRatioForm) {
  // 10^places would overflow int64 for 2^a·5^b denominators with
  // max(a, b) > 18; the exact ratio form is the spelling then.
  const Frac tiny(1, std::int64_t(1) << 40);
  EXPECT_EQ(frac_spec_string(tiny), tiny.to_string());
  EXPECT_EQ(parse_frac(frac_spec_string(tiny)), tiny);
  // And a scaled numerator that would overflow also falls back.  (max − 2
  // is odd, so the half survives normalisation as a genuine /2 rational.)
  const Frac wide(std::numeric_limits<std::int64_t>::max() - 2, 2);
  EXPECT_EQ(frac_spec_string(wide), wide.to_string());
  EXPECT_EQ(parse_frac(frac_spec_string(wide)), wide);
}

TEST(FracSpecTest, SpecStringIsShortestExactForm) {
  EXPECT_EQ(frac_spec_string(Frac(3)), "3");
  EXPECT_EQ(frac_spec_string(Frac(-2)), "-2");
  EXPECT_EQ(frac_spec_string(Frac(3, 2)), "1.5");
  EXPECT_EQ(frac_spec_string(Frac(1, 4)), "0.25");
  EXPECT_EQ(frac_spec_string(Frac(-1, 2)), "-0.5");
  EXPECT_EQ(frac_spec_string(Frac(1, 8)), "0.125");
  EXPECT_EQ(frac_spec_string(Frac(1, 20)), "0.05");
  // Non-decimal denominators fall back to the ratio form.
  EXPECT_EQ(frac_spec_string(Frac(7, 3)), "7/3");
  EXPECT_EQ(frac_spec_string(Frac(1, 7)), "1/7");
}

TEST(FracSpecTest, RoundTripsExactly) {
  const std::vector<Frac> values{Frac(1),     Frac(42),    Frac(-3),
                                 Frac(3, 2),  Frac(1, 4),  Frac(7, 3),
                                 Frac(-9, 8), Frac(13, 5), Frac(1, 1000)};
  for (const Frac& value : values) {
    EXPECT_EQ(parse_frac(frac_spec_string(value)), value)
        << frac_spec_string(value);
  }
}

}  // namespace
}  // namespace hedra
