#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fixtures.h"
#include "model/platform.h"
#include "util/error.h"
#include "util/rng.h"

namespace hedra {
namespace {

using model::Platform;

TEST(PlatformTest, FactoriesDescribeTheExpectedShape) {
  const Platform hom = Platform::symmetric(4, 0);
  EXPECT_EQ(hom.cores, 4);
  EXPECT_EQ(hom.num_devices(), 0);

  const Platform sym = Platform::symmetric(8, 3);
  EXPECT_EQ(sym.num_devices(), 3);
  EXPECT_EQ(sym.device_name(1), "acc1");
  EXPECT_EQ(sym.device_name(3), "acc3");
}

TEST(PlatformTest, DeviceNameRejectsOutOfRangeIds) {
  const Platform platform = Platform::parse("2:gpu");
  EXPECT_THROW((void)platform.device_name(0), Error);
  EXPECT_THROW((void)platform.device_name(2), Error);
}

TEST(PlatformTest, ParseRoundTripsThroughSpec) {
  for (const std::string text : {"2", "4:gpu", "16:gpu,dsp,fpga"}) {
    const Platform platform = Platform::parse(text);
    EXPECT_EQ(platform.spec(), text);
    EXPECT_EQ(Platform::parse(platform.spec()).describe(),
              platform.describe());
  }
  const Platform platform = Platform::parse("4: gpu , dsp ");
  EXPECT_EQ(platform.device_name(1), "gpu");
  EXPECT_EQ(platform.device_name(2), "dsp");
}

TEST(PlatformTest, ParseReadsUnitMultiplicities) {
  const Platform platform = Platform::parse("4:gpu*2,dsp,fpga*3");
  EXPECT_EQ(platform.cores, 4);
  EXPECT_EQ(platform.num_devices(), 3);
  EXPECT_EQ(platform.units_of(1), 2);
  EXPECT_EQ(platform.units_of(2), 1);
  EXPECT_EQ(platform.units_of(3), 3);
  EXPECT_TRUE(platform.has_multi_units());
  EXPECT_EQ(platform.spec(), "4:gpu*2,dsp,fpga*3");
  EXPECT_NE(platform.describe().find("gpu(d1 x2)"), std::string::npos);
  EXPECT_NE(platform.describe().find("dsp(d2)"), std::string::npos);

  // Whitespace around every token is tolerated, explicit *1 normalises away.
  const Platform spaced = Platform::parse(" 4 : gpu * 2 , dsp * 1 ");
  EXPECT_EQ(spaced.spec(), "4:gpu*2,dsp");
  EXPECT_FALSE(Platform::parse("2:gpu*1").has_multi_units());
}

TEST(PlatformTest, ParseReadsSpeedups) {
  // SATELLITE (PR 5): heterogeneous WCET scaling in the spec syntax.
  const Platform platform = Platform::parse("4:gpu*2@3.0,dsp@1.5,fpga");
  EXPECT_EQ(platform.speedup_of(1), Frac(3));
  EXPECT_EQ(platform.speedup_of(2), Frac(3, 2));
  EXPECT_EQ(platform.speedup_of(3), Frac(1));
  EXPECT_TRUE(platform.has_speedups());
  // Decimal factors normalise to their shortest exact spelling; the
  // default 1.0 is omitted, so pre-speedup specs round-trip unchanged.
  EXPECT_EQ(platform.spec(), "4:gpu*2@3,dsp@1.5,fpga");
  EXPECT_EQ(Platform::parse(platform.spec()).spec(), platform.spec());
  EXPECT_NE(platform.describe().find("@1.5x"), std::string::npos);

  EXPECT_FALSE(Platform::parse("4:gpu@1").has_speedups());
  EXPECT_EQ(Platform::parse("4:gpu@1.0").spec(), "4:gpu");
  // Exact rationals survive: 7/3 has no finite decimal but still
  // round-trips.
  EXPECT_EQ(Platform::parse("4:gpu@7/3").speedup_of(1), Frac(7, 3));
  EXPECT_EQ(Platform::parse("4:gpu@7/3").spec(), "4:gpu@7/3");
}

TEST(PlatformTest, ParseRejectsMalformedSpeedups) {
  EXPECT_THROW((void)Platform::parse("4:gpu@"), Error);
  EXPECT_THROW((void)Platform::parse("4:gpu@0"), Error);
  EXPECT_THROW((void)Platform::parse("4:gpu@-1.5"), Error);
  EXPECT_THROW((void)Platform::parse("4:gpu@x"), Error);
  EXPECT_THROW((void)Platform::parse("4:gpu@1.2.3"), Error);
  EXPECT_THROW((void)Platform::parse("4:gpu@2*2"), Error);  // '*' after '@'
}

TEST(PlatformTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)Platform::parse(""), Error);
  EXPECT_THROW((void)Platform::parse("x"), Error);
  EXPECT_THROW((void)Platform::parse("0:gpu"), Error);
  EXPECT_THROW((void)Platform::parse("4:"), Error);         // no device list
  EXPECT_THROW((void)Platform::parse("4:gpu,"), Error);     // empty name
  EXPECT_THROW((void)Platform::parse("4:gpu,gpu"), Error);  // duplicate
  EXPECT_THROW((void)Platform::parse("   "), Error);        // whitespace only
  EXPECT_THROW((void)Platform::parse("4.5:gpu"), Error);    // non-integer m
  EXPECT_THROW((void)Platform::parse("four:gpu"), Error);
  EXPECT_THROW((void)Platform::parse("4:gpu*"), Error);     // missing units
  EXPECT_THROW((void)Platform::parse("4:gpu*0"), Error);    // < 1 unit
  EXPECT_THROW((void)Platform::parse("4:gpu*-2"), Error);
  EXPECT_THROW((void)Platform::parse("4:gpu*x"), Error);
  EXPECT_THROW((void)Platform::parse("4:gpu*2*3"), Error);
  EXPECT_THROW((void)Platform::parse("4:*2"), Error);       // units, no name
}

TEST(PlatformTest, ParseErrorsNameTheOffendingSpec) {
  for (const std::string bad : {"4:", "four:gpu", "4:gpu*0", "4:gpu,gpu"}) {
    try {
      (void)Platform::parse(bad);
      FAIL() << "spec '" << bad << "' should not parse";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + bad + "'"),
                std::string::npos)
          << "message should quote the spec: " << e.what();
    }
  }
}

/// SATELLITE PROPERTY TEST: spec() and parse() are mutual inverses over
/// randomized platforms (core counts, device counts, names, unit
/// multiplicities), with the empty-device_units representation normalising
/// to the explicit all-ones one.
TEST(PlatformTest, RandomizedPlatformsRoundTripThroughSpec) {
  const std::vector<std::string> pool{"gpu",  "dsp",  "fpga", "npu",
                                      "tpu",  "vpu",  "dla",  "isp"};
  Rng rng(0x51A7F0);
  for (int i = 0; i < 200; ++i) {
    Platform platform;
    platform.cores = static_cast<int>(rng.uniform_int(1, 64));
    const int devices = static_cast<int>(rng.uniform_int(0, 8));
    std::vector<std::string> names(pool.begin(), pool.end());
    rng.shuffle(names);
    const bool explicit_units = rng.bernoulli(0.7);
    const bool explicit_speedups = rng.bernoulli(0.5);
    const std::vector<Frac> speedup_pool{Frac(1),    Frac(2),    Frac(3, 2),
                                         Frac(5, 4), Frac(7, 3), Frac(1, 2)};
    for (int d = 0; d < devices; ++d) {
      platform.device_names.push_back(names[d]);
      if (explicit_units) {
        platform.device_units.push_back(
            static_cast<int>(rng.uniform_int(1, 6)));
      }
      if (explicit_speedups) {
        platform.device_speedup.push_back(
            speedup_pool[rng.index(speedup_pool.size())]);
      }
    }
    platform.validate();

    const Platform reparsed = Platform::parse(platform.spec());
    EXPECT_EQ(reparsed.spec(), platform.spec());
    EXPECT_EQ(reparsed.describe(), platform.describe());
  }
}

TEST(PlatformTest, ValidateRejectsBadShapes) {
  Platform platform;
  platform.cores = 0;
  EXPECT_THROW(platform.validate(), Error);
  platform.cores = 2;
  platform.device_names = {"gpu", ""};
  EXPECT_THROW(platform.validate(), Error);
  platform.device_names = {"gpu", "gpu"};
  EXPECT_THROW(platform.validate(), Error);
  platform.device_names = {"gpu", "dsp"};
  EXPECT_NO_THROW(platform.validate());
}

TEST(PlatformTest, SupportsChecksDevicePlacements) {
  const auto ex = testing::multi_device_example();
  for (const int devices : {2, 5}) {
    EXPECT_TRUE(
        model::check_supports(Platform::symmetric(2, devices), ex.dag).empty());
  }

  const Platform single = Platform::symmetric(2, 1);
  const auto issues = model::check_supports(single, ex.dag);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("dsp"), std::string::npos);

  // Homogeneous platforms reject any offload placement.
  const Platform hom = Platform::symmetric(2, 0);
  EXPECT_FALSE(model::check_supports(hom, ex.dag).empty());
  EXPECT_TRUE(model::check_supports(hom, testing::chain(3, 5)).empty());
}

TEST(PlatformTest, PlatformForInfersTheSmallestSupportingPlatform) {
  const auto ex = testing::multi_device_example();
  const Platform inferred = model::platform_for(ex.dag, 4);
  EXPECT_EQ(inferred.cores, 4);
  EXPECT_EQ(inferred.num_devices(), 2);
  EXPECT_TRUE(model::check_supports(inferred, ex.dag).empty());

  EXPECT_EQ(model::platform_for(testing::chain(3, 5), 2).num_devices(), 0);
}

}  // namespace
}  // namespace hedra
