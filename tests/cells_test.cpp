// Unit tests for the technology / PVT / mismatch substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "ddl/cells/cell_kind.h"
#include "ddl/cells/mismatch.h"
#include "ddl/cells/operating_point.h"
#include "ddl/cells/technology.h"

namespace ddl::cells {
namespace {

TEST(CellKind, AllKindsHaveNames) {
  for (int i = 0; i < kCellKindCount; ++i) {
    EXPECT_NE(to_string(static_cast<CellKind>(i)), "UNKNOWN");
  }
}

TEST(OperatingPoint, ProcessFactorsMatchThesisSpread) {
  // Section 3.1: typical d -> d/2 fast, 2d slow; 4x total spread.
  EXPECT_DOUBLE_EQ(process_delay_factor(ProcessCorner::kFast), 0.5);
  EXPECT_DOUBLE_EQ(process_delay_factor(ProcessCorner::kTypical), 1.0);
  EXPECT_DOUBLE_EQ(process_delay_factor(ProcessCorner::kSlow), 2.0);
}

TEST(OperatingPoint, VoltageFactorIsOneAtNominal) {
  EXPECT_NEAR(voltage_delay_factor(OperatingPoint::kNominalSupplyV), 1.0,
              1e-12);
}

TEST(OperatingPoint, LowerSupplyIsSlower) {
  EXPECT_GT(voltage_delay_factor(0.8), 1.0);
  EXPECT_LT(voltage_delay_factor(1.2), 1.0);
}

TEST(OperatingPoint, VoltageFactorMonotonicallyDecreasesWithSupply) {
  double previous = voltage_delay_factor(0.5);
  for (double v = 0.55; v <= 1.3; v += 0.05) {
    const double factor = voltage_delay_factor(v);
    EXPECT_LT(factor, previous) << "at supply " << v;
    previous = factor;
  }
}

TEST(OperatingPoint, VoltageFactorClampsNearThreshold) {
  // Below the characterized range the model must stay finite.
  EXPECT_TRUE(std::isfinite(voltage_delay_factor(0.0)));
  EXPECT_TRUE(std::isfinite(voltage_delay_factor(0.3)));
}

TEST(OperatingPoint, TemperatureFactorIsOneAtNominal) {
  EXPECT_DOUBLE_EQ(temperature_delay_factor(25.0), 1.0);
}

TEST(OperatingPoint, HotterIsSlower) {
  EXPECT_GT(temperature_delay_factor(110.0), 1.0);
  EXPECT_LT(temperature_delay_factor(-40.0), 1.0);
}

TEST(OperatingPoint, DeratingComposesAllThreeAxes) {
  OperatingPoint op{ProcessCorner::kSlow, 0.9, 110.0};
  const double expected = 2.0 * voltage_delay_factor(0.9) *
                          temperature_delay_factor(110.0);
  EXPECT_DOUBLE_EQ(delay_derating(op), expected);
}

TEST(Technology, BufferDelayMatchesThesisDesignExample) {
  // Section 4.2: buffer = 20 ps fast, 80 ps slow.
  const Technology tech = Technology::i32nm_class();
  EXPECT_DOUBLE_EQ(
      tech.delay_ps(CellKind::kBuffer, OperatingPoint::fast_process_only()),
      20.0);
  EXPECT_DOUBLE_EQ(
      tech.delay_ps(CellKind::kBuffer, OperatingPoint::slow_process_only()),
      80.0);
  EXPECT_DOUBLE_EQ(tech.typical_delay_ps(CellKind::kBuffer), 40.0);
}

TEST(Technology, CornerSpreadIsFour) {
  EXPECT_DOUBLE_EQ(Technology::i32nm_class().corner_spread(), 4.0);
}

TEST(Technology, AllCellsHavePositiveAreaAndDelayBudget) {
  const Technology tech = Technology::i32nm_class();
  for (int i = 0; i < kCellKindCount; ++i) {
    const auto kind = static_cast<CellKind>(i);
    EXPECT_GT(tech.area_um2(kind), 0.0) << to_string(kind);
    EXPECT_GE(tech.typical_delay_ps(kind), 0.0) << to_string(kind);
  }
}

TEST(Technology, ScaledTechnologyScalesDelaysAndAreas) {
  const Technology tech = Technology::i32nm_class();
  const Technology scaled = tech.scaled(2.0, 0.5);
  EXPECT_DOUBLE_EQ(scaled.typical_delay_ps(CellKind::kBuffer), 80.0);
  EXPECT_DOUBLE_EQ(scaled.area_um2(CellKind::kBuffer),
                   tech.area_um2(CellKind::kBuffer) * 0.5);
  EXPECT_DOUBLE_EQ(scaled.sequential_timing().setup_ps,
                   tech.sequential_timing().setup_ps * 2.0);
}

TEST(Technology, EnergyScalesWithSupplySquared) {
  const Technology tech = Technology::i32nm_class();
  OperatingPoint op = OperatingPoint::typical();
  const double nominal = tech.energy_fj(CellKind::kBuffer, op);
  op.supply_v = 2.0;
  EXPECT_NEAR(tech.energy_fj(CellKind::kBuffer, op), 4.0 * nominal, 1e-9);
}

TEST(Mismatch, SameSeedReproducesSameDie) {
  const Technology tech = Technology::i32nm_class();
  MismatchSampler a(tech, 42);
  MismatchSampler b(tech, 42);
  const auto op = OperatingPoint::typical();
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.sample_delay_ps(CellKind::kBuffer, op),
                     b.sample_delay_ps(CellKind::kBuffer, op));
  }
}

TEST(Mismatch, DifferentSeedsDiffer) {
  const Technology tech = Technology::i32nm_class();
  MismatchSampler a(tech, 1);
  MismatchSampler b(tech, 2);
  const auto op = OperatingPoint::typical();
  int identical = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.sample_delay_ps(CellKind::kBuffer, op) ==
        b.sample_delay_ps(CellKind::kBuffer, op)) {
      ++identical;
    }
  }
  EXPECT_LT(identical, 5);
}

TEST(Mismatch, SampleIsClampedAroundNominal) {
  const Technology tech = Technology::i32nm_class();
  MismatchSampler sampler(tech, 7, /*sigma=*/0.5);  // Violent mismatch.
  const auto op = OperatingPoint::typical();
  const double nominal = tech.delay_ps(CellKind::kBuffer, op);
  for (int i = 0; i < 1000; ++i) {
    const double d = sampler.sample_delay_ps(CellKind::kBuffer, op);
    EXPECT_GE(d, 0.5 * nominal);
    EXPECT_LE(d, 1.5 * nominal);
  }
}

TEST(Mismatch, MeanTracksNominal) {
  const Technology tech = Technology::i32nm_class();
  MismatchSampler sampler(tech, 11);
  const auto op = OperatingPoint::typical();
  double sum = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    sum += sampler.sample_delay_ps(CellKind::kBuffer, op);
  }
  EXPECT_NEAR(sum / kSamples, 40.0, 0.05);
}

TEST(Mismatch, SeriesDrawIsTheSumOfSingleDrawsBitForBit) {
  // A series draw derates once per call; each buffer must still draw what
  // a single-cell draw would, in the same order, so the sum and the
  // generator state after it are the same bits.
  const Technology tech = Technology::i32nm_class();
  for (const OperatingPoint op : {OperatingPoint::typical(),
                                  OperatingPoint::fast(),
                                  OperatingPoint::slow()}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{196}}) {
      MismatchSampler series(tech, 77);
      MismatchSampler single(tech, 77);
      for (int draw = 0; draw < 3; ++draw) {
        double total = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
          total += single.sample_delay_ps(CellKind::kBuffer, op);
        }
        EXPECT_EQ(series.sample_series_delay_ps(CellKind::kBuffer, op, k),
                  total)
            << "k=" << k << " draw " << draw;
        EXPECT_EQ(series.sample_delay_ps(CellKind::kBuffer, op),
                  single.sample_delay_ps(CellKind::kBuffer, op))
            << "k=" << k << " draw " << draw;
      }
    }
  }
}

// Property: a series of k mismatched cells has relative sigma ~ 1/sqrt(k) --
// the averaging effect behind the thesis's "linearity is better for lower
// frequencies" observation (section 4.3).
class MismatchAveraging : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MismatchAveraging, SeriesSigmaShrinksAsSqrtK) {
  const std::size_t k = GetParam();
  const Technology tech = Technology::i32nm_class();
  const auto op = OperatingPoint::typical();
  MismatchSampler sampler(tech, 1234);
  constexpr int kTrials = 4000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kTrials; ++i) {
    const double d = sampler.sample_series_delay_ps(CellKind::kBuffer, op, k) /
                     static_cast<double>(k);
    sum += d;
    sum_sq += d * d;
  }
  const double mean = sum / kTrials;
  const double sigma = std::sqrt(std::max(0.0, sum_sq / kTrials - mean * mean));
  const double relative = sigma / mean;
  const double expected = tech.mismatch_sigma() / std::sqrt(double(k));
  EXPECT_NEAR(relative, expected, 0.25 * expected) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(SeriesLengths, MismatchAveraging,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace ddl::cells
