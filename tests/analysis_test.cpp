// Tests for the analysis toolbox: linearity metrics, MTBF, Monte Carlo,
// yield sweep and report writers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "ddl/analysis/bench_json.h"
#include "ddl/analysis/linearity.h"
#include "ddl/analysis/monte_carlo.h"
#include "ddl/analysis/mtbf.h"
#include "ddl/analysis/parallel.h"
#include "ddl/analysis/report.h"
#include "ddl/analysis/sweep.h"
#include "ddl/analysis/yield.h"

namespace ddl::analysis {
namespace {

// ---- Linearity ------------------------------------------------------------

std::vector<double> perfect_ramp(std::size_t n, double step) {
  std::vector<double> curve;
  for (std::size_t i = 0; i < n; ++i) {
    curve.push_back(step * static_cast<double>(i + 1));
  }
  return curve;
}

TEST(Linearity, PerfectRampHasZeroDnlInl) {
  const auto report = analyze_linearity(perfect_ramp(64, 80.0));
  EXPECT_NEAR(report.max_dnl_lsb, 0.0, 1e-9);
  EXPECT_NEAR(report.max_inl_lsb, 0.0, 1e-9);
  EXPECT_TRUE(report.monotonic);
  EXPECT_EQ(report.zero_steps, 0u);
  EXPECT_DOUBLE_EQ(report.ideal_step, 80.0);
}

TEST(Linearity, SingleOversizedStepShowsInDnl) {
  auto curve = perfect_ramp(64, 80.0);
  for (std::size_t i = 32; i < curve.size(); ++i) {
    curve[i] += 80.0;  // Code 31->32 step doubled.
  }
  const auto report = analyze_linearity(curve);
  // The doubled step is ~1 LSB of DNL (slightly less after end-point
  // renormalization).
  EXPECT_GT(report.max_dnl_lsb, 0.85);
  EXPECT_TRUE(report.monotonic);
}

TEST(Linearity, StaircaseCountsZeroSteps) {
  // Two input words per physical tap -- the proposed scheme's slow corner.
  std::vector<double> curve;
  for (int i = 0; i < 32; ++i) {
    curve.push_back(160.0 * (i / 2 + 1));
  }
  const auto report = analyze_linearity(curve);
  EXPECT_EQ(report.zero_steps, 16u);
  EXPECT_TRUE(report.monotonic);
}

TEST(Linearity, NonMonotonicDetected) {
  auto curve = perfect_ramp(16, 10.0);
  curve[8] = curve[7] - 5.0;
  EXPECT_FALSE(analyze_linearity(curve).monotonic);
}

TEST(Linearity, BowedCurveShowsInInl) {
  std::vector<double> curve;
  for (int i = 0; i < 64; ++i) {
    const double x = static_cast<double>(i) / 63.0;
    curve.push_back(1000.0 * (x + 0.1 * x * (1.0 - x)));  // Parabolic bow.
  }
  const auto report = analyze_linearity(curve);
  EXPECT_GT(report.max_inl_lsb, 1.0);
  EXPECT_GT(report.rms_inl_lsb, 0.3);
}

TEST(Linearity, RejectsTinyCurves) {
  EXPECT_THROW(analyze_linearity({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(dnl_lsb({1.0}), std::invalid_argument);
  EXPECT_THROW(inl_lsb({}), std::invalid_argument);
}

// ---- MTBF -------------------------------------------------------------------

TEST(Mtbf, GrowsExponentiallyWithResolutionTime) {
  MtbfParams params;
  params.resolution_time_s = 1e-9;
  const double short_res = synchronizer_mtbf_s(params);
  params.resolution_time_s = 5e-9;
  const double long_res = synchronizer_mtbf_s(params);
  EXPECT_GT(long_res, short_res * 1e10);
}

TEST(Mtbf, ExtraSynchronizerStageMultipliesMtbf) {
  const auto tech = cells::Technology::i32nm_class();
  const double one = synchronizer_mtbf_s(tech, 100e6, 50e6, 1);
  const double two = synchronizer_mtbf_s(tech, 100e6, 50e6, 2);
  const double three = synchronizer_mtbf_s(tech, 100e6, 50e6, 3);
  EXPECT_GT(two, one * 1e10);
  EXPECT_GE(three, two);  // May saturate at +inf, hence GE.
}

TEST(Mtbf, SingleStageIsUnacceptablyFrequent) {
  // With zero resolution slack a raw flop fails constantly -- the reason
  // Figure 38 adds a second stage.
  const auto tech = cells::Technology::i32nm_class();
  const double mtbf = synchronizer_mtbf_s(tech, 100e6, 50e6, 1);
  EXPECT_LT(mtbf, 1.0);  // Less than a second between failures.
}

TEST(Mtbf, FasterClockWorsensMtbf) {
  const auto tech = cells::Technology::i32nm_class();
  EXPECT_GT(synchronizer_mtbf_s(tech, 50e6, 25e6, 2),
            synchronizer_mtbf_s(tech, 200e6, 100e6, 2));
}

TEST(Mtbf, FormatsHumanReadableUnits) {
  EXPECT_NE(format_mtbf(1e12).find("years"), std::string::npos);
  EXPECT_NE(format_mtbf(10.0).find(" s"), std::string::npos);
  EXPECT_NE(format_mtbf(1e-7).find("us"), std::string::npos);
}

// ---- Monte Carlo ---------------------------------------------------------------

TEST(MonteCarlo, SummaryOfKnownSamples) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_EQ(s.count, 5u);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);

  // An INL die that cannot lock reads +inf; an exact rank beside it must
  // not weigh it by zero (inf * 0 is NaN).
  const auto unlocked =
      summarize({1.0, 2.0, std::numeric_limits<double>::infinity()});
  EXPECT_DOUBLE_EQ(unlocked.p50, 2.0);
  EXPECT_TRUE(std::isinf(unlocked.p95));
  EXPECT_TRUE(std::isinf(unlocked.max));
}

TEST(MonteCarlo, EmptySummaryIsZero) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(MonteCarlo, DieSeedsAreDistinctAndNonZero) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) {
    const auto seed = die_seed(42, i);
    EXPECT_NE(seed, 0u);
    seeds.insert(seed);
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(MonteCarlo, HarnessIsDeterministic) {
  auto experiment = [](std::uint64_t seed) {
    return static_cast<double>(seed % 1000);
  };
  const auto a = monte_carlo(100, 7, experiment);
  const auto b = monte_carlo(100, 7, experiment);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
}

/// A yield is the mean of a 0/1 experiment: the fraction of dies whose
/// seed passes `predicate`.
double yield_of(std::size_t trials, std::uint64_t base_seed,
                const std::function<bool(std::uint64_t)>& predicate,
                std::size_t threads = 0) {
  return monte_carlo(
             trials, base_seed,
             [&](std::uint64_t seed) { return predicate(seed) ? 1.0 : 0.0; },
             threads)
      .mean;
}

TEST(MonteCarlo, YieldCountsPredicatePasses) {
  EXPECT_DOUBLE_EQ(yield_of(100, 1, [](std::uint64_t) { return true; }), 1.0);
  EXPECT_DOUBLE_EQ(yield_of(100, 1, [](std::uint64_t) { return false; }), 0.0);
  const auto odd = [](std::uint64_t seed) { return (seed & 1) != 0; };
  const double half = yield_of(10'000, 1, odd);
  EXPECT_NEAR(half, 0.5, 0.03);
  // The mean of 0/1 samples is the exact pass count over the trials.
  std::size_t passes = 0;
  for (std::size_t i = 0; i < 10'000; ++i) {
    passes += odd(die_seed(1, i)) ? 1 : 0;
  }
  EXPECT_EQ(half, static_cast<double>(passes) / 10'000.0);
}

// ---- Parallel execution layer ----------------------------------------------------

/// All eight Summary fields must match exactly -- the engine's contract is
/// bit-identical results for any thread count.
void expect_identical(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p05, b.p05);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.count, b.count);
}

/// A trial with enough floating-point structure that any reordering of the
/// sample vector or partial reduction would change some Summary field.
double irrational_experiment(std::uint64_t seed) {
  const double x = static_cast<double>(seed % 100003);
  return std::sin(x) * 1e3 + std::sqrt(x + 1.0) / 3.0;
}

TEST(Parallel, ShardRangesPartitionTheIndexSpace) {
  for (std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
    for (std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
      if (shards > count && count != 0) {
        continue;
      }
      std::size_t expected_begin = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [begin, end] = shard_range(count, shards, s);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, count);
    }
  }
}

TEST(Parallel, DefaultThreadCountHonorsEnvOverride) {
  ASSERT_EQ(setenv("DDL_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3u);
  ASSERT_EQ(setenv("DDL_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("DDL_THREADS"), 0);
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(Parallel, ForReduceConcatenatesInIndexOrder) {
  constexpr std::size_t kCount = 10'000;
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    const auto indices = parallel_for_reduce<std::vector<std::size_t>>(
        pool, kCount, [] { return std::vector<std::size_t>(); },
        [](std::size_t i, std::vector<std::size_t>& acc) { acc.push_back(i); },
        [](std::vector<std::size_t>& total, std::vector<std::size_t>&& shard) {
          total.insert(total.end(), shard.begin(), shard.end());
        });
    ASSERT_EQ(indices.size(), kCount) << threads << " threads";
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(indices[i], i) << threads << " threads";
    }
  }
}

TEST(Parallel, ForReducePropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for_reduce<int>(
          pool, 100, [] { return 0; },
          [](std::size_t i, int&) {
            if (i == 57) {
              throw std::runtime_error("trial exploded");
            }
          },
          [](int& total, int&& shard) { total += shard; }),
      std::runtime_error);
  // The pool must survive a throwing batch and run the next one cleanly.
  const int sum = parallel_for_reduce<int>(
      pool, 10, [] { return 0; },
      [](std::size_t i, int& acc) { acc += static_cast<int>(i); },
      [](int& total, int&& shard) { total += shard; });
  EXPECT_EQ(sum, 45);
}

TEST(MonteCarlo, SummaryBitIdenticalAcrossThreadCounts) {
  const auto baseline = monte_carlo(1000, 42, irrational_experiment, 1);
  EXPECT_EQ(baseline.count, 1000u);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, hw}) {
    expect_identical(baseline,
                     monte_carlo(1000, 42, irrational_experiment, threads));
  }
  // The default-pool entry point must agree too.
  expect_identical(baseline, monte_carlo(1000, 42, irrational_experiment));
}

TEST(MonteCarlo, YieldIdenticalAcrossThreadCounts) {
  const auto predicate = [](std::uint64_t seed) { return (seed % 3) == 0; };
  const double serial = yield_of(999, 5, predicate, 1);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    EXPECT_EQ(serial, yield_of(999, 5, predicate, threads));
  }
  EXPECT_EQ(serial, yield_of(999, 5, predicate));
}

TEST(MonteCarlo, DieSeedNeverZeroAcrossManyBases) {
  for (const std::uint64_t base :
       {0ULL, 1ULL, 42ULL, 0xffffffffffffffffULL, 0x9e3779b97f4a7c15ULL}) {
    for (std::size_t i = 0; i < 10'000; ++i) {
      ASSERT_NE(die_seed(base, i), 0u) << "base " << base << " index " << i;
    }
  }
}

// ---- Corner x die sweep ----------------------------------------------------------

TEST(Sweep, MatchesPerCornerMonteCarloAndIsThreadCountInvariant) {
  const std::vector<cells::OperatingPoint> corners = {
      cells::OperatingPoint::fast_process_only(),
      cells::OperatingPoint::typical(),
      cells::OperatingPoint::slow_process_only()};
  const auto experiment = [](const cells::OperatingPoint& op,
                             std::uint64_t seed) {
    return cells::process_delay_factor(op.corner) * irrational_experiment(seed);
  };
  const auto serial = sweep(corners, 200, 11, experiment, 1);
  ASSERT_EQ(serial.size(), corners.size());
  for (const std::size_t threads : {2u, 4u, 5u}) {
    const auto parallel = sweep(corners, 200, 11, experiment, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
      EXPECT_EQ(parallel[c].op, serial[c].op);
      expect_identical(serial[c].summary, parallel[c].summary);
    }
  }
  // Each corner's summary equals a standalone monte_carlo of the same
  // experiment pinned to that corner: sweep shares die seeds across
  // corners (same die probed at each operating point).
  for (std::size_t c = 0; c < corners.size(); ++c) {
    const auto op = corners[c];
    expect_identical(
        serial[c].summary,
        monte_carlo(200, 11,
                    [&](std::uint64_t seed) { return experiment(op, seed); },
                    1));
  }
}

TEST(Sweep, EmptyGridsYieldEmptySummaries) {
  const std::vector<cells::OperatingPoint> corners = {
      cells::OperatingPoint::typical()};
  const auto none = sweep(corners, 0, 1,
                          [](const cells::OperatingPoint&, std::uint64_t) {
                            return 1.0;
                          });
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].summary.count, 0u);
  EXPECT_TRUE(sweep({}, 10, 1,
                    [](const cells::OperatingPoint&, std::uint64_t) {
                      return 1.0;
                    })
                  .empty());
}

// ---- Yield sweep (future work 5.2) ---------------------------------------------

TEST(Yield, MoreCellsNeverHurtYield) {
  const auto tech = cells::Technology::i32nm_class();
  core::ProposedLineConfig base{256, 2};
  const auto sweep =
      yield_vs_cells(tech, base, 10'000.0, ProcessDistribution{}, 64, 512,
                     /*trials=*/200, /*seed=*/3);
  ASSERT_EQ(sweep.size(), 4u);  // 64, 128, 256, 512.
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GE(sweep[i].yield, sweep[i - 1].yield);
    EXPECT_GT(sweep[i].area_um2, sweep[i - 1].area_um2);
  }
}

TEST(Yield, WorstCaseCountYieldsEverything) {
  // 256 cells x 2 buffers covers the period even for an all-fast die, so
  // yield at the worst-case count must be 1.0 (the thesis's "100% of the
  // designed chips" criterion).
  const auto tech = cells::Technology::i32nm_class();
  const auto sweep =
      yield_vs_cells(tech, core::ProposedLineConfig{256, 2}, 10'000.0,
                     ProcessDistribution{}, 256, 256, 300, 5);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_DOUBLE_EQ(sweep[0].yield, 1.0);
}

TEST(Yield, UndersizedLineLosesDies) {
  // 64 cells x 2 buffers = 10.24 ns only for the *slowest* dies; typical
  // ones fall short, so yield collapses.
  const auto tech = cells::Technology::i32nm_class();
  const auto sweep =
      yield_vs_cells(tech, core::ProposedLineConfig{256, 2}, 10'000.0,
                     ProcessDistribution{}, 64, 64, 300, 5);
  EXPECT_LT(sweep[0].yield, 0.5);
}

TEST(Yield, BenchSweepReadsTheStatisticalSizingNumbers) {
  // bench_yield_vs_cells' own arguments (100 MHz, 256 x 2 base, 32..512
  // cells, 2000 dies, seed 77) and the numbers it prints, which
  // EXPERIMENTS.md quotes: no die of 32 or 64 cells covers the period,
  // 1030 of 2000 at 128 cells (51.5 %; ~54 % over many seeds), every die
  // from 256 cells up, so each yield target needs 256 cells.  The counter
  // sampler makes the table the same at any thread count.
  const auto tech = cells::Technology::i32nm_class();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const auto sweep =
        yield_vs_cells(tech, core::ProposedLineConfig{256, 2}, 10'000.0,
                       ProcessDistribution{}, 32, 512, /*trials=*/2000,
                       /*seed=*/77, threads);
    ASSERT_EQ(sweep.size(), 5u);
    const std::size_t counts[] = {32, 64, 128, 256, 512};
    const double yields[] = {0.0, 0.0, 1030.0 / 2000.0, 1.0, 1.0};
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      EXPECT_EQ(sweep[i].num_cells, counts[i]);
      EXPECT_EQ(sweep[i].yield, yields[i]) << counts[i] << " cells";
    }
    for (const double target : {0.90, 0.99, 0.999}) {
      EXPECT_EQ(cells_for_yield(sweep, target), 256u) << target;
    }
  }
}

TEST(Yield, CellsForYieldPicksSmallestSufficientCount) {
  std::vector<YieldPoint> sweep{{64, 0.2, 80.0}, {128, 0.95, 160.0},
                                {256, 1.0, 320.0}};
  EXPECT_EQ(cells_for_yield(sweep, 0.9), 128u);
  EXPECT_EQ(cells_for_yield(sweep, 0.99), 256u);
  EXPECT_EQ(cells_for_yield(sweep, 1.1), 0u);
}

// ---- Report writers --------------------------------------------------------------

TEST(Report, TextTableAlignsAndValidates) {
  TextTable table({"corner", "area"});
  table.add_row({"fast", TextTable::num(123.456, 1)});
  EXPECT_THROW(table.add_row({"too", "many", "cells"}), std::invalid_argument);
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("corner"), std::string::npos);
  EXPECT_NE(rendered.find("123.5"), std::string::npos);
}

TEST(Report, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "ddl_report_test.csv";
  write_csv(path, "x", {1.0, 2.0}, {{"a", {10.0, 20.0}}, {"b", {30.0, 40.0}}});
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "x,a,b");
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row, "1,10,30");
  std::remove(path.c_str());
}

TEST(Report, CsvRejectsMismatchedSeries) {
  EXPECT_THROW(write_csv(::testing::TempDir() + "bad.csv", "x", {1.0},
                         {{"a", {1.0, 2.0}}}),
               std::invalid_argument);
}

// ---- Bench JSON reports ----------------------------------------------------------

TEST(BenchJson, RendersTypesEscapesAndKeyOrder) {
  BenchReport report("unit_test");
  report.set("pi", 3.5);
  report.set("count", std::uint64_t{42});
  report.set("delta", std::int64_t{-7});
  report.set("ok", true);
  report.set("label", "a \"quoted\"\nline");
  const std::string json = report.to_json();
  // name and threads are auto-recorded first; fields keep insertion order.
  EXPECT_LT(json.find("\"name\": \"unit_test\""), json.find("\"threads\""));
  EXPECT_LT(json.find("\"threads\""), json.find("\"pi\": 3.5"));
  EXPECT_NE(json.find("\"count\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"delta\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"a \\\"quoted\\\"\\nline\""),
            std::string::npos);
  // Re-setting a key overwrites in place instead of appending.
  report.set("pi", 3.25);
  EXPECT_NE(report.to_json().find("\"pi\": 3.25"), std::string::npos);
  EXPECT_EQ(report.to_json().find("\"pi\": 3.5"), std::string::npos);
}

TEST(BenchJson, SummaryFlattensAllFields) {
  BenchReport report("unit_test");
  report.set_summary("inl", summarize({1.0, 2.0, 3.0}));
  const std::string json = report.to_json();
  for (const char* field :
       {"inl_mean", "inl_stddev", "inl_min", "inl_max", "inl_p05", "inl_p50",
        "inl_p95", "inl_count"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  EXPECT_NE(json.find("\"inl_count\": 3"), std::string::npos);
}

TEST(BenchJson, WriteHonorsBenchDirEnv) {
  ASSERT_EQ(setenv("DDL_BENCH_DIR", ::testing::TempDir().c_str(), 1), 0);
  BenchReport report("write_test");
  report.set("wall_ms", 1.5);
  const std::string path = report.write();
  ASSERT_EQ(unsetenv("DDL_BENCH_DIR"), 0);
  EXPECT_NE(path.find("BENCH_write_test.json"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"name\": \"write_test\""), std::string::npos);
  EXPECT_NE(contents.find("\"wall_ms\": 1.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchJson, TrialsOverrideFromEnv) {
  ASSERT_EQ(setenv("DDL_BENCH_TRIALS", "5", 1), 0);
  EXPECT_EQ(BenchReport::trials_or(100), 5u);
  ASSERT_EQ(setenv("DDL_BENCH_TRIALS", "bogus", 1), 0);
  EXPECT_EQ(BenchReport::trials_or(100), 100u);
  ASSERT_EQ(unsetenv("DDL_BENCH_TRIALS"), 0);
  EXPECT_EQ(BenchReport::trials_or(100), 100u);
}

TEST(BenchJson, RejectsEmptyName) {
  EXPECT_THROW(BenchReport(""), std::invalid_argument);
}

}  // namespace
}  // namespace ddl::analysis
