// Monte-Carlo harness and summary statistics.
//
// Runs a per-die experiment across many independently seeded dies (each die
// = one mismatch sample of a delay line) and summarizes scalar outcomes.
// Behind Figures 50/51 (post-APR linearity).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

namespace ddl::analysis {

/// Summary of a scalar sample set.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p05 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  std::size_t count = 0;
};

Summary summarize(std::vector<double> samples);

/// Runs `experiment(seed)` for `trials` deterministic seeds derived from
/// `base_seed` and summarizes the returned scalars.  A yield is the mean of
/// a 0/1 experiment; the statistical-sizing study runs its own on the
/// batched engine (yield.h).
///
/// Trials run in parallel on the analysis thread pool: `threads == 0` uses
/// the default pool (`DDL_THREADS` / hardware concurrency; see parallel.h),
/// `threads == 1` forces the serial path.  Each trial's seed depends only
/// on `(base_seed, index)`, trials are sharded by contiguous index range,
/// and the per-shard sample vectors are concatenated in index order before
/// `summarize` -- so the returned Summary is bit-identical for any thread
/// count.
///
/// `experiment` is invoked concurrently from several threads and must be
/// self-contained: construct any Simulator / delay line / controller
/// inside the callback, one per trial (the sim kernel is not thread-safe).
Summary monte_carlo(std::size_t trials, std::uint64_t base_seed,
                    const std::function<double(std::uint64_t seed)>& experiment,
                    std::size_t threads = 0);

/// Derives the i-th die seed (splitmix64 step; never returns 0, which the
/// delay lines reserve for "no mismatch").
std::uint64_t die_seed(std::uint64_t base_seed, std::size_t index);

}  // namespace ddl::analysis
