#include "ddl/analysis/monte_carlo.h"

#include "ddl/analysis/parallel.h"
#include "ddl/core/hash.h"

namespace ddl::analysis {
namespace {

Summary run_monte_carlo(
    ThreadPool& pool, std::size_t trials, std::uint64_t base_seed,
    const std::function<double(std::uint64_t seed)>& experiment) {
  auto samples = parallel_for_reduce<std::vector<double>>(
      pool, trials,
      [&] {
        std::vector<double> acc;
        acc.reserve(trials / pool.thread_count() + 1);
        return acc;
      },
      [&](std::size_t i, std::vector<double>& acc) {
        acc.push_back(experiment(die_seed(base_seed, i)));
      },
      [](std::vector<double>& total, std::vector<double>&& shard) {
        total.insert(total.end(), shard.begin(), shard.end());
      });
  return summarize(std::move(samples));
}

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : samples) {
    sum += x;
    sum_sq += x * x;
  }
  const double n = static_cast<double>(samples.size());
  s.mean = sum / n;
  s.stddev = std::sqrt(std::max(0.0, sum_sq / n - s.mean * s.mean));
  s.min = samples.front();
  s.max = samples.back();
  auto percentile = [&samples](double p) {
    const double pos = p * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    // No zero-weight term: inf * 0 would turn an exact rank into NaN.
    return frac == 0.0 ? samples[lo]
                       : samples[lo] * (1.0 - frac) + samples[hi] * frac;
  };
  s.p05 = percentile(0.05);
  s.p50 = percentile(0.50);
  s.p95 = percentile(0.95);
  return s;
}

std::uint64_t die_seed(std::uint64_t base_seed, std::size_t index) {
  // splitmix64 (core/hash.h): well-distributed, cheap, deterministic.
  const std::uint64_t z =
      core::splitmix64_mix(base_seed + core::kSplitMix64Gamma * (index + 1));
  return z == 0 ? 1 : z;
}

Summary monte_carlo(
    std::size_t trials, std::uint64_t base_seed,
    const std::function<double(std::uint64_t seed)>& experiment,
    std::size_t threads) {
  if (threads == 0) {
    return run_monte_carlo(ThreadPool::global(), trials, base_seed,
                           experiment);
  }
  ThreadPool pool(threads);
  return run_monte_carlo(pool, trials, base_seed, experiment);
}

}  // namespace ddl::analysis
