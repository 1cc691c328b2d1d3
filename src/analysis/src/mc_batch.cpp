// Driver for the batched Monte-Carlo engine: validates specs, shards
// batch blocks across the analysis thread pool, dispatches the block
// kernel and routes divergent dies to the scalar reference path.
//
// This TU is compiled with -ffp-contract=off: it contains the scalar
// reference (`batch_die_inl_scalar`, `batch_die_covers_period_scalar`)
// whose arithmetic must match the kernel TUs bit-for-bit, and GCC's
// default -ffp-contract=fast fuses multiply-adds *across statements*,
// which would silently change the reference's rounding.
#include "ddl/analysis/mc_batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "ddl/analysis/parallel.h"
#include "ddl/cells/batch_mismatch.h"
#include "ddl/core/proposed_controller.h"
#include "mc_batch_kernel.h"

namespace ddl::analysis {

namespace detail {

KernelVariant select_kernel() {
  KernelVariant variant{&kernel_base::inl_block, &kernel_base::yield_block,
                        "base"};
#if defined(DDL_MC_BATCH_HAS_AVX2) || defined(DDL_MC_BATCH_HAS_AVX512)
  const char* force = std::getenv("DDL_MC_BATCH_KERNEL");
  const std::string_view cap =
      force != nullptr ? std::string_view(force) : std::string_view();
  if (cap == "base") {
    return variant;
  }
#endif
#if defined(DDL_MC_BATCH_HAS_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    variant = {&kernel_avx2::inl_block, &kernel_avx2::yield_block, "avx2"};
  }
#endif
#if defined(DDL_MC_BATCH_HAS_AVX512)
  if (cap != "avx2" && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    variant = {&kernel_avx512::inl_block, &kernel_avx512::yield_block,
               "avx512"};
  }
#endif
  return variant;
}

}  // namespace detail

namespace {

void validate_line(const BatchLineSpec& line) {
  if (line.num_cells < 2 || !std::has_single_bit(line.num_cells)) {
    throw std::invalid_argument(
        "mc_batch: num_cells must be a power of two >= 2");
  }
  if (line.buffers_per_cell < 1) {
    throw std::invalid_argument("mc_batch: buffers_per_cell must be >= 1");
  }
  if (!(line.nominal_cell_ps > 0.0)) {
    throw std::invalid_argument("mc_batch: nominal_cell_ps must be positive");
  }
  if (!(line.sigma_cell >= 0.0)) {
    throw std::invalid_argument("mc_batch: sigma_cell must be >= 0");
  }
}

void validate_faults(const BatchLineSpec& line,
                     const std::vector<BatchFault>& faults) {
  for (const BatchFault& fault : faults) {
    if (fault.cell >= line.num_cells) {
      throw std::out_of_range("mc_batch: fault cell out of range");
    }
    if (!(fault.severity > 0.0)) {
      throw std::invalid_argument("mc_batch: fault severity must be positive");
    }
  }
}

void validate_spec(const McBatchSpec& spec) {
  validate_line(spec.line);
  if (!(spec.clock_period_ps > 0.0)) {
    throw std::invalid_argument("mc_batch: clock period must be positive");
  }
  validate_faults(spec.line, spec.faults);
}

void validate_yield_spec(const BatchYieldSpec& spec) {
  validate_line(spec.line);
  if (!(spec.clock_period_ps > 0.0)) {
    throw std::invalid_argument("mc_batch: clock period must be positive");
  }
  if (!(spec.factor_sigma >= 0.0) || !(spec.factor_min <= spec.factor_max)) {
    throw std::invalid_argument("mc_batch: invalid process-factor model");
  }
}

detail::BatchKernelParams make_params(const McBatchSpec& spec,
                                      const cells::OperatingPoint& op) {
  detail::BatchKernelParams kp;
  kp.num_cells = spec.line.num_cells;
  kp.nominal_cell_ps = spec.line.nominal_cell_ps;
  kp.sigma_cell = spec.line.sigma_cell;
  kp.derate = cells::delay_derating(op);
  kp.period_ps = spec.clock_period_ps;
  kp.half_period_ps = spec.clock_period_ps / 2.0;
  kp.shift_bits = static_cast<int>(std::bit_width(spec.line.num_cells)) - 2;
  return kp;
}

/// The scalar reference body shared by batch_die_inl_scalar (which first
/// selects spec.faults by trial) and the explicit-die path (whose dies
/// carry their faults directly).  Faults are injected in array order,
/// composing multiplicatively like the public reference.
double die_inl_scalar_impl(const McBatchSpec& spec, std::uint64_t die_seed,
                           const BatchFault* faults, std::size_t num_faults) {
  const std::size_t n = spec.line.num_cells;
  std::vector<double> cell_ps(n);
  cells::batch_sample_cell_delays(die_seed, n, spec.line.nominal_cell_ps,
                                  spec.line.sigma_cell, cell_ps.data());
  core::ProposedDelayLine line({n, spec.line.buffers_per_cell},
                               std::move(cell_ps), spec.line.nominal_cell_ps);
  for (std::size_t f = 0; f < num_faults; ++f) {
    line.inject_cell_fault(faults[f].cell, faults[f].severity);
  }
  core::ProposedController controller(line, spec.clock_period_ps);
  // A die that cannot lock -- kAtLimit, or a degenerate lock at tap 0 that
  // maps every duty word to tap 0 -- has no transfer curve: +inf fails any
  // INL limit.
  if (!controller.run_to_lock(spec.op).has_value() ||
      controller.tap_sel() == 0) {
    return std::numeric_limits<double>::infinity();
  }
  const std::size_t tap_sel = controller.tap_sel();
  const core::DutyMapper mapper(n);
  // Endpoint-fit INL over all duty codes, the same explicit-fma arithmetic
  // the batch kernel's per-lock-tap scan evaluates for its lanes.
  const double cfront = line.tap_delay_ps(mapper.map(0, tap_sel), spec.op);
  const double clast = line.tap_delay_ps(mapper.map(n - 1, tap_sel), spec.op);
  const double lsb = (clast - cfront) / static_cast<double>(n - 1);
  double max_dev = 0.0;
  for (std::size_t w = 0; w < n; ++w) {
    const double cv = line.tap_delay_ps(mapper.map(w, tap_sel), spec.op);
    const double dev = cv - std::fma(lsb, static_cast<double>(w), cfront);
    const double abs_dev = dev < 0.0 ? -dev : dev;
    if (abs_dev > max_dev) {
      max_dev = abs_dev;
    }
  }
  return max_dev / (lsb < 0.0 ? -lsb : lsb);
}

/// The one block driver: runs explicit dies [begin, end) (end - begin <=
/// kBatchLanes) through the block kernel, re-running divergent or
/// multi-fault dies on the scalar path.  Writes end - begin samples to
/// `out`.  The lane inputs are each die's own (seed, faults) -- never a
/// cross-die derivation -- which is what makes packing dies from different
/// scenarios byte-invisible.
void run_dies_block(const McBatchSpec& spec,
                    const detail::BatchKernelParams& kp,
                    detail::InlBlockFn kernel, const std::vector<BatchDie>& dies,
                    std::size_t begin, std::size_t end,
                    detail::BatchWorkspace& ws, double* out,
                    std::uint64_t& scalar_fallbacks) {
  std::uint64_t seeds[kBatchLanes];
  std::size_t fault_cell[kBatchLanes];
  double fault_severity[kBatchLanes];
  bool multi_fault[kBatchLanes];
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    // Lanes past the last die re-run the final one; their outputs are
    // discarded below, they just keep the block shape uniform.
    const std::size_t die = begin + l < end ? begin + l : end - 1;
    seeds[l] = dies[die].seed;
    fault_cell[l] = detail::kNoFault;
    fault_severity[l] = 1.0;
    multi_fault[l] = false;
    const std::vector<BatchFault>& faults = dies[die].faults;
    if (faults.size() == 1) {
      fault_cell[l] = faults.front().cell;
      fault_severity[l] = faults.front().severity;
    } else if (faults.size() > 1) {
      // Compound faults are rare enough that the scalar line, which
      // composes them multiplicatively in injection order, is the simpler
      // source of truth.
      multi_fault[l] = true;
    }
  }

  double inl[kBatchLanes];
  bool needs_fallback[kBatchLanes];
  kernel(kp, seeds, fault_cell, fault_severity, ws, inl, needs_fallback);

  for (std::size_t l = 0; begin + l < end; ++l) {
    if (multi_fault[l] || needs_fallback[l]) {
      const std::vector<BatchFault>& faults = dies[begin + l].faults;
      inl[l] = die_inl_scalar_impl(spec, seeds[l], faults.data(),
                                   faults.size());
      ++scalar_fallbacks;
    }
    out[l] = inl[l];
  }
}

struct InlAcc {
  std::vector<double> samples;
  std::uint64_t scalar_fallbacks = 0;
  detail::BatchWorkspace ws;
};

std::vector<double> run_batched_dies(ThreadPool& pool, const McBatchSpec& spec,
                                     const std::vector<BatchDie>& dies,
                                     McBatchStats* stats) {
  const detail::BatchKernelParams kp = make_params(spec, spec.op);
  const detail::KernelVariant kernel = detail::select_kernel();
  const std::size_t blocks = (dies.size() + kBatchLanes - 1) / kBatchLanes;

  InlAcc total = parallel_for_reduce<InlAcc>(
      pool, blocks,
      [&] {
        InlAcc acc;
        acc.samples.reserve((blocks / pool.thread_count() + 1) * kBatchLanes);
        acc.ws.resize(spec.line.num_cells);
        return acc;
      },
      [&](std::size_t block, InlAcc& acc) {
        const std::size_t begin = block * kBatchLanes;
        const std::size_t end = std::min(dies.size(), begin + kBatchLanes);
        double out[kBatchLanes];
        run_dies_block(spec, kp, kernel.inl, dies, begin, end, acc.ws, out,
                       acc.scalar_fallbacks);
        acc.samples.insert(acc.samples.end(), out, out + (end - begin));
      },
      [](InlAcc& into, InlAcc&& shard) {
        into.samples.insert(into.samples.end(), shard.samples.begin(),
                            shard.samples.end());
        into.scalar_fallbacks += shard.scalar_fallbacks;
      });

  if (stats != nullptr) {
    stats->scalar_fallbacks = total.scalar_fallbacks;
  }
  return std::move(total.samples);
}

}  // namespace

BatchLineSpec BatchLineSpec::from_technology(
    const cells::Technology& tech, const core::ProposedLineConfig& config,
    double sigma_override) {
  BatchLineSpec spec;
  spec.num_cells = config.num_cells;
  spec.buffers_per_cell = config.buffers_per_cell;
  spec.nominal_cell_ps =
      tech.typical_delay_ps(cells::CellKind::kBuffer) * config.buffers_per_cell;
  const double sigma_buffer =
      sigma_override >= 0.0 ? sigma_override : tech.mismatch_sigma();
  // One draw per cell with the series-averaging sigma: a chain of k iid
  // buffers has relative sigma = sigma_buffer / sqrt(k).
  spec.sigma_cell =
      sigma_buffer / std::sqrt(static_cast<double>(config.buffers_per_cell));
  return spec;
}

std::vector<double> monte_carlo_batched_samples(const McBatchSpec& spec,
                                                std::size_t trials,
                                                std::uint64_t base_seed,
                                                std::size_t threads,
                                                McBatchStats* stats) {
  // Die i is trial i: its seed, and the faults frozen into it in spec order
  // (a fault past the last trial belongs to no die).
  std::vector<BatchDie> dies(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    dies[i].seed = die_seed(base_seed, i);
  }
  for (const BatchFault& fault : spec.faults) {
    if (fault.trial < trials) {
      dies[fault.trial].faults.push_back(fault);
    }
  }
  return monte_carlo_batched_dies(spec, dies, threads, stats);
}

std::vector<double> monte_carlo_batched_dies(const McBatchSpec& spec,
                                             const std::vector<BatchDie>& dies,
                                             std::size_t threads,
                                             McBatchStats* stats) {
  validate_spec(spec);
  for (const BatchDie& die : dies) {
    validate_faults(spec.line, die.faults);
  }
  if (stats != nullptr) {
    *stats = McBatchStats{};
  }
  if (dies.empty()) {
    return {};
  }
  if (threads == 0) {
    return run_batched_dies(ThreadPool::global(), spec, dies, stats);
  }
  ThreadPool pool(threads);
  return run_batched_dies(pool, spec, dies, stats);
}

Summary monte_carlo_batched(const McBatchSpec& spec, std::size_t trials,
                            std::uint64_t base_seed, std::size_t threads,
                            McBatchStats* stats) {
  return summarize(
      monte_carlo_batched_samples(spec, trials, base_seed, threads, stats));
}

double batch_die_inl_scalar(const McBatchSpec& spec, std::size_t trial,
                            std::uint64_t die_seed) {
  validate_spec(spec);
  std::vector<BatchFault> faults;
  for (const BatchFault& fault : spec.faults) {
    if (fault.trial == trial) {
      faults.push_back(fault);
    }
  }
  return die_inl_scalar_impl(spec, die_seed, faults.data(), faults.size());
}

double monte_carlo_yield_batched(const BatchYieldSpec& spec,
                                 std::size_t trials, std::uint64_t base_seed,
                                 std::size_t threads) {
  validate_yield_spec(spec);
  if (trials == 0) {
    return 0.0;
  }

  detail::BatchYieldKernelParams yp;
  yp.num_cells = spec.line.num_cells;
  yp.nominal_cell_ps = spec.line.nominal_cell_ps;
  yp.sigma_cell = spec.line.sigma_cell;
  yp.period_ps = spec.clock_period_ps;
  yp.factor_mean = spec.factor_mean;
  yp.factor_sigma = spec.factor_sigma;
  yp.factor_min = spec.factor_min;
  yp.factor_max = spec.factor_max;
  const detail::KernelVariant kernel = detail::select_kernel();
  const std::size_t blocks = (trials + kBatchLanes - 1) / kBatchLanes;

  struct YieldAcc {
    std::uint64_t passes = 0;
    detail::BatchWorkspace ws;
  };
  auto run = [&](ThreadPool& pool) {
    return parallel_for_reduce<YieldAcc>(
        pool, blocks,
        [&] {
          YieldAcc acc;
          acc.ws.resize(spec.line.num_cells);
          return acc;
        },
        [&](std::size_t block, YieldAcc& acc) {
          const std::size_t begin = block * kBatchLanes;
          const std::size_t end = std::min(trials, begin + kBatchLanes);
          std::uint64_t seeds[kBatchLanes];
          for (std::size_t l = 0; l < kBatchLanes; ++l) {
            const std::size_t trial = begin + l < end ? begin + l : end - 1;
            seeds[l] = die_seed(base_seed, trial);
          }
          bool pass[kBatchLanes];
          kernel.yield(yp, seeds, acc.ws, pass);
          for (std::size_t l = 0; begin + l < end; ++l) {
            acc.passes += pass[l] ? 1 : 0;
          }
        },
        [](YieldAcc& into, YieldAcc&& shard) { into.passes += shard.passes; });
  };

  std::uint64_t passes = 0;
  if (threads == 0) {
    passes = run(ThreadPool::global()).passes;
  } else {
    ThreadPool pool(threads);
    passes = run(pool).passes;
  }
  return static_cast<double>(passes) / static_cast<double>(trials);
}

bool batch_die_covers_period_scalar(const BatchYieldSpec& spec,
                                    std::uint64_t die_seed) {
  validate_yield_spec(spec);
  const std::size_t n = spec.line.num_cells;
  std::vector<double> cell_ps(n);
  cells::batch_sample_cell_delays(die_seed, n, spec.line.nominal_cell_ps,
                                  spec.line.sigma_cell, cell_ps.data());
  const core::ProposedDelayLine line(
      {n, spec.line.buffers_per_cell}, std::move(cell_ps),
      spec.line.nominal_cell_ps);
  const double line_ps =
      line.tap_delay_ps(n - 1, cells::OperatingPoint::typical());
  const double factor = detail::batch_process_factor(
      die_seed, n, spec.factor_mean, spec.factor_sigma, spec.factor_min,
      spec.factor_max);
  return line_ps * factor >= spec.clock_period_ps;
}

const char* mc_batch_kernel_name() { return detail::select_kernel().name; }

}  // namespace ddl::analysis
