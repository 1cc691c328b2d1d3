// Batched Monte-Carlo die kernel: N dies through one traversal.
//
// The scalar engine (monte_carlo.h) re-walks an identical netlist once per
// die -- ~30 k dies/s on one core for the Figure 50/51 linearity workload.
// This layer propagates a whole batch of dies through each pipeline stage
// at once: per-cell mismatch is sampled with the counter-based generator
// (cells/batch_mismatch.h) into structure-of-arrays delay lanes (die =
// lane, cell-major layout), tap delays come from SIMD-friendly vectorized
// prefix sums over the lanes, the controller's lock walk is replayed in
// closed form per lane, and the Eq-18 mapper's INL is scanned once per
// distinct lock tap with the lanes side by side -- one schedule amortized
// across the batch.  A block samples only the cells its dies read: through
// each lane's T/2 crossing and the mapper's last tap (all cells for a die
// that never crosses), planned from the nominal line and extended when a
// lane reads further.  A cell's draw does not depend on which cells a
// block samples, so neither does any die's result.
//
// Determinism and equivalence contract (tested die-by-die):
//   * every die's result is a pure function of its seed and faults (of
//     (base_seed, die index) for the trial-indexed entry points) --
//     batching, lane position, SIMD variant and thread count are all
//     invisible in the output;
//   * one driver runs every die: the trial-indexed entry points
//     (monte_carlo_batched[_samples]) expand their trials into the
//     explicit die list monte_carlo_batched_dies takes, and that driver
//     shards blocks over parallel_for_reduce with contiguous shards merged
//     in order, so Summaries are bit-identical for any thread count,
//     exactly like the scalar engine;
//   * a die the closed form cannot represent (a delay wrapping past the
//     clock period, e.g. after a severe cell fault) is split out of the
//     batch and re-run on the scalar path (`batch_die_inl_scalar`), which
//     drives the real ProposedController/DutyMapper objects.
// See DESIGN.md "Batched Monte-Carlo kernel".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ddl/analysis/monte_carlo.h"
#include "ddl/cells/operating_point.h"
#include "ddl/cells/technology.h"
#include "ddl/core/proposed_line.h"

namespace ddl::analysis {

/// Dies processed per batch block (the SoA lane count).  Eight double
/// lanes span two AVX2 vectors -- wide enough to saturate the SIMD units,
/// small enough that a block's working set stays in L1.
inline constexpr std::size_t kBatchLanes = 8;

/// The statistical die model the batch engine samples: one Gaussian delay
/// multiplier per *cell* with sigma_cell = sigma_buffer / sqrt(buffers),
/// the averaging law the per-buffer model converges to.
struct BatchLineSpec {
  std::size_t num_cells = 256;  ///< Power of two >= 4 (Eq 18 mapper).
  int buffers_per_cell = 2;
  double nominal_cell_ps = 80.0;  ///< Typical buffer delay x buffers.
  double sigma_cell = 0.0;        ///< Effective per-cell mismatch sigma.

  /// Derives the spec from a technology + line config (the common case).
  /// `sigma_override < 0` keeps the technology's post-APR sigma.
  static BatchLineSpec from_technology(const cells::Technology& tech,
                                       const core::ProposedLineConfig& config,
                                       double sigma_override = -1.0);
};

/// A frozen fabrication defect on one die of the batch: cell `cell` of
/// trial `trial` has its delay multiplied by `severity` (> 0), matching
/// ProposedDelayLine::inject_cell_fault.  A severe fault can push the die
/// off the closed-form lock walk -- that die falls back to the scalar
/// path and still matches it bit-for-bit.
struct BatchFault {
  std::size_t trial = 0;
  std::size_t cell = 0;
  double severity = 1.0;
};

/// The batched Figure-50/51 experiment: per die, lock the line at `op`,
/// map every duty word through the Eq-18 mapper and measure the transfer
/// curve's max |INL|.  Dies that cannot lock (kAtLimit, or a lock at
/// tap 0 that maps every duty word to one tap) report +infinity, so they
/// fail any finite INL limit.
struct McBatchSpec {
  BatchLineSpec line;
  double clock_period_ps = 10'000.0;  ///< 100 MHz.
  cells::OperatingPoint op = cells::OperatingPoint::slow_process_only();
  std::vector<BatchFault> faults;
};

/// Counters a batched run reports back (deterministic; summed across
/// shards in shard order).
struct McBatchStats {
  std::uint64_t scalar_fallbacks = 0;  ///< Dies split out of the batch.
};

/// Per-die max-INL samples in die-index order -- element i is exactly
/// `batch_die_inl_scalar(spec, i, die_seed(base_seed, i))`.  The raw form
/// the equivalence tests and the CI mc-equivalence job cross-validate.
/// Runs monte_carlo_batched_dies on dies 0..trials-1, die i carrying seed
/// die_seed(base_seed, i) and the spec.faults of trial i in spec order.
std::vector<double> monte_carlo_batched_samples(const McBatchSpec& spec,
                                                std::size_t trials,
                                                std::uint64_t base_seed,
                                                std::size_t threads = 0,
                                                McBatchStats* stats = nullptr);

/// One die of an explicit-die batch: its seed and the frozen faults that
/// apply to it (BatchFault::trial is ignored here -- every listed fault is
/// this die's, applied in order, like inject_cell_fault composition).
struct BatchDie {
  std::uint64_t seed = 1;
  std::vector<BatchFault> faults;
};

/// The one batched INL driver, for callers that assemble their own dies --
/// the scenario layer builds a yield scenario's dies, and the batch planner
/// packs dies from *different* scenarios that share line parameters into
/// one block.  Each lane's result is a pure function of (spec
/// line/period/op, die.seed, die.faults): identical to running that die
/// alone, so cross-scenario packing is invisible in the output.
/// spec.faults is validated but not applied (dies carry their own).
/// Results are in dies order, bit-identical for any thread count (0 =
/// default pool).
std::vector<double> monte_carlo_batched_dies(const McBatchSpec& spec,
                                             const std::vector<BatchDie>& dies,
                                             std::size_t threads = 0,
                                             McBatchStats* stats = nullptr);

/// Batched counterpart of monte_carlo(): same Summary, >= 20x the
/// throughput.  Bit-identical to summarizing the scalar per-die reference
/// for any thread count (0 = default pool).
Summary monte_carlo_batched(const McBatchSpec& spec, std::size_t trials,
                            std::uint64_t base_seed, std::size_t threads = 0,
                            McBatchStats* stats = nullptr);

/// The scalar reference for one die of the batch, and the fallback path
/// for dies the closed form rejects: samples the same counter-based cells,
/// builds a real ProposedDelayLine from them, locks a real
/// ProposedController and evaluates the mapped transfer curve's max |INL|
/// with the same end-point-fit arithmetic the kernel uses.  `trial` only
/// selects which spec.faults apply.
double batch_die_inl_scalar(const McBatchSpec& spec, std::size_t trial,
                            std::uint64_t die_seed);

/// The batched yield experiment (thesis future-work 5.2, yield.h): a die
/// passes when its typical-corner full-line delay times a per-die process
/// factor ~ N(factor_mean, factor_sigma) clamped to [factor_min,
/// factor_max] still covers one clock period.
struct BatchYieldSpec {
  BatchLineSpec line;
  double clock_period_ps = 10'000.0;
  double factor_mean = 1.0;
  double factor_sigma = 0.25;
  double factor_min = 0.5;
  double factor_max = 2.0;
};

/// Fraction of passing dies over `trials` seeds die_seed(base_seed, i) --
/// the estimator behind yield_vs_cells -- bit-identical to evaluating
/// `batch_die_covers_period_scalar` per die for any thread count (0 =
/// default pool).
double monte_carlo_yield_batched(const BatchYieldSpec& spec,
                                 std::size_t trials, std::uint64_t base_seed,
                                 std::size_t threads = 0);

/// Scalar reference for one die of the batched yield predicate.
bool batch_die_covers_period_scalar(const BatchYieldSpec& spec,
                                    std::uint64_t die_seed);

/// Which kernel variant dispatch selected ("avx512", "avx2" or "base").
/// The environment cap DDL_MC_BATCH_KERNEL (="base" or "avx2") forces a
/// narrower variant; all produce bit-identical results (tested).
const char* mc_batch_kernel_name();

}  // namespace ddl::analysis
