// Internal interface between the batched Monte-Carlo driver (mc_batch.cpp)
// and the block kernels: one body (mc_batch_kernel_body.inc) compiled by
// three TUs -- mc_batch_kernel_base.cpp, mc_batch_kernel_avx2.cpp and
// mc_batch_kernel_avx512.cpp.
//
// The kernels live in their own translation units for two reasons:
//   * the AVX2 and AVX-512 variants are compiled with ISA flags (-mavx2
//     -mfma; -mavx512f -mavx512dq -mavx512vl) that must not leak into
//     code that runs before dispatch;
//   * GCC only auto-vectorizes the inverse-CDF loop when the kernel is
//     isolated from the (branchy) driver code -- in a mixed TU the IPA
//     pass reports "control flow in loop" and falls back to scalar.
// All three TUs are compiled with -ffp-contract=off and evaluate the exact
// fma-based arithmetic of cells/batch_mismatch.h, so every variant and the
// scalar reference path produce bit-identical doubles.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ddl/analysis/mc_batch.h"
#include "ddl/cells/batch_mismatch.h"

namespace ddl::analysis::detail {

/// Lane marker: no fault on this die.
inline constexpr std::size_t kNoFault = static_cast<std::size_t>(-1);

/// Precomputed per-run constants for the INL block kernel.  `derate` is
/// cells::delay_derating(spec.op) -- the same double DeratingCache hands
/// the scalar line, so kernel and fallback tap delays match bit-for-bit.
struct BatchKernelParams {
  std::size_t num_cells = 0;
  double nominal_cell_ps = 0.0;
  double sigma_cell = 0.0;
  double derate = 1.0;
  double period_ps = 0.0;
  double half_period_ps = 0.0;  ///< period_ps / 2 (exact).
  int shift_bits = 0;           ///< Eq-18 mapper shift: log2(num_cells / 2).
};

/// Precomputed constants for the yield block kernel.
struct BatchYieldKernelParams {
  std::size_t num_cells = 0;
  double nominal_cell_ps = 0.0;
  double sigma_cell = 0.0;
  double period_ps = 0.0;
  double factor_mean = 1.0;
  double factor_sigma = 0.25;
  double factor_min = 0.5;
  double factor_max = 2.0;
};

/// Structure-of-arrays scratch for one block of kBatchLanes dies, reused
/// across blocks within a shard (element [cell * kBatchLanes + lane]).
/// Sized for the whole line; an INL block fills only the rows its dies
/// read, so rows past a block's plan hold an earlier block's values and are
/// never read.
struct BatchWorkspace {
  std::vector<double> unit;        ///< Uniform draws.
  std::vector<double> cell;        ///< Per-cell typical delays, ps.
  std::vector<double> prefix;      ///< Per-tap cumulative delays, ps.
  std::vector<std::uint8_t> tail;  ///< 1 where the draw is a tail draw.
  std::vector<std::int32_t> tails; ///< Tail-draw element indices, ascending.

  void resize(std::size_t num_cells) {
    const std::size_t total = num_cells * kBatchLanes;
    unit.resize(total);
    cell.resize(total);
    prefix.resize(total);
    tail.resize(total);
    tails.resize(total);
  }
};

/// Per-die global process factor of the yield model: counter draw `index`
/// of die `seed` through the inverse normal CDF, scaled and clamped.
/// Inline so the kernel TUs and the scalar reference (mc_batch.cpp, both
/// contract-off) evaluate identical arithmetic.
inline double batch_process_factor(std::uint64_t seed, std::uint64_t index,
                                   double mean, double sigma, double fmin,
                                   double fmax) noexcept {
  const double p =
      cells::batch_unit_from_bits(cells::batch_draw_bits(seed, index));
  double f = std::fma(sigma, cells::batch_normal_icdf(p), mean);
  f = f < fmin ? fmin : f;
  f = f > fmax ? fmax : f;
  return f;
}

/// Computes kBatchLanes dies' max-INL values, sampling only the cells they
/// read (see mc_batch_kernel_body.inc, "Rows on demand").  `seeds`,
/// `fault_cell` (kNoFault = none), `fault_severity`, `out_inl` and
/// `needs_fallback` are kBatchLanes-long.  A lane whose lock walk the
/// closed form cannot represent (tap delay wrapping past the period) gets
/// needs_fallback set and an unspecified out_inl.
using InlBlockFn = void (*)(const BatchKernelParams& kp,
                            const std::uint64_t* seeds,
                            const std::size_t* fault_cell,
                            const double* fault_severity, BatchWorkspace& ws,
                            double* out_inl, bool* needs_fallback);

/// Computes kBatchLanes dies' yield predicates in one pass.
using YieldBlockFn = void (*)(const BatchYieldKernelParams& yp,
                              const std::uint64_t* seeds, BatchWorkspace& ws,
                              bool* out_pass);

namespace kernel_base {
void inl_block(const BatchKernelParams& kp, const std::uint64_t* seeds,
               const std::size_t* fault_cell, const double* fault_severity,
               BatchWorkspace& ws, double* out_inl, bool* needs_fallback);
void yield_block(const BatchYieldKernelParams& yp, const std::uint64_t* seeds,
                 BatchWorkspace& ws, bool* out_pass);
}  // namespace kernel_base

#if defined(DDL_MC_BATCH_HAS_AVX2)
namespace kernel_avx2 {
void inl_block(const BatchKernelParams& kp, const std::uint64_t* seeds,
               const std::size_t* fault_cell, const double* fault_severity,
               BatchWorkspace& ws, double* out_inl, bool* needs_fallback);
void yield_block(const BatchYieldKernelParams& yp, const std::uint64_t* seeds,
                 BatchWorkspace& ws, bool* out_pass);
}  // namespace kernel_avx2
#endif

#if defined(DDL_MC_BATCH_HAS_AVX512)
namespace kernel_avx512 {
void inl_block(const BatchKernelParams& kp, const std::uint64_t* seeds,
               const std::size_t* fault_cell, const double* fault_severity,
               BatchWorkspace& ws, double* out_inl, bool* needs_fallback);
void yield_block(const BatchYieldKernelParams& yp, const std::uint64_t* seeds,
                 BatchWorkspace& ws, bool* out_pass);
}  // namespace kernel_avx512
#endif

/// The dispatched kernel variant.
struct KernelVariant {
  InlBlockFn inl = nullptr;
  YieldBlockFn yield = nullptr;
  const char* name = "base";
};

/// Runtime dispatch: the widest compiled-in variant the CPU supports
/// (avx512 > avx2 > base).  DDL_MC_BATCH_KERNEL caps the choice by name
/// ("base" or "avx2"); the environment is re-read on every call so tests
/// can flip it.  All variants are bit-identical -- the cap exists for
/// cross-checking them and for perf triage, not correctness.
KernelVariant select_kernel();

}  // namespace ddl::analysis::detail
