// AVX-512 batched Monte-Carlo block kernel: the same body again, compiled
// with -mavx512f -mavx512dq -mavx512vl (and -ffp-contract=off).  The DQ
// extension supplies 64-bit vector multiply (vpmullq) and unsigned 64-bit
// to double conversion, so the phase-A counter mixing -- the phase AVX2
// leaves scalar -- vectorizes to 512-bit operations on each 8-lane row;
// the inverse-CDF fma chains double their width, and phase E's 8 lanes are
// one vector.  Only built when the toolchain supports the flags; only run
// when cpuid reports them.
#define DDL_MC_BATCH_KERNEL_NS kernel_avx512
#define DDL_MC_BATCH_KERNEL_WIDTH 8
#include "mc_batch_kernel_body.inc"
