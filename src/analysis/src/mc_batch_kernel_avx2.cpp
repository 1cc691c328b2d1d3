// AVX2+FMA batched Monte-Carlo block kernel: the same body as the base
// variant, compiled with -mavx2 -mfma (and -ffp-contract=off) so the
// phase-B inverse-CDF and phase-D prefix loops vectorize to 4-wide fma
// chains and phase E's lanes run as two 4-double vectors.  Only built when
// the toolchain supports the flags (CMake option check); only *run* when
// cpuid reports avx2+fma (select_kernel).
#define DDL_MC_BATCH_KERNEL_NS kernel_avx2
#define DDL_MC_BATCH_KERNEL_WIDTH 4
#include "mc_batch_kernel_body.inc"
