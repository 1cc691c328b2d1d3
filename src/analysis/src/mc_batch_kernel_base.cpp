// Portable batched Monte-Carlo block kernel: no ISA requirements beyond
// the build's baseline; phase E's lanes run as four 2-double vectors (SSE2
// on x86-64).  Compiled at -O3 with -ffp-contract=off (see CMakeLists.txt);
// on hardware without fused multiply-add the explicit std::fma calls go
// through libm -- slower, but bit-identical to the SIMD variants and the
// scalar path, which is the contract.
#define DDL_MC_BATCH_KERNEL_NS kernel_base
#define DDL_MC_BATCH_KERNEL_WIDTH 2
#include "mc_batch_kernel_body.inc"
