// AVX2 closed-loop lane kernel: the base body compiled with -mavx2, so the
// 8 lanes run as two 4-double vectors.  Built only when the toolchain takes
// the flag; run only when cpuid reports AVX2 (BuckLanes' constructor).
#define DDL_BUCK_LANES_NS lanes_avx2
#define DDL_BUCK_LANES_WIDTH 4
#include "buck_lanes_body.inc"
