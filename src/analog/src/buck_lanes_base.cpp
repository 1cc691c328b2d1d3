// Portable closed-loop lane kernel: no ISA requirement beyond the build's
// baseline: the 8 lanes run as four 2-double vectors (SSE2 on x86-64).
#define DDL_BUCK_LANES_NS lanes_base
#define DDL_BUCK_LANES_WIDTH 2
#include "buck_lanes_body.inc"
