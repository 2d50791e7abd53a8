// Internal to the candidate kernel (core/intersect.hpp): its scalar and AVX2
// entry points, named so a test or microbenchmark can call each directly
// instead of going through the per-process dispatch.
#pragma once

#include "core/intersect.hpp"

namespace gcsm::detail {

// Branch-free scalar entry points; every CPU runs them.
extern const KernelTable kScalarKernels;

// True if this CPU executes AVX2 (checked once).
bool cpu_has_avx2();

// 8x8 AVX2 block-merge entry points. Call only when cpu_has_avx2().
extern const KernelTable kAvx2Kernels;

}  // namespace gcsm::detail
