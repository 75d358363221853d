// Batched Euclidean distance rows: out[j] = distance(origin, pts[j]).
//
// The gain-tile fill (phy/gain_table.cpp) evaluates one source row of
// distances per tile. Doing that through the virtual QuasiMetric::distance
// costs a call, a contract check and a libm hypot per entry; these kernels
// read the positions in their AoS layout directly and evaluate exact_hypot
// (metric/geometry.h) — four lanes per AVX2 op where the CPU has it.
//
// Bit-exactness: every lane performs exactly the scalar exact_hypot
// operation sequence (subtract, fabs, order, then either ax + ay or the
// corrected sqrt — both branches are computed and the scalar branch
// condition selects per lane). No FMA is ever issued. Lanes outside
// exact_hypot's inline range (zero, subnormal or huge components, inf,
// NaN) and the ragged tail go through the scalar kernel, which defers
// exactly as exact_hypot does. The result therefore equals
// udwn::distance(origin, pts[j]) bit for bit on every host.
#pragma once

#include <cstddef>
#include <span>

#include "common/contract.h"
#include "metric/geometry.h"

namespace udwn {

/// Scalar kernel: out[j] = distance(origin, pts[j]).
void distance_row_scalar(Vec2 origin, std::span<const Vec2> pts, double* out);

/// True when the executing CPU runs distance_row_avx2 (cpuid probe on x86,
/// resolved once per process; false elsewhere).
[[nodiscard]] bool distance_row_has_avx2();

/// AVX2 kernel, four distances per op. Only valid when
/// distance_row_has_avx2(); on non-x86 builds it is the scalar kernel.
void distance_row_avx2(Vec2 origin, std::span<const Vec2> pts, double* out);

/// Dispatching entry point: the AVX2 kernel when the CPU has it, the scalar
/// kernel otherwise. Same bits either way.
UDWN_HOT void distance_row(Vec2 origin, std::span<const Vec2> pts,
                           double* out);

}  // namespace udwn
