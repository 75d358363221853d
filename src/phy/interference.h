// Exact cumulative interference computation.
//
// Given the set S of concurrently transmitting nodes, the interference at a
// listener v is  I(v) = Σ_{u in S, u != v}  P / d(u,v)^ζ  (Sec. 2). The
// engine computes the whole field once per slot; reception decisions and the
// carrier-sensing primitives both read from it, so the physics seen by the
// protocol and the physics used for delivery are identical.
#pragma once

#include <span>
#include <vector>

#include "common/contract.h"
#include "common/parallel.h"
#include "common/types.h"
#include "metric/quasi_metric.h"
#include "phy/gain_table.h"
#include "phy/pathloss.h"

namespace udwn {

/// Interference at every node id in [0, metric.size()): entry v is the sum
/// of signal strengths from all `transmitters` other than v itself.
/// Complexity O(|transmitters| * metric.size()).
std::vector<double> interference_field(const QuasiMetric& metric,
                                       const PathLoss& pathloss,
                                       std::span<const NodeId> transmitters);

/// Same field, written into a caller-owned buffer (resized to
/// metric.size(); reuses capacity, so steady-state calls do not allocate).
/// With a TaskPool the listener range is partitioned into fixed chunks and
/// summed concurrently; every listener's sum still accumulates in
/// transmitter order, so the result is bit-for-bit identical to the serial
/// kernel for any thread count (chunks partition listeners, never a single
/// listener's sum).
UDWN_HOT void interference_field_into(const QuasiMetric& metric,
                                      const PathLoss& pathloss,
                                      std::span<const NodeId> transmitters,
                                      std::vector<double>& field,
                                      TaskPool* pool = nullptr);

/// Interference at a single listener from `transmitters` (excluding the
/// listener itself and `excluded`, typically the intended sender).
double interference_at(const QuasiMetric& metric, const PathLoss& pathloss,
                       std::span<const NodeId> transmitters, NodeId listener,
                       NodeId excluded = NodeId{});

// --- Gain-table kernel ------------------------------------------------------
//
// The kernel reads unscaled gains from a GainTable whose transmitter rows
// were made resident by ensure_rows (the caller guarantees this). Because
// every table entry is the exact double the uncached kernel would compute —
// with the diagonal stored as +0.0, and x + 0.0 == x for the non-negative
// partial sums — it produces fields bit-for-bit identical to
// interference_field_into for any thread count (chunks partition listeners,
// each listener still accumulates in transmitter order).

/// SoA kernel: vectorizes across *listeners* (contiguous column blocks of
/// several transmitter rows accumulate into a register before the field is
/// stored back), while each listener lane still adds gains in exact
/// transmitter order — the unroll never reassociates a single listener's
/// sum, so the result is bit-identical to the brute-force kernel.
/// `row_scratch` is caller-owned reusable storage for the per-(transmitter,
/// block) row pointers (no steady-state allocation).
UDWN_HOT void interference_field_soa(const GainTable& gains,
                                     std::span<const NodeId> transmitters,
                                     std::vector<const double*>& row_scratch,
                                     std::vector<double>& field,
                                     TaskPool* pool = nullptr);

// The two halves of interference_field_soa, shared with the sharded field
// of the slot pipeline (Channel::sharded_field), which interleaves tile
// fills with accumulation per listener block.

/// Collect row_block(u, b) for every transmitter u and block b into
/// `row_scratch`, transmitter-major: entry i * blocks() + b is transmitter
/// i's block-b row. Every pointer must already be valid (after ensure_rows
/// or plan_rows); reuses the scratch capacity.
UDWN_HOT void gather_row_pointers(const GainTable& gains,
                                  std::span<const NodeId> transmitters,
                                  std::vector<const double*>& row_scratch);

/// Accumulate `count` gain rows into field columns [jlo, jhi):
/// f[j] += rows[0][j], then rows[row_stride][j], ... — in exact row order
/// per column. `rows[i * row_stride]` is transmitter i's row (callers pass
/// row_scratch.data() + block with row_stride = blocks()). Vector lanes are
/// listeners, never transmitters, so every column's rounding matches the
/// one-add-at-a-time loop bit for bit.
UDWN_HOT void accumulate_columns(const double* const* rows,
                                 std::size_t row_stride, std::size_t count,
                                 double* f, std::size_t jlo,
                                 std::size_t jhi);

}  // namespace udwn
