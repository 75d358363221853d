// Certified far-field interference approximation (Barnes–Hut style).
//
// The exact field is I(v) = Σ_{u in S, u != v} P / d(u,v)^ζ — O(|S| · n)
// per slot even with every caching layer, which is the wall between n=8192
// benchmarks and the million-node target. Power-law path loss decays fast
// enough that *distant* transmitters can be aggregated per spatial cell
// with a provable relative-error bound, the same superset-then-certify
// discipline the spatial grid's inflate-then-filter pruning already uses:
//
//   Cover the plane with square cells of side S. Put listener v in cell c,
//   transmitter u in cell t, and let d_cc be the distance between the two
//   cell centers. Both endpoints sit within half a cell diagonal (δ/2,
//   δ = S·√2) of their centers, so the true pair distance obeys
//     d_cc − δ  <=  d(u,v)  <=  d_cc + δ.
//   Approximating u's term by the *center-to-center* signal P / d_cc^ζ
//   therefore mis-scales it by a factor (d(u,v)/d_cc)^ζ in
//     [ (1 − δ/d_cc)^ζ, (1 + δ/d_cc)^ζ ].
//   Aggregating only cell pairs with d_cc >= ρ and writing β = δ/ρ, the
//   per-term relative error is at most
//     ε = (1 + β)^ζ − 1
//   on the high side, and 1 − (1 − β)^ζ <= ε on the low side (convexity of
//   x^ζ for ζ >= 1: (1+β)^ζ + (1−β)^ζ >= 2). Near pairs (d_cc < ρ) are
//   summed exactly, and every term is non-negative, so the *summed* field
//   obeys |approx(v) − exact(v)| <= ε · exact(v) for every listener.
//
// far_field_params inverts the bound: given a target ε it derives
// β = (1+ε)^(1/ζ) − 1 and the separation radius ρ = δ/β, refusing
// (nullopt → caller runs the exact kernel) whenever the certificate cannot
// hold — e.g. when ρ − δ does not clear the path-loss near-limit clamp, so
// both d_cc and d(u,v) are guaranteed to be on the pure power-law branch.
//
// Cost: per slot, one pass bucketing the |S| transmitters into cells, a
// far aggregation whose signal factors come from a translation-invariant
// (|Δx|, |Δy|) offset table (one pow per distinct far cell offset, not per
// pair), and an exact near sweep whose per-listener work is bounded by the
// O(ρ²·density) transmitters nearby — independent of n. The O(|S|·n)
// pairwise wall disappears.
//   * The far aggregation is transmitter-major: each grid row of listener
//     cells adds count · signal(d_cc) for every transmitter cell as two
//     contiguous, branch-free strips (the offset table stores +0.0 on near
//     offsets, so near cell pairs add an exact zero), which the compiler
//     vectorises.
//   * The near sweep groups listeners by cell. Per cell it gathers the
//     positions of every transmitter in a near cell once — the near cells
//     of offset row |Δx| are exactly |Δy| < w[|Δx|], so per grid row they
//     are one contiguous key range — and then evaluates one batched
//     distance row (metric/distance_row.h) per listener.
//
// Determinism: the result is a pure function of (positions, transmitters,
// params). Every listener's field accumulates in one fixed order: the far
// terms over transmitter cells in ascending key, then the exact near terms
// in (ascending transmitter-cell key, slot) order. Parallel phases split
// grid rows or listeners, never one accumulation, so any thread count
// produces bit-identical fields (the determinism audit checks far-field
// rows for exactly this self-determinism, tests/test_far_field.cpp against
// a plain O(n·|S|) evaluation of that definition; the approximation is
// *not* bit-identical to the exact kernels, only ε-certified against them).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/contract.h"
#include "common/parallel.h"
#include "common/types.h"
#include "metric/euclidean.h"
#include "phy/pathloss.h"

namespace udwn {

/// Derived certificate constants; produce via far_field_params.
struct FarFieldParams {
  /// Certified worst-case relative field error (the knob value).
  double eps = 0;
  /// Aggregation cell side S.
  double cell = 0;
  /// Minimum center-to-center distance for aggregation; nearer cell pairs
  /// are summed exactly.
  double rho = 0;
};

/// Derive the certificate for a target ε and cell side, or nullopt when the
/// bound cannot hold (ε or cell not positive/finite, β >= 1, or ρ − δ not
/// clear of the near-limit clamp). Callers fall back to the exact kernels
/// on nullopt, so a bad knob combination degrades, never corrupts.
[[nodiscard]] std::optional<FarFieldParams> far_field_params(
    double eps, double cell, const PathLoss& pathloss);

/// Reusable scratch for the approximate field (one per SlotWorkspace).
/// Buffers are sized per slot but reuse capacity, so steady-state slots at
/// a stable instance size do not allocate.
class FarFieldWorkspace {
 public:
  /// Approximate interference field into `field` (resized to metric.size();
  /// every entry written). Returns false — leaving `field` untouched — when
  /// the instance layout defeats aggregation (cell grid would outnumber
  /// nodes by too much); the caller then runs an exact kernel. `params`
  /// must come from far_field_params (ρ > 0 is contract-checked).
  UDWN_HOT bool field_into(const EuclideanMetric& metric,
                           const PathLoss& pathloss,
                           std::span<const NodeId> transmitters,
                           const FarFieldParams& params,
                           std::vector<double>& field, TaskPool* pool);

 private:
  // Listener cell index per node.
  std::vector<std::uint32_t> listener_cell_;
  // Listeners grouped by cell (ascending node id within a cell): cell c
  // owns cell_nodes_[cell_begin_[c] .. cell_begin_[c + 1]).
  std::vector<std::uint32_t> cell_begin_;  // size ncells + 2
  std::vector<std::uint32_t> cell_nodes_;
  // Transmitters grouped by cell in slot order, the order near terms
  // accumulate in: cell c owns entries [tx_begin_[c], tx_begin_[c + 1]) of
  // tx_order_ (indices into the slot's transmitter span) and of tx_pos_
  // (their positions).
  std::vector<std::uint32_t> tx_begin_;  // size ncells + 2
  std::vector<std::uint32_t> tx_order_;
  std::vector<Vec2> tx_pos_;
  // Distinct transmitter cells in ascending key: grid coordinates and
  // transmitter count.
  struct TxCell {
    std::size_t cx = 0;
    std::size_t cy = 0;
    double count = 0;
  };
  std::vector<TxCell> txc_pos_;
  // Translation-invariant signal table, index |Δcx| * ncy + |Δcy|: the
  // center-to-center signal on far offsets, +0.0 on near ones (d_cc < ρ).
  std::vector<double> offset_signal_;
  // Near prefix width per |Δcx|: offset (|Δcx|, |Δcy|) is near exactly when
  // |Δcy| < near_width_[|Δcx|] (d_cc is non-decreasing in |Δcy|).
  std::vector<std::uint32_t> near_width_;
  // Per-cell aggregated far signal.
  std::vector<double> far_sum_;
  // Per-chunk gather buffers of the near sweep, |S| entries each.
  struct NearScratch {
    std::vector<Vec2> pos;
    std::vector<double> dist;
  };
  std::vector<NearScratch> near_scratch_;
};

}  // namespace udwn
