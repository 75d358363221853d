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
// cells × tx-cells aggregation whose signal factors come from a
// translation-invariant (Δx, Δy) lookup table (one pow per distinct cell
// offset, not per pair), and an exact near sweep whose per-listener work is
// bounded by the O(ρ²·density) transmitters nearby — independent of n. The
// O(|S|·n) pairwise wall disappears.
//
// Determinism: the result is a pure function of (positions, transmitters,
// params). Cells are walked in row-major key order, near lists are built
// serially in (cell, transmitter-slot) order, and parallel phases partition
// listeners/cells without ever splitting one accumulation — so any thread
// count produces bit-identical fields (the determinism audit checks
// far-field rows for exactly this self-determinism; the approximation is
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
  /// nodes by too much); the caller then runs an exact kernel.
  UDWN_HOT bool field_into(const EuclideanMetric& metric,
                           const PathLoss& pathloss,
                           std::span<const NodeId> transmitters,
                           const FarFieldParams& params,
                           std::vector<double>& field, TaskPool* pool);

 private:
  // Listener cell index per node.
  std::vector<std::uint32_t> listener_cell_;
  // Transmitters sorted by (cell key, slot order): first = cell key,
  // second = index into the slot's transmitter span.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> tx_sorted_;
  // Distinct transmitter cells (CSR over tx_sorted_).
  std::vector<std::uint32_t> txc_cell_;
  std::vector<std::uint32_t> txc_begin_;  // size txc_cell_.size() + 1
  // Per distinct transmitter cell: grid coordinates and transmitter count,
  // decoded once per slot for the far aggregation loop.
  struct TxCell {
    std::size_t cx = 0;
    std::size_t cy = 0;
    double count = 0;
  };
  std::vector<TxCell> txc_pos_;
  // Translation-invariant per-offset tables: index |Δcx| * ncy + |Δcy|.
  std::vector<double> offset_dist_;
  std::vector<double> offset_signal_;
  // Per-cell aggregated far signal and exact-near CSR (tx-cell indices).
  std::vector<double> far_sum_;
  std::vector<std::uint32_t> near_count_;
  std::vector<std::uint32_t> near_begin_;  // size ncells + 1
  std::vector<std::uint32_t> near_idx_;
};

}  // namespace udwn
