#include "phy/far_field.h"

#include <algorithm>
#include <cmath>

#include "common/contract.h"

namespace udwn {

namespace {

// Refuse aggregation when the cell grid would outnumber the nodes by too
// much: the cells × tx-cells aggregation pass would then dominate the work
// the approximation is supposed to save.
constexpr double kMaxCellsFactor = 4.0;
constexpr double kMinCells = 64.0;

}  // namespace

std::optional<FarFieldParams> far_field_params(double eps, double cell,
                                               const PathLoss& pathloss) {
  if (!(eps > 0) || !std::isfinite(eps)) return std::nullopt;
  if (!(cell > 0) || !std::isfinite(cell)) return std::nullopt;
  const double zeta = pathloss.zeta();
  // The low-side half of the certificate needs convexity of x^ζ (see file
  // comment in far_field.h); every model in the paper has ζ > 2.
  if (!(zeta >= 1)) return std::nullopt;
  const double beta = std::pow(1.0 + eps, 1.0 / zeta) - 1.0;
  if (!(beta > 0)) return std::nullopt;
  const double delta = cell * std::sqrt(2.0);  // full cell diagonal
  const double rho = delta / beta;
  // Every aggregated pair must sit on the pure power-law branch: the
  // certificate compares signal(d_cc) with signal(d(u,v)), d(u,v) >= ρ − δ,
  // so both must clear the near-limit clamp. β >= 1 (huge ε) fails here
  // automatically (ρ <= δ).
  if (!(rho - delta > pathloss.near_limit())) return std::nullopt;
  return FarFieldParams{.eps = eps, .cell = cell, .rho = rho};
}

bool FarFieldWorkspace::field_into(const EuclideanMetric& metric,
                                   const PathLoss& pathloss,
                                   std::span<const NodeId> transmitters,
                                   const FarFieldParams& params,
                                   std::vector<double>& field,
                                   TaskPool* pool) {
  const std::size_t n = metric.size();
  const std::span<const Vec2> pts = metric.positions();
  const double cell = params.cell;
  const double rho = params.rho;
  if (n == 0) {
    field.clear();
    return true;
  }

  // Bounding box over all points (dead nodes included: they cost grid area,
  // not correctness — interference only ever sums over `transmitters`).
  double x0 = pts[0].x, x1 = pts[0].x, y0 = pts[0].y, y1 = pts[0].y;
  for (std::size_t v = 1; v < n; ++v) {
    x0 = std::min(x0, pts[v].x);
    x1 = std::max(x1, pts[v].x);
    y0 = std::min(y0, pts[v].y);
    y1 = std::max(y1, pts[v].y);
  }
  const double wx = (x1 - x0) / cell;
  const double wy = (y1 - y0) / cell;
  if (!(wx < 1e9) || !(wy < 1e9)) return false;  // degenerate extents
  const std::size_t ncx = static_cast<std::size_t>(wx) + 1;
  const std::size_t ncy = static_cast<std::size_t>(wy) + 1;
  if (static_cast<double>(ncx) * static_cast<double>(ncy) >
      kMaxCellsFactor * static_cast<double>(n) + kMinCells)
    return false;
  const std::size_t ncells = ncx * ncy;

  // Translation-invariant per-offset tables: the center-to-center distance
  // (and its signal) depends only on the integer cell offset (|Δcx|, |Δcy|),
  // so one libm pow per distinct offset covers every cell pair. Both the
  // near predicate and the far aggregation below read the *same* table
  // entry, so "near" is exactly the complement of "aggregated".
  offset_dist_.resize(ncells);   // udwn-lint: allow(hot-path-alloc): per-slot
                                 // scratch, reuses capacity at steady state
  offset_signal_.resize(ncells); // udwn-lint: allow(hot-path-alloc): per-slot
                                 // scratch, reuses capacity at steady state
  for (std::size_t adx = 0; adx < ncx; ++adx)
    for (std::size_t ady = 0; ady < ncy; ++ady) {
      const double dx = static_cast<double>(adx) * cell;
      const double dy = static_cast<double>(ady) * cell;
      const double d = std::sqrt(dx * dx + dy * dy);
      offset_dist_[adx * ncy + ady] = d;
      offset_signal_[adx * ncy + ady] = pathloss.signal(d);
    }

  // Listener cell ids (parallel: chunks partition nodes, writes disjoint).
  listener_cell_.resize(n);  // udwn-lint: allow(hot-path-alloc): per-slot
                             // scratch, reuses capacity at steady state
  const auto cell_of = [&](Vec2 p) {
    std::size_t cx = static_cast<std::size_t>((p.x - x0) / cell);
    std::size_t cy = static_cast<std::size_t>((p.y - y0) / cell);
    cx = std::min(cx, ncx - 1);
    cy = std::min(cy, ncy - 1);
    return static_cast<std::uint32_t>(cx * ncy + cy);
  };
  auto cells_body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) listener_cell_[v] = cell_of(pts[v]);
  };
  if (pool != nullptr) {
    pool->run_chunks(0, n, cells_body);
  } else {
    cells_body(0, n);
  }

  // Bucket transmitters by cell, keeping slot order within a cell: sort by
  // (cell key, slot index) — a deterministic total order independent of
  // thread count and of the transmitters' positions in memory.
  const std::size_t count = transmitters.size();
  tx_sorted_.resize(count);  // udwn-lint: allow(hot-path-alloc): per-slot
                             // scratch, reuses capacity at steady state
  for (std::size_t i = 0; i < count; ++i) {
    UDWN_ASSERT(transmitters[i].value < n);
    tx_sorted_[i] = {listener_cell_[transmitters[i].value],
                     static_cast<std::uint32_t>(i)};
  }
  std::sort(tx_sorted_.begin(), tx_sorted_.end());

  // Distinct transmitter cells as a CSR over tx_sorted_.
  txc_cell_.clear();
  txc_begin_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    if (i == 0 || tx_sorted_[i].first != tx_sorted_[i - 1].first) {
      txc_cell_.push_back(   // udwn-lint: allow(hot-path-alloc): per-slot
          static_cast<std::uint32_t>(tx_sorted_[i].first));
      txc_begin_.push_back(  // udwn-lint: allow(hot-path-alloc): per-slot
          static_cast<std::uint32_t>(i));
    }
  }
  txc_begin_.push_back(      // udwn-lint: allow(hot-path-alloc): per-slot
      static_cast<std::uint32_t>(count));
  const std::size_t tx_cells = txc_cell_.size();

  // Near lists: for each transmitter cell, append it to every listener cell
  // within ρ of its center (a bounded window scan). Two passes build a CSR
  // without growth; order is (transmitter cell ascending) per listener
  // cell, so the exact near sweep below is deterministic.
  near_count_.assign(ncells, 0);  // udwn-lint: allow(hot-path-alloc): scratch
  const std::size_t kr =
      static_cast<std::size_t>(std::ceil(rho / cell)) + 1;
  const auto for_each_near_cell = [&](std::size_t t, auto&& fn) {
    const std::size_t tcx = txc_cell_[t] / ncy;
    const std::size_t tcy = txc_cell_[t] % ncy;
    const std::size_t cx_lo = tcx > kr ? tcx - kr : 0;
    const std::size_t cx_hi = std::min(ncx - 1, tcx + kr);
    const std::size_t cy_lo = tcy > kr ? tcy - kr : 0;
    const std::size_t cy_hi = std::min(ncy - 1, tcy + kr);
    for (std::size_t cx = cx_lo; cx <= cx_hi; ++cx) {
      const std::size_t adx = cx > tcx ? cx - tcx : tcx - cx;
      for (std::size_t cy = cy_lo; cy <= cy_hi; ++cy) {
        const std::size_t ady = cy > tcy ? cy - tcy : tcy - cy;
        if (offset_dist_[adx * ncy + ady] < rho) fn(cx * ncy + cy);
      }
    }
  };
  for (std::size_t t = 0; t < tx_cells; ++t)
    for_each_near_cell(t, [&](std::size_t c) { ++near_count_[c]; });
  near_begin_.resize(ncells + 1);  // udwn-lint: allow(hot-path-alloc): scratch
  near_begin_[0] = 0;
  for (std::size_t c = 0; c < ncells; ++c)
    near_begin_[c + 1] = near_begin_[c] + near_count_[c];
  const std::size_t near_total = near_begin_[ncells];
  near_idx_.resize(near_total);  // udwn-lint: allow(hot-path-alloc): scratch
  std::fill(near_count_.begin(), near_count_.end(), 0);
  for (std::size_t t = 0; t < tx_cells; ++t)
    for_each_near_cell(t, [&](std::size_t c) {
      near_idx_[near_begin_[c] + near_count_[c]++] =
          static_cast<std::uint32_t>(t);
    });

  // Far aggregation per listener cell: every transmitter cell at center
  // distance >= ρ contributes count · signal(d_cc). Cells partition the
  // work; each cell's sum accumulates in transmitter-cell order, so the
  // result is thread-count independent.
  // Decode each transmitter cell's grid coordinates and count once per
  // slot rather than once per (cell, tx-cell) pair, which takes two 64-bit
  // divisions out of the inner loop.
  txc_pos_.resize(tx_cells);  // udwn-lint: allow(hot-path-alloc): per-slot
                              // scratch, reuses capacity at steady state
  for (std::size_t t = 0; t < tx_cells; ++t)
    txc_pos_[t] = {.cx = txc_cell_[t] / ncy,
                   .cy = txc_cell_[t] % ncy,
                   .count = static_cast<double>(txc_begin_[t + 1] -
                                                txc_begin_[t])};
  far_sum_.resize(ncells);  // udwn-lint: allow(hot-path-alloc): per-slot
                            // scratch, reuses capacity at steady state
  auto far_body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      const std::size_t ccx = c / ncy;
      const std::size_t ccy = c % ncy;
      double acc = 0;
      for (const TxCell& tc : txc_pos_) {
        const std::size_t adx = ccx > tc.cx ? ccx - tc.cx : tc.cx - ccx;
        const std::size_t ady = ccy > tc.cy ? ccy - tc.cy : tc.cy - ccy;
        const std::size_t off = adx * ncy + ady;
        if (offset_dist_[off] < rho) continue;  // exact near sweep covers it
        acc += tc.count * offset_signal_[off];
      }
      far_sum_[c] = acc;
    }
  };
  if (pool != nullptr) {
    pool->run_chunks(0, ncells, far_body);
  } else {
    far_body(0, ncells);
  }

  // Finalize per listener: aggregated far signal plus the exact sum over
  // every transmitter in a near cell (self excluded — a transmitter's own
  // cell is always near, d_cc = 0). Listeners partition the work; each
  // listener's sum runs in (near cell, slot order) — deterministic.
  field.resize(n);  // udwn-lint: allow(hot-path-alloc): per-slot output,
                    // reuses capacity at steady state
  auto finalize_body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      const std::size_t c = listener_cell_[v];
      double acc = far_sum_[c];
      for (std::uint32_t k = near_begin_[c]; k < near_begin_[c + 1]; ++k) {
        const std::uint32_t t = near_idx_[k];
        for (std::uint32_t m = txc_begin_[t]; m < txc_begin_[t + 1]; ++m) {
          const NodeId u = transmitters[tx_sorted_[m].second];
          if (u.value == v) continue;
          // metric.distance(u, v) for u != v, without the virtual call.
          acc += pathloss.signal(distance(pts[u.value], pts[v]));
        }
      }
      field[v] = acc;
    }
  };
  if (pool != nullptr) {
    pool->run_chunks(0, n, finalize_body);
  } else {
    finalize_body(0, n);
  }
  return true;
}

}  // namespace udwn
