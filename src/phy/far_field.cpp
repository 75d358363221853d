#include "phy/far_field.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contract.h"
#include "metric/distance_row.h"

namespace udwn {

namespace {

// Refuse aggregation when the cell grid would outnumber the nodes by too
// much: the cells × tx-cells aggregation pass would then dominate the work
// the approximation is supposed to save.
constexpr double kMaxCellsFactor = 4.0;
constexpr double kMinCells = 64.0;

// Stable counting sort of items [0, count) by cell key(i) < ncells: `order`
// lists the items by ascending key (ascending index within a key) and cell
// c owns order[begin[c] .. begin[c + 1]). Counting into begin[key + 2] and
// scattering through begin[key + 1] leaves exactly those starts behind, so
// no separate cursor array is needed (begin has ncells + 2 entries).
template <typename Key>
void bucket_by_cell(std::size_t count, std::size_t ncells, Key key,
                    std::vector<std::uint32_t>& begin,
                    std::vector<std::uint32_t>& order) {
  begin.assign(ncells + 2, 0);  // udwn-lint: allow(hot-path-alloc): per-slot
                                // scratch, reuses capacity at steady state
  for (std::size_t i = 0; i < count; ++i) ++begin[key(i) + 2];
  for (std::size_t c = 2; c < ncells + 2; ++c) begin[c] += begin[c - 1];
  order.resize(count);  // udwn-lint: allow(hot-path-alloc): per-slot
                        // scratch, reuses capacity at steady state
  for (std::size_t i = 0; i < count; ++i)
    order[begin[key(i) + 1]++] = static_cast<std::uint32_t>(i);
}

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
  // far_field_params guarantees ρ > near limit > 0, so a cell is always
  // near itself (d_cc = 0) and near_rows below is at least 1.
  UDWN_EXPECT(rho > 0);
  if (n == 0) {
    field.clear();
    return true;
  }
  const auto run = [pool](std::size_t end, auto&& body,
                          std::size_t chunk_size = 0) {
    if (pool != nullptr) {
      pool->run_chunks(0, end, body, chunk_size);
    } else {
      body(std::size_t{0}, end);
    }
  };

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

  // Translation-invariant offset table: the center-to-center distance (and
  // its signal) depends only on the integer cell offset (|Δcx|, |Δcy|), so
  // one libm pow per distinct far offset covers every cell pair. Near
  // offsets (d_cc < ρ) store +0.0: adding that to a partial sum >= +0.0 is
  // exact, so the far aggregation below needs no branch. d_cc is
  // non-decreasing in |Δcy| (every step — scale, square, add, sqrt — is
  // monotone), so each row's near offsets are a prefix of width
  // near_width_[|Δcx|], the exact complement of the aggregated offsets.
  offset_signal_.resize(ncells);  // udwn-lint: allow(hot-path-alloc): per-slot
                                  // scratch, reuses capacity at steady state
  near_width_.resize(ncx);  // udwn-lint: allow(hot-path-alloc): per-slot
                            // scratch, reuses capacity at steady state
  run(ncx, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t adx = lo; adx < hi; ++adx) {
      std::uint32_t width = 0;
      for (std::size_t ady = 0; ady < ncy; ++ady) {
        const double dx = static_cast<double>(adx) * cell;
        const double dy = static_cast<double>(ady) * cell;
        const double d = std::sqrt(dx * dx + dy * dy);
        double sig = 0.0;
        if (d < rho) {
          UDWN_ASSERT(ady == width);  // near offsets form a prefix
          ++width;
        } else {
          sig = pathloss.signal(d);
        }
        offset_signal_[adx * ncy + ady] = sig;
      }
      near_width_[adx] = width;
    }
  });
  // Offset rows with any near cell: near_width_ is non-increasing in |Δcx|
  // (d_cc is non-decreasing in it too), so these are rows [0, near_rows),
  // and near_width_[0] >= 1.
  std::size_t near_rows = 0;
  while (near_rows < ncx && near_width_[near_rows] > 0) ++near_rows;

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
  run(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) listener_cell_[v] = cell_of(pts[v]);
  });

  // Group listeners by cell, and transmitters by cell in slot order — the
  // (cell key, slot) order the near terms accumulate in, independent of
  // thread count and of where the transmitters sit in memory.
  bucket_by_cell(
      n, ncells, [&](std::size_t v) { return listener_cell_[v]; },
      cell_begin_, cell_nodes_);
  const std::size_t count = transmitters.size();
  bucket_by_cell(
      count, ncells,
      [&](std::size_t i) {
        UDWN_ASSERT(transmitters[i].value < n);
        return listener_cell_[transmitters[i].value];
      },
      tx_begin_, tx_order_);
  tx_pos_.resize(count);  // udwn-lint: allow(hot-path-alloc): per-slot
                          // scratch, reuses capacity at steady state
  for (std::size_t m = 0; m < count; ++m)
    tx_pos_[m] = pts[transmitters[tx_order_[m]].value];

  // Distinct transmitter cells in ascending key, with grid coordinates and
  // count decoded once per slot (keeps 64-bit divisions out of the loops).
  txc_pos_.clear();
  for (std::size_t c = 0; c < ncells; ++c) {
    const std::uint32_t in_cell = tx_begin_[c + 1] - tx_begin_[c];
    if (in_cell == 0) continue;
    txc_pos_.push_back(  // udwn-lint: allow(hot-path-alloc): per-slot
                         // scratch, reuses capacity at steady state
        {.cx = c / ncy, .cy = c % ncy, .count = static_cast<double>(in_cell)});
  }

  // Far aggregation, transmitter-major: chunks own bands of listener grid
  // rows; for every transmitter cell in ascending key order each row adds
  // count · signal(d_cc) as two contiguous strips — listeners below the
  // transmitter's cy read the offset row mirrored, the rest forward. Each
  // cell's sum still runs over transmitter cells in ascending key, so the
  // result is thread-count independent.
  far_sum_.resize(ncells);  // udwn-lint: allow(hot-path-alloc): per-slot
                            // scratch, reuses capacity at steady state
  run(ncx, [&](std::size_t lo, std::size_t hi) {
    std::fill(far_sum_.begin() + static_cast<std::ptrdiff_t>(lo * ncy),
              far_sum_.begin() + static_cast<std::ptrdiff_t>(hi * ncy), 0.0);
    for (const TxCell& tc : txc_pos_) {
      const double weight = tc.count;
      const std::size_t ty = tc.cy;
      for (std::size_t ccx = lo; ccx < hi; ++ccx) {
        const std::size_t adx = ccx > tc.cx ? ccx - tc.cx : tc.cx - ccx;
        const double* sig = offset_signal_.data() + adx * ncy;
        double* dst = far_sum_.data() + ccx * ncy;
        for (std::size_t cy = 0; cy < ty; ++cy)
          dst[cy] += weight * sig[ty - cy];
        for (std::size_t cy = ty; cy < ncy; ++cy)
          dst[cy] += weight * sig[cy - ty];
      }
    }
  });

  // Exact near sweep over listeners grouped by cell. Chunks partition the
  // cell-grouped listener order; per listener cell, a chunk gathers the
  // transmitters of every near cell once, in (ascending cell key, slot)
  // order: per grid row within near_rows of the listener, the near cells
  // are the contiguous key range |Δcy| < near_width_[|Δcx|]. Each listener
  // then takes one batched distance row — distance(pts[v], p) equals
  // distance(p, pts[v]) bit for bit, exact_hypot takes absolute values —
  // and adds the exact near terms to its cell's far sum, self excluded (a
  // transmitter's own cell is always near, d_cc = 0).
  const std::size_t chunks =
      pool != nullptr ? static_cast<std::size_t>(pool->threads()) : 1;
  const std::size_t chunk_len = (n + chunks - 1) / chunks;
  if (near_scratch_.size() < chunks)
    near_scratch_.resize(chunks);  // udwn-lint: allow(hot-path-alloc): warm-
                                   // up sizing, one entry per pool thread
  for (std::size_t k = 0; k < chunks; ++k) {
    NearScratch& s = near_scratch_[k];
    s.pos.resize(count);   // udwn-lint: allow(hot-path-alloc): per-slot
                           // scratch, reuses capacity at steady state
    s.dist.resize(count);  // udwn-lint: allow(hot-path-alloc): per-slot
                           // scratch, reuses capacity at steady state
  }
  field.resize(n);  // udwn-lint: allow(hot-path-alloc): per-slot output,
                    // reuses capacity at steady state
  // Gathers cell c's near transmitters into s.pos and returns their count;
  // `own` receives the gathered range of c's own transmitters (the only
  // place the listener itself can appear).
  const auto gather_near = [&](std::size_t c, NearScratch& s,
                               std::size_t& own) {
    const std::size_t ccx = c / ncy;
    const std::size_t ccy = c % ncy;
    const std::size_t reach = near_rows - 1;
    const std::size_t cx_lo = ccx > reach ? ccx - reach : 0;
    const std::size_t cx_hi = std::min(ncx - 1, ccx + reach);
    std::size_t k = 0;
    for (std::size_t tcx = cx_lo; tcx <= cx_hi; ++tcx) {
      const std::size_t adx = tcx > ccx ? tcx - ccx : ccx - tcx;
      const std::size_t half = near_width_[adx] - 1;  // >= 0: adx < near_rows
      const std::size_t cy_lo = ccy > half ? ccy - half : 0;
      const std::size_t cy_hi = std::min(ncy - 1, ccy + half);
      const std::uint32_t m_lo = tx_begin_[tcx * ncy + cy_lo];
      const std::uint32_t m_hi = tx_begin_[tcx * ncy + cy_hi + 1];
      if (tcx == ccx) own = k + (tx_begin_[c] - m_lo);
      for (std::uint32_t m = m_lo; m < m_hi; ++m) s.pos[k++] = tx_pos_[m];
    }
    return k;
  };
  run(
      n,
      [&](std::size_t lo, std::size_t hi) {
        NearScratch& s = near_scratch_[lo / chunk_len];
        std::size_t gathered_cell = ncells;  // none yet
        std::size_t near = 0;
        std::size_t own = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint32_t v = cell_nodes_[i];
          const std::size_t c = listener_cell_[v];
          if (c != gathered_cell) {
            near = gather_near(c, s, own);
            gathered_cell = c;
          }
          // Self exclusion: v transmits iff it is among its own cell's
          // transmitters; `skip` is its gathered index (or near if absent).
          std::size_t skip = near;
          for (std::uint32_t m = tx_begin_[c]; m < tx_begin_[c + 1]; ++m)
            if (transmitters[tx_order_[m]].value == v)
              skip = own + (m - tx_begin_[c]);
          distance_row(pts[v], std::span<const Vec2>(s.pos.data(), near),
                       s.dist.data());
          double acc = far_sum_[c];
          for (std::size_t k = 0; k < skip; ++k)
            acc += pathloss.signal(s.dist[k]);
          for (std::size_t k = skip + 1; k < near; ++k)
            acc += pathloss.signal(s.dist[k]);
          field[v] = acc;
        }
      },
      chunk_len);
  return true;
}

}  // namespace udwn
