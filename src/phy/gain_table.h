// Blocked/tiled LRU cache of unscaled pairwise gains.
//
// The slot pipeline reads the same gain pathloss.signal(metric.distance(u,v))
// once per transmitter/listener pair per slot — recomputing it costs a
// distance plus a libm pow. The old design cached a flat n×n table but only
// while n <= 4096, so large instances silently lost all caching. GainTable
// replaces that cliff with a tiled table:
//
//   * a *tile* is one contiguous column block of one source row —
//     `tile_cols` listener entries (the last block of a row may be ragged);
//   * tiles are materialized lazily into fixed-size slots, bounded by
//     `budget_bytes`, and evicted in least-recently-ensured order, so any n
//     gets cache benefits for its per-slot working set (the transmitter
//     rows) while memory stays bounded;
//   * a tile is *fresh* while its stamp matches the metric version; moves
//     invalidate by stamp, never by writeback.
//
// Patches: a stale tile's storage still holds the exact gains at the
// version it was last fresh at (stamp − 1). apply_delta records, per node,
// the last version at which it moved, over a coverage window of versions
// whose moves are all recorded. When that window reaches from the tile's
// version up to the current one and the row's own node has not moved
// since, plan_rows queues the tile as a *patch*: only the columns whose
// node moved after the tile's version are recomputed — with the same
// pathloss.signal(metric.distance(u, v)) expression, so a patched tile is
// bit-identical to a full refill. Any gap in the recorded moves (a skipped
// or coarse delta, a move made without a delta) falls back to a full fill.
//
// Tile fills: on Euclidean instances (resolved once at bind) a tile's
// distances are computed as one batch — metric/distance_row.h, four lanes
// per AVX2 op — straight into the tile, then pathloss.signal is applied in
// place. The batch evaluates exact_hypot (metric/geometry.h), the very
// function EuclideanMetric::distance calls, lane for lane, so the distances
// are bit-identical to the per-entry ones. Other metrics fill entry by
// entry through the virtual distance.
//
// Bit-exactness contract (what makes the cached pipeline identical to the
// brute-force reference): every entry is the double the uncached kernels
// evaluate — same distance function, same pathloss.signal — except the
// self entry gains[u][u], which is stored as +0.0. Kernels may therefore
// add a whole row without skipping the diagonal: all partial interference
// sums are >= +0.0, and x + 0.0 == x bit-for-bit for every non-negative
// double, so including the zeroed diagonal is indistinguishable from the
// reference's `skip self` loop. (Readers that need the true self gain — no
// current caller does — must not use this table.)
//
// Determinism: eviction order depends only on the sequence of ensure_rows
// calls (source order within a call is the caller's transmitter order),
// never on thread scheduling; parallel tile fills write disjoint slots.
// Reads (row_block / cell) are const and touch no LRU state, so concurrent
// readers after an ensure_rows are race-free.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/types.h"
#include "metric/quasi_metric.h"
#include "phy/pathloss.h"

namespace udwn {

class EuclideanMetric;

class GainTable {
 public:
  struct Config {
    /// Listener columns per tile; must be a power of two. One tile is
    /// tile_cols * 8 bytes (32 KiB at the default). Narrower tiles localize
    /// delta invalidation (a mover dirties only the tiles whose columns
    /// contain it) at the cost of more tile bookkeeping per slot.
    std::size_t tile_cols = 4096;
    /// Upper bound on resident tile storage, for any n; 0 disables the
    /// table. The default is the footprint of the old flat n = 4096 table.
    std::size_t budget_bytes = std::size_t{128} << 20;
  };

  GainTable() : GainTable(Config{}) {}
  explicit GainTable(Config config);

  /// Bind to a topology, dropping all residency. Called on workspace rebind
  /// (new metric/pathloss object or changed instance size), not per slot.
  /// Allocates no per-tile state: that waits for the first plan_rows.
  void bind(const QuasiMetric& metric, const PathLoss& pathloss);

  /// True when the budget admits at least one full row of tiles for the
  /// bound instance (the minimum ensure_rows can ever satisfy).
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::size_t size() const { return n_; }
  /// Column blocks per source row.
  [[nodiscard]] std::size_t blocks() const { return blocks_; }
  /// First listener column of block b.
  [[nodiscard]] std::size_t block_begin(std::size_t b) const {
    return b * config_.tile_cols;
  }
  /// Number of listener columns in block b (the last block may be ragged).
  [[nodiscard]] std::size_t block_cols(std::size_t b) const {
    return b + 1 == blocks_ ? n_ - b * config_.tile_cols : config_.tile_cols;
  }

  /// Make every tile of every source row resident and fresh, filling stale
  /// tiles (in parallel when `pool` is given: tiles are distinct, slots
  /// disjoint). Pins the sources' tiles for the duration of the call so a
  /// call never evicts its own rows. Returns false — leaving freshness
  /// state consistent — when the sources' tiles exceed the budget together;
  /// callers then fall back to the uncached kernel (same bits, recomputed).
  bool ensure_rows(std::span<const NodeId> sources, TaskPool* pool);

  /// Serial planning half of ensure_rows: acquire/pin slots for every tile
  /// of every source row, stamp them fresh, and queue the stale ones for
  /// filling — without filling. Returns false (freshness rolled back,
  /// fallback counted) when the sources' tiles exceed the budget, exactly
  /// like ensure_rows. After a true return, row_block pointers are already
  /// stable (storage never reallocates until the next plan/bind), but tiles
  /// queued for filling hold stale data until fill_planned covers their
  /// block. This is the sharded-field entry point: the slot pipeline plans
  /// once on the caller thread, then workers fill-and-accumulate their own
  /// listener blocks (see docs/ENGINE.md).
  bool plan_rows(std::span<const NodeId> sources);

  /// Fill or patch every tile queued by the last plan_rows whose column
  /// block lies in [block_lo, block_hi). Tiles of disjoint block ranges
  /// occupy disjoint storage, so concurrent calls over a partition of
  /// [0, blocks()) are race-free; each tile's contents end up a pure
  /// function of (metric, pathloss, tile), so the result is
  /// schedule-independent.
  void fill_planned(std::size_t block_lo, std::size_t block_hi);

  /// Base pointer of row u's column block b, or nullptr unless resident and
  /// fresh. Entry j is the gain from u to listener block_begin(b) + j (with
  /// the diagonal stored as +0.0; see file comment). Valid until the next
  /// ensure_rows / bind.
  [[nodiscard]] const double* row_block(NodeId u, std::size_t b) const;

  /// Pointer to the single gain entry (u → v), or nullptr unless the
  /// covering tile is resident and fresh. Never returns the diagonal's
  /// stored zero as a surprise: callers (decode paths) only query u != v.
  [[nodiscard]] const double* cell(NodeId u, std::uint32_t v) const;

  /// Delta invalidation: advance the freshness stamp of every resident tile
  /// that was fresh at `prev_version` and whose entries cannot involve a
  /// dirty node — source row not dirty, column block containing no dirty
  /// id — to `new_version`, so only tiles actually touching dirty nodes
  /// go stale. `dirty` must be sorted ascending and list every node whose
  /// distances may have changed in (prev_version, new_version] (the
  /// TopologyDelta::moved contract).
  ///
  /// The call also records `new_version` as the last move of every dirty
  /// node. A delta whose `prev_version` is the previous call's
  /// `new_version` extends the coverage window of recorded moves; any gap
  /// restarts it at `new_version`. Stale tiles whose version lies inside a
  /// window that reaches the current metric version are patched (only
  /// moved columns recomputed); all others refill in full, exactly as
  /// under epoch invalidation — skipping this call entirely is always
  /// sound. Before the first plan since bind there are no tiles, and the
  /// call only restarts the coverage window at `new_version`.
  void apply_delta(std::span<const NodeId> dirty, std::uint64_t prev_version,
                   std::uint64_t new_version);

  /// Introspection for tests.
  [[nodiscard]] std::size_t resident_tiles() const { return used_slots_; }
  /// True once the first plan_rows / ensure_rows since bind has sized the
  /// per-tile and per-node metadata (never while the table goes unread).
  [[nodiscard]] bool materialized() const { return !tile_slot_.empty(); }
  [[nodiscard]] std::size_t max_tiles() const { return max_tiles_; }

  /// Lifetime cache statistics, maintained unconditionally (plain integer
  /// bumps on the serial ensure_rows path — cheap enough to always keep).
  /// The engine publishes per-round deltas to the metrics registry when an
  /// Obs handle is attached; tests read them directly.
  struct Stats {
    std::uint64_t hits = 0;        // tile already resident and fresh
    std::uint64_t misses = 0;      // tile not resident (slot acquired)
    std::uint64_t evictions = 0;   // resident tile displaced for a new one
    std::uint64_t fills = 0;       // tiles computed in full
    std::uint64_t patches = 0;     // stale tiles revalidated by recomputing
                                   // only their moved columns
    std::uint64_t fallbacks = 0;   // ensure_rows over budget -> uncached path
    std::uint64_t freshened = 0;   // tiles restamped by apply_delta (no fill)
    std::uint64_t disabled_binds = 0;  // bind() left caching off: the budget
                                       // cannot hold even one row of tiles
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  // PlannedTile::base of a tile that needs a full fill.
  static constexpr std::uint64_t kFullFill = ~std::uint64_t{0};

  // A tile queued by plan_rows: filled in full, or — when base is a metric
  // version — patched from its exact contents at that version.
  struct PlannedTile {
    std::size_t tile;
    std::uint64_t base;
  };

  void materialize();
  void fill_planned_tile(const PlannedTile& planned);
  void fill_tile(std::size_t tile);
  void patch_tile(std::size_t tile, std::uint64_t base);
  std::uint32_t acquire_slot();
  void lru_touch(std::uint32_t slot);
  void lru_detach(std::uint32_t slot);

  Config config_;
  const QuasiMetric* metric_ = nullptr;
  const PathLoss* pathloss_ = nullptr;
  // metric_ when it is Euclidean (resolved once at bind): tiles then fill
  // through the batched distance row instead of per-entry virtual calls.
  const EuclideanMetric* euclidean_ = nullptr;

  std::size_t n_ = 0;
  std::size_t blocks_ = 0;
  std::uint32_t col_shift_ = 0;  // log2(config_.tile_cols)
  std::size_t stride_ = 0;      // doubles per slot (== n_ when blocks_ == 1)
  std::size_t max_tiles_ = 0;
  bool enabled_ = false;

  // Per logical tile (row-major: tile = u * blocks_ + b); empty until the
  // first plan after bind (materialize).
  std::vector<std::uint32_t> tile_slot_;
  std::vector<std::uint64_t> tile_stamp_;  // metric version + 1; 0 = never

  // Per physical slot.
  std::vector<double> storage_;  // grows on demand up to max_tiles_*stride_
  std::vector<std::size_t> slot_tile_;
  std::vector<std::uint32_t> lru_prev_;
  std::vector<std::uint32_t> lru_next_;
  std::vector<std::uint64_t> pin_pass_;
  std::uint32_t lru_head_ = kInvalid;
  std::uint32_t lru_tail_ = kInvalid;
  std::size_t used_slots_ = 0;
  std::uint64_t pass_ = 0;

  std::vector<PlannedTile> fill_tiles_;  // scratch, reused across calls
  std::vector<std::uint8_t> block_dirty_;  // scratch for apply_delta

  // Per node: the metric version of its last move recorded by apply_delta
  // (0 = none). Every move in versions (cover_from_, cover_to_] is
  // recorded, so a tile exact at V >= cover_from_ differs from the metric
  // at cover_to_ exactly in the columns with moved_at_ > V.
  std::vector<std::uint64_t> moved_at_;
  std::uint64_t cover_from_ = 0;
  std::uint64_t cover_to_ = 0;
  bool warned_disabled_ = false;  // one warning per table instance
  Stats stats_;
};

}  // namespace udwn
