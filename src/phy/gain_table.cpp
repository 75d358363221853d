#include "phy/gain_table.h"

#include <algorithm>
#include <cstdio>

#include "common/contract.h"
#include "metric/distance_row.h"
#include "metric/euclidean.h"

namespace udwn {

namespace {

[[nodiscard]] constexpr bool is_power_of_two(std::size_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

[[nodiscard]] std::uint32_t log2_of(std::size_t x) {
  std::uint32_t shift = 0;
  while ((std::size_t{1} << shift) < x) ++shift;
  return shift;
}

}  // namespace

GainTable::GainTable(Config config) : config_(config) {
  UDWN_EXPECT(is_power_of_two(config.tile_cols));
}

void GainTable::bind(const QuasiMetric& metric, const PathLoss& pathloss) {
  metric_ = &metric;
  pathloss_ = &pathloss;
  euclidean_ = dynamic_cast<const EuclideanMetric*>(&metric);
  n_ = metric.size();
  col_shift_ = log2_of(config_.tile_cols);
  blocks_ = n_ == 0 ? 0 : (n_ + config_.tile_cols - 1) / config_.tile_cols;
  // One full row per slot when a row fits a single tile — no ragged waste
  // for the common n <= tile_cols case.
  stride_ = blocks_ == 1 ? n_ : config_.tile_cols;
  max_tiles_ =
      stride_ == 0 ? 0 : config_.budget_bytes / (stride_ * sizeof(double));
  max_tiles_ = std::min(max_tiles_, n_ * blocks_);
  // Useful only if at least one whole source row can be resident at once.
  enabled_ = blocks_ > 0 && max_tiles_ >= blocks_;
  if (!enabled_ && blocks_ > 0 && config_.budget_bytes > 0) {
    // A nonzero budget that cannot hold even one row of tiles would thrash
    // the LRU on every ensure_rows; stay off, count it, and say so once
    // (zero budget is a deliberate off switch and stays silent). The slot
    // pipeline falls back to per-lookup recomputation — same bits, slower.
    ++stats_.disabled_binds;
    if (!warned_disabled_) {
      warned_disabled_ = true;
      std::fprintf(stderr,
                   "udwn: gains.budget_bytes=%zu holds %zu tiles but one row "
                   "of n=%zu needs %zu; gain caching disabled, computing "
                   "gains per lookup\n",
                   config_.budget_bytes, max_tiles_, n_, blocks_);
    }
  }

  tile_slot_.clear();
  tile_stamp_.clear();
  moved_at_.clear();
  block_dirty_.clear();
  storage_.clear();
  storage_.shrink_to_fit();
  slot_tile_.clear();
  lru_prev_.clear();
  lru_next_.clear();
  pin_pass_.clear();
  lru_head_ = kInvalid;
  lru_tail_ = kInvalid;
  used_slots_ = 0;
  pass_ = 0;
  if (!enabled_) return;

  cover_from_ = metric.version();
  cover_to_ = cover_from_;
  slot_tile_.reserve(max_tiles_);
  lru_prev_.reserve(max_tiles_);
  lru_next_.reserve(max_tiles_);
  pin_pass_.reserve(max_tiles_);
}

void GainTable::materialize() {
  // Per-tile metadata is 12 B per logical tile — n·blocks entries, 3 GiB at
  // n = 2^20 — so it is sized once per bind, by the first plan: a workspace
  // whose field bypasses the table (the far-field path) never pays for it.
  const std::size_t tiles = n_ * blocks_;
  tile_slot_.assign(tiles, kInvalid);  // udwn-lint: allow(hot-path-alloc): once
  tile_stamp_.assign(tiles, 0);  // udwn-lint: allow(hot-path-alloc): once
  // Steady-state apply_delta only std::fills block_dirty_.
  block_dirty_.assign(blocks_, 0);  // udwn-lint: allow(hot-path-alloc): once
  moved_at_.assign(n_, 0);  // udwn-lint: allow(hot-path-alloc): once
}

void GainTable::lru_detach(std::uint32_t slot) {
  const std::uint32_t prev = lru_prev_[slot];
  const std::uint32_t next = lru_next_[slot];
  if (prev != kInvalid) lru_next_[prev] = next;
  if (next != kInvalid) lru_prev_[next] = prev;
  if (lru_head_ == slot) lru_head_ = next;
  if (lru_tail_ == slot) lru_tail_ = prev;
  lru_prev_[slot] = kInvalid;
  lru_next_[slot] = kInvalid;
}

void GainTable::lru_touch(std::uint32_t slot) {
  if (lru_head_ == slot) return;
  lru_detach(slot);
  lru_next_[slot] = lru_head_;
  if (lru_head_ != kInvalid) lru_prev_[lru_head_] = slot;
  lru_head_ = slot;
  if (lru_tail_ == kInvalid) lru_tail_ = slot;
}

std::uint32_t GainTable::acquire_slot() {
  if (used_slots_ < max_tiles_) {
    const auto slot = static_cast<std::uint32_t>(used_slots_++);
    if (storage_.size() < used_slots_ * stride_) {
      // Grow geometrically toward the budget: a one-time warm-up cost, so
      // steady-state slots never allocate once the working set is sized.
      const std::size_t want = used_slots_ * stride_;
      const std::size_t doubled =
          std::min(max_tiles_ * stride_, storage_.size() * 2 + stride_);
      storage_.resize(std::max(want, doubled));
    }
    slot_tile_.push_back(0);
    lru_prev_.push_back(kInvalid);
    lru_next_.push_back(kInvalid);
    pin_pass_.push_back(0);
    return slot;
  }
  // Evict the least-recently-ensured tile not pinned by the current call.
  std::uint32_t slot = lru_tail_;
  while (slot != kInvalid && pin_pass_[slot] == pass_) slot = lru_prev_[slot];
  if (slot == kInvalid) return kInvalid;
  tile_slot_[slot_tile_[slot]] = kInvalid;
  ++stats_.evictions;
  return slot;
}

void GainTable::fill_tile(std::size_t tile) {
  const std::size_t u = tile / blocks_;
  const std::size_t b = tile - u * blocks_;
  const std::size_t begin = block_begin(b);
  const std::size_t count = block_cols(b);
  double* dst = storage_.data() +
                static_cast<std::size_t>(tile_slot_[tile]) * stride_;
  if (euclidean_ != nullptr) {
    // Batch path: the row's distances land in the tile itself (the same
    // exact_hypot EuclideanMetric::distance evaluates, see
    // metric/distance_row.h), then the signal is applied in place.
    const std::span<const Vec2> pts = euclidean_->positions();
    distance_row(pts[u], pts.subspan(begin, count), dst);
    for (std::size_t j = 0; j < count; ++j) dst[j] = pathloss_->signal(dst[j]);
  } else {
    const NodeId id(static_cast<std::uint32_t>(u));
    for (std::size_t j = 0; j < count; ++j)
      dst[j] = pathloss_->signal(metric_->distance(
          id, NodeId(static_cast<std::uint32_t>(begin + j))));
  }
  // Diagonal contract: the self entry is +0.0 so kernels can add whole rows
  // without a branch (see file comment in gain_table.h).
  if (u >= begin && u < begin + count) dst[u - begin] = 0.0;
}

void GainTable::patch_tile(std::size_t tile, std::uint64_t base) {
  const std::size_t u = tile / blocks_;
  const std::size_t b = tile - u * blocks_;
  const std::size_t begin = block_begin(b);
  const std::size_t count = block_cols(b);
  double* dst = storage_.data() +
                static_cast<std::size_t>(tile_slot_[tile]) * stride_;
  // The tile holds the exact gains at version `base`; since then only the
  // columns of nodes that moved have changed. The row's own node has not
  // moved (plan_rows checks), so the +0.0 diagonal is never rewritten.
  // distance() is bit-identical to the batched distance_row of fill_tile.
  UDWN_ASSERT(moved_at_[u] <= base);
  const std::uint64_t* moved = moved_at_.data() + begin;
  const NodeId id(static_cast<std::uint32_t>(u));
  for (std::size_t j = 0; j < count; ++j)
    if (moved[j] > base)
      dst[j] = pathloss_->signal(metric_->distance(
          id, NodeId(static_cast<std::uint32_t>(begin + j))));
}

void GainTable::fill_planned_tile(const PlannedTile& planned) {
  if (planned.base == kFullFill) {
    fill_tile(planned.tile);
  } else {
    patch_tile(planned.tile, planned.base);
  }
}

bool GainTable::plan_rows(std::span<const NodeId> sources) {
  fill_tiles_.clear();
  if (!enabled_) return false;
  if (sources.empty()) return true;
  UDWN_ASSERT(metric_ != nullptr && pathloss_ != nullptr);
  if (!materialized()) materialize();
  const std::uint64_t version = metric_->version();
  const std::uint64_t fresh = version + 1;
  // Stale tiles are patchable only while the recorded moves reach the
  // current version (no move since the last apply_delta).
  const bool covered = cover_to_ == version;
  std::uint64_t patches = 0;
  ++pass_;
  for (const NodeId u : sources) {
    UDWN_ASSERT(u.value < n_);
    for (std::size_t b = 0; b < blocks_; ++b) {
      const std::size_t tile = static_cast<std::size_t>(u.value) * blocks_ + b;
      std::uint32_t slot = tile_slot_[tile];
      if (slot == kInvalid) {
        ++stats_.misses;
        slot = acquire_slot();
        if (slot == kInvalid) {
          // Over budget: roll back the freshness claims of tiles queued but
          // not yet filled, then report failure so the caller recomputes.
          for (const PlannedTile& p : fill_tiles_) tile_stamp_[p.tile] = 0;
          ++stats_.fallbacks;
          return false;
        }
        tile_slot_[tile] = slot;
        slot_tile_[slot] = tile;
        tile_stamp_[tile] = 0;
      } else if (tile_stamp_[tile] == fresh) {
        ++stats_.hits;
      }
      pin_pass_[slot] = pass_;
      lru_touch(slot);
      const std::uint64_t stamp = tile_stamp_[tile];
      if (stamp != fresh) {
        // Stamp now, fill later (ensure_rows or the caller's fill_planned
        // shards): sources may repeat across calls but tiles enter the fill
        // list exactly once, keeping parallel fills disjoint. A resident
        // tile exact at a covered version V whose row has not moved since
        // only needs the columns that moved after V.
        std::uint64_t base = kFullFill;
        if (covered && stamp != 0 && stamp - 1 >= cover_from_ &&
            moved_at_[u.value] <= stamp - 1) {
          base = stamp - 1;
          ++patches;
        }
        tile_stamp_[tile] = fresh;
        fill_tiles_.push_back({tile, base});
      }
    }
  }
  stats_.patches += patches;
  stats_.fills += fill_tiles_.size() - patches;
  return true;
}

void GainTable::fill_planned(std::size_t block_lo, std::size_t block_hi) {
  for (const PlannedTile& planned : fill_tiles_) {
    const std::size_t b = planned.tile % blocks_;
    if (b >= block_lo && b < block_hi) fill_planned_tile(planned);
  }
}

bool GainTable::ensure_rows(std::span<const NodeId> sources, TaskPool* pool) {
  if (!plan_rows(sources)) return false;
  if (fill_tiles_.empty()) return true;
  if (pool != nullptr && pool->threads() > 1 && fill_tiles_.size() > 1) {
    // Distinct tiles occupy distinct slots, so fills write disjoint storage
    // ranges; contents are pure functions of (metric, pathloss, tile), so
    // the result is schedule-independent.
    pool->run_chunks(0, fill_tiles_.size(),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i)
                         fill_planned_tile(fill_tiles_[i]);
                     });
  } else {
    for (const PlannedTile& planned : fill_tiles_) fill_planned_tile(planned);
  }
  return true;
}

void GainTable::apply_delta(std::span<const NodeId> dirty,
                            std::uint64_t prev_version,
                            std::uint64_t new_version) {
  if (!enabled_ || prev_version == new_version) return;
  UDWN_EXPECT(prev_version < new_version);
  if (!materialized()) {
    // No tile exists to freshen or patch: record nothing, and restart the
    // coverage window so no later tile claims the unrecorded moves.
    cover_from_ = new_version;
    cover_to_ = new_version;
    return;
  }
  // Coverage window: contiguous deltas extend it; a gap means moves went
  // unrecorded, so only tiles exact at new_version or later can be
  // patched from here on.
  if (prev_version != cover_to_) cover_from_ = new_version;
  cover_to_ = new_version;
  // Per-block dirty flags: a tile's columns touch a dirty node iff its
  // block is flagged. O(blocks + |dirty|) setup, O(1) per resident tile.
  std::fill(block_dirty_.begin(), block_dirty_.end(), 0);
  for (const NodeId v : dirty) {
    UDWN_ASSERT(v.value < n_);
    moved_at_[v.value] = new_version;
    block_dirty_[blocks_ == 1 ? 0 : v.value >> col_shift_] = 1;
  }
  const std::uint64_t was_fresh = prev_version + 1;
  const std::uint64_t now_fresh = new_version + 1;
  for (std::uint32_t slot = 0; slot < used_slots_; ++slot) {
    const std::size_t tile = slot_tile_[slot];
    if (tile_slot_[tile] != slot) continue;  // slot's tile was evicted
    if (tile_stamp_[tile] != was_fresh) continue;  // already stale
    const std::size_t u = tile / blocks_;
    const std::size_t b = tile - u * blocks_;
    if (block_dirty_[b]) continue;  // a column may involve a dirty node
    const bool row_dirty = std::binary_search(
        dirty.begin(), dirty.end(), NodeId(static_cast<std::uint32_t>(u)));
    if (row_dirty) continue;  // the whole source row is suspect
    tile_stamp_[tile] = now_fresh;  // provably unchanged: restamp, no fill
    ++stats_.freshened;
  }
}

const double* GainTable::row_block(NodeId u, std::size_t b) const {
  if (!materialized()) return nullptr;
  UDWN_ASSERT(u.value < n_ && b < blocks_);
  const std::size_t tile = static_cast<std::size_t>(u.value) * blocks_ + b;
  const std::uint32_t slot = tile_slot_[tile];
  if (slot == kInvalid || tile_stamp_[tile] != metric_->version() + 1)
    return nullptr;
  return storage_.data() + static_cast<std::size_t>(slot) * stride_;
}

const double* GainTable::cell(NodeId u, std::uint32_t v) const {
  if (!materialized()) return nullptr;
  UDWN_ASSERT(u.value < n_ && v < n_);
  const std::size_t b = blocks_ == 1 ? 0 : v >> col_shift_;
  const std::size_t col =
      blocks_ == 1 ? v : v & ((std::size_t{1} << col_shift_) - 1);
  const std::size_t tile = static_cast<std::size_t>(u.value) * blocks_ + b;
  const std::uint32_t slot = tile_slot_[tile];
  if (slot == kInvalid || tile_stamp_[tile] != metric_->version() + 1)
    return nullptr;
  return storage_.data() + static_cast<std::size_t>(slot) * stride_ + col;
}

}  // namespace udwn
