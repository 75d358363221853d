// The delta-invalidation stack, layer by layer: DirtyLog window queries,
// QuasiMetric dirty bookkeeping (localized / coarse / batched spans),
// Network::collect_delta folding metric dirt and alive churn into a
// TopologyDelta, GainTable::apply_delta freshening exactly the tiles that
// avoid every dirty row and column, stale tiles patched column by column
// bit-identically to a full refill, and — the property the whole refactor
// hangs on — cached slot resolution staying bit-identical to the brute-force
// reference while deltas are applied every round. The engine-level test
// closes the loop: the delta-invalidated and uncached pipelines hash to the
// same trace under churn + mobility, serial and threaded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "core/broadcast.h"
#include "metric/dirty_log.h"
#include "metric/euclidean.h"
#include "metric/matrix_metric.h"
#include "phy/channel.h"
#include "phy/gain_table.h"
#include "sim/dynamics.h"
#include "sim/network.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

std::vector<NodeId> ids(std::initializer_list<std::uint32_t> list) {
  std::vector<NodeId> out;
  for (auto id : list) out.push_back(NodeId(id));
  return out;
}

TEST(DirtyLog, CollectReturnsExactlyTheWindow) {
  DirtyLog log;
  log.record(NodeId(5), 1);
  log.record(NodeId(9), 2);
  log.record(NodeId(5), 3);
  std::vector<NodeId> out;
  ASSERT_TRUE(log.collect(0, 3, out));
  EXPECT_EQ(out, ids({5, 9, 5}));  // repeats preserved; callers dedup
  out.clear();
  ASSERT_TRUE(log.collect(1, 2, out));
  EXPECT_EQ(out, ids({9}));
  out.clear();
  EXPECT_TRUE(log.collect(3, 3, out));  // empty window is localizable
  EXPECT_TRUE(out.empty());
}

TEST(DirtyLog, GlobalRecordMakesCoveringWindowsNonLocalizable) {
  DirtyLog log;
  log.record(NodeId(1), 1);
  log.record_global(2);
  log.record(NodeId(3), 3);
  std::vector<NodeId> out;
  EXPECT_FALSE(log.collect(1, 3, out));  // global tick inside the window
  EXPECT_TRUE(out.empty());              // out untouched on failure
  // History at or below the global mark is subsumed by it.
  EXPECT_FALSE(log.collect(0, 1, out));
  // Windows strictly after the global mark stay localizable.
  ASSERT_TRUE(log.collect(2, 3, out));
  EXPECT_EQ(out, ids({3}));
}

TEST(DirtyLog, EvictionLosesOnlyOldWindows) {
  DirtyLog log;
  // Overflow the ring's hard cap so the oldest records are evicted.
  const std::uint64_t total = (std::uint64_t{1} << 17) + 500;
  for (std::uint64_t v = 1; v <= total; ++v)
    log.record(NodeId(static_cast<std::uint32_t>(v % 7)), v);
  std::vector<NodeId> out;
  EXPECT_FALSE(log.collect(0, total, out));  // reaches past the horizon
  ASSERT_TRUE(log.collect(total - 100, total, out));
  EXPECT_EQ(out.size(), 100u);
}

TEST(QuasiMetricDirty, EuclideanMoveLogsTheMoverOnly) {
  EuclideanMetric m(test::random_points(10, 3.0, 41));
  const std::uint64_t v0 = m.version();
  m.set_position(NodeId(4), {1, 1});
  EXPECT_EQ(m.version(), v0 + 1);
  std::vector<NodeId> out;
  ASSERT_TRUE(m.dirty_log().collect(v0, v0 + 1, out));
  EXPECT_EQ(out, ids({4}));
}

TEST(QuasiMetricDirty, UpdateSpanBatchesMovesIntoOneTick) {
  EuclideanMetric m(test::random_points(10, 3.0, 42));
  const std::uint64_t v0 = m.version();
  m.begin_update();
  m.set_position(NodeId(2), {2, 2});
  m.set_position(NodeId(7), {0.5, 0.5});
  EXPECT_EQ(m.version(), v0);  // not committed inside the span
  m.end_update();
  EXPECT_EQ(m.version(), v0 + 1);
  std::vector<NodeId> out;
  ASSERT_TRUE(m.dirty_log().collect(v0, v0 + 1, out));
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, ids({2, 7}));
}

TEST(QuasiMetricDirty, EmptyAndNestedSpans) {
  EuclideanMetric m(test::random_points(5, 3.0, 43));
  const std::uint64_t v0 = m.version();
  m.begin_update();
  m.end_update();
  EXPECT_EQ(m.version(), v0);  // nothing mutated: no tick
  m.begin_update();
  m.begin_update();
  m.set_position(NodeId(1), {1, 1});
  m.end_update();
  EXPECT_EQ(m.version(), v0);  // inner end does not commit
  m.end_update();
  EXPECT_EQ(m.version(), v0 + 1);
}

TEST(QuasiMetricDirty, MatrixEditDirtiesBothEndpoints) {
  // Non-geometric consumers treat "neither endpoint dirty" as "distance
  // unchanged", so a directed edit must dirty both u and v (dirty_log.h).
  MatrixMetric m(3, {0, 1, 2, 1, 0, 1, 2, 1, 0});
  const std::uint64_t v0 = m.version();
  m.set_distance(NodeId(0), NodeId(2), 1.5);
  EXPECT_EQ(m.version(), v0 + 1);
  std::vector<NodeId> out;
  ASSERT_TRUE(m.dirty_log().collect(v0, v0 + 1, out));
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, ids({0, 2}));
}

TEST(QuasiMetricDirty, AppendedPointIsCoarse) {
  EuclideanMetric m(test::random_points(4, 2.0, 44));
  const std::uint64_t v0 = m.version();
  m.add_point({1, 1});
  EXPECT_EQ(m.version(), v0 + 1);
  std::vector<NodeId> out;
  EXPECT_FALSE(m.dirty_log().collect(v0, v0 + 1, out));
}

TEST(NetworkDelta, ArmingAnchorsTheCollectionWindow) {
  EuclideanMetric m(test::random_points(10, 3.0, 51));
  Network net(m);
  // Mutations before arming must not leak into the first delta.
  m.set_position(NodeId(3), {1, 1});
  net.set_alive(NodeId(6), false);
  net.set_track_changes(true);
  const TopologyDelta& delta = net.collect_delta();
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.prev_metric_version, delta.metric_version);
  EXPECT_EQ(delta.prev_epoch, delta.epoch);
}

TEST(NetworkDelta, FoldsMovesAndAliveChurnSortedDeduped) {
  EuclideanMetric m(test::random_points(10, 3.0, 52));
  Network net(m);
  net.set_track_changes(true);
  const std::uint64_t v0 = m.version();
  const std::uint64_t e0 = net.topology_epoch();
  m.set_position(NodeId(7), {1, 2});
  m.set_position(NodeId(3), {2, 1});
  net.set_alive(NodeId(4), false);
  net.set_alive(NodeId(4), true);  // toggled twice: still reported once
  net.set_alive(NodeId(2), false);
  const TopologyDelta& delta = net.collect_delta();
  EXPECT_FALSE(delta.coarse);
  EXPECT_EQ(delta.moved, ids({3, 7}));
  EXPECT_EQ(delta.alive_toggled, ids({2, 4}));
  EXPECT_EQ(delta.prev_metric_version, v0);
  EXPECT_EQ(delta.metric_version, v0 + 2);
  EXPECT_EQ(delta.prev_epoch, e0);
  EXPECT_EQ(delta.epoch, net.topology_epoch());
  // The window advanced: a quiet round collects an empty delta.
  EXPECT_TRUE(net.collect_delta().empty());
}

TEST(NetworkDelta, CoarseMetricChangeFlagsTheDelta) {
  EuclideanMetric m(test::random_points(10, 3.0, 53));
  Network net(m);
  net.set_track_changes(true);
  m.set_position(NodeId(1), {0.1, 0.1});
  m.add_point({5, 5});  // not localizable: subsumes the move above
  const TopologyDelta& delta = net.collect_delta();
  EXPECT_TRUE(delta.coarse);
  EXPECT_TRUE(delta.moved.empty());
  EXPECT_FALSE(delta.empty());  // coarse deltas are changes, not no-ops
}

TEST(GainTableDelta, FreshensExactlyTheTilesAvoidingDirtyRowsAndColumns) {
  EuclideanMetric metric(test::random_points(32, 5.0, 71));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  ASSERT_TRUE(gains.enabled());
  ASSERT_EQ(gains.blocks(), 4u);
  std::vector<NodeId> all;
  for (std::uint32_t u = 0; u < 32; ++u) all.push_back(NodeId(u));
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));

  const std::uint64_t v0 = metric.version();
  const NodeId mover(5);  // column 5 lives in block 0
  const Vec2 p = metric.position(mover);
  metric.set_position(mover, {p.x + 0.25, p.y});
  const std::uint64_t v1 = metric.version();
  const std::vector<NodeId> dirty{mover};
  gains.apply_delta(dirty, v0, v1);

  // 31 clean rows × 3 clean blocks restamped without a fill.
  EXPECT_EQ(gains.stats().freshened, 31u * 3u);
  for (std::uint32_t u = 0; u < 32; ++u) {
    for (std::size_t b = 0; b < 4; ++b) {
      const double* row = gains.row_block(NodeId(u), b);
      if (u == mover.value || b == 0) {
        EXPECT_EQ(row, nullptr) << "suspect tile (" << u << "," << b << ")";
        continue;
      }
      ASSERT_NE(row, nullptr) << "clean tile (" << u << "," << b << ")";
      for (std::uint32_t j = 0; j < 8; ++j) {
        const std::uint32_t v = static_cast<std::uint32_t>(b) * 8 + j;
        const double expected =
            v == u ? 0.0 : pl.signal(metric.distance(NodeId(u), NodeId(v)));
        EXPECT_EQ(row[j], expected);  // bitwise: freshening changed nothing
      }
    }
  }
}

TEST(GainTableDelta, NoOpWhenVersionsEqualOrEveryBlockDirty) {
  EuclideanMetric metric(test::random_points(16, 4.0, 72));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  std::vector<NodeId> all;
  for (std::uint32_t u = 0; u < 16; ++u) all.push_back(NodeId(u));
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  const std::uint64_t v0 = metric.version();
  gains.apply_delta(all, v0, v0);  // equal versions: nothing to connect
  EXPECT_EQ(gains.stats().freshened, 0u);
  // One dirty column per block leaves no tile provably clean.
  metric.begin_update();
  metric.set_position(NodeId(0), {0.1, 0.1});
  metric.set_position(NodeId(8), {3.9, 3.9});
  metric.end_update();
  const std::vector<NodeId> dirty = ids({0, 8});
  gains.apply_delta(dirty, v0, metric.version());
  EXPECT_EQ(gains.stats().freshened, 0u);
  EXPECT_EQ(gains.row_block(NodeId(3), 0), nullptr);
}

std::vector<NodeId> all_ids(std::uint32_t n) {
  std::vector<NodeId> out;
  for (std::uint32_t u = 0; u < n; ++u) out.push_back(NodeId(u));
  return out;
}

std::uint64_t bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// Every entry of every listed row, bitwise against the uncached expression
// (+0.0 on the diagonal): a patched tile must equal a full refill.
void expect_rows_exact(const GainTable& gains, const QuasiMetric& metric,
                       const PathLoss& pl, std::span<const NodeId> rows) {
  for (const NodeId u : rows)
    for (std::size_t b = 0; b < gains.blocks(); ++b) {
      const double* row = gains.row_block(u, b);
      ASSERT_NE(row, nullptr) << "u=" << u.value << " b=" << b;
      for (std::size_t j = 0; j < gains.block_cols(b); ++j) {
        const auto v = static_cast<std::uint32_t>(gains.block_begin(b) + j);
        const double want =
            v == u.value ? 0.0 : pl.signal(metric.distance(u, NodeId(v)));
        ASSERT_EQ(bits(row[j]), bits(want)) << "u=" << u.value << " v=" << v;
      }
    }
}

// One localized move handed to the table as its own delta, the way
// TopologyCache forwards a round's TopologyDelta.
void move_with_delta(EuclideanMetric& metric, GainTable& gains, NodeId v,
                     Vec2 by) {
  const std::uint64_t prev = metric.version();
  const Vec2 p = metric.position(v);
  metric.set_position(v, {p.x + by.x, p.y + by.y});
  const std::vector<NodeId> dirty{v};
  gains.apply_delta(dirty, prev, metric.version());
}

TEST(GainTableDelta, PatchesTilesLeftUnusedAcrossSeveralRoundsOfMoves) {
  EuclideanMetric metric(test::random_points(32, 5.0, 73));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  ASSERT_EQ(gains.blocks(), 4u);
  const std::vector<NodeId> all = all_ids(32);
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));

  // Three rounds with one mover each (blocks 0, 1, 3). Only rows 1 and 2
  // are used in between; every other row's tiles sit stale across rounds.
  const std::vector<NodeId> used = ids({1, 2});
  for (const std::uint32_t mover : {5u, 12u, 26u}) {
    move_with_delta(metric, gains, NodeId(mover), {0.3, -0.2});
    ASSERT_TRUE(gains.ensure_rows(used, nullptr));
    expect_rows_exact(gains, metric, pl, used);
  }
  EXPECT_EQ(gains.stats().patches, 3u * 2u);

  const GainTable::Stats before = gains.stats();
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  expect_rows_exact(gains, metric, pl, all);
  // The movers' rows refill in full; the 27 other unused rows patch the
  // three blocks holding a mover (block 0 holds the diagonals of rows
  // 0-7) and hit block 2, which apply_delta kept fresh.
  EXPECT_EQ(gains.stats().fills - before.fills, 3u * 4u);
  EXPECT_EQ(gains.stats().patches - before.patches, 27u * 3u);
  EXPECT_EQ(gains.stats().hits - before.hits, 27u + 2u * 4u);
}

TEST(GainTableDelta, RowWhoseOwnNodeMovedIsRefilledInFull) {
  EuclideanMetric metric(test::random_points(16, 4.0, 74));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  const std::vector<NodeId> row = ids({3});
  ASSERT_TRUE(gains.ensure_rows(row, nullptr));

  move_with_delta(metric, gains, NodeId(3), {0.4, 0.1});
  ASSERT_TRUE(gains.ensure_rows(row, nullptr));
  expect_rows_exact(gains, metric, pl, row);
  EXPECT_EQ(gains.stats().fills, 2u + 2u);
  EXPECT_EQ(gains.stats().patches, 0u);

  // Row 3 is now exact at the version node 3 last moved at; a later move
  // in its block patches it, and the diagonal stays +0.0.
  move_with_delta(metric, gains, NodeId(6), {-0.2, 0.3});
  ASSERT_TRUE(gains.ensure_rows(row, nullptr));
  expect_rows_exact(gains, metric, pl, row);
  EXPECT_EQ(gains.stats().fills, 4u);
  EXPECT_EQ(gains.stats().patches, 1u);
}

TEST(GainTableDelta, MovesWithoutDeltaForceFullFills) {
  EuclideanMetric metric(test::random_points(24, 4.5, 75));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  const std::vector<NodeId> all = all_ids(24);
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));

  // A move the table never hears about: the recorded moves no longer reach
  // the metric version, so nothing may be patched.
  move_with_delta(metric, gains, NodeId(5), {0.2, 0.2});
  metric.set_position(NodeId(20), {1.0, 1.0});
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  expect_rows_exact(gains, metric, pl, all);
  EXPECT_EQ(gains.stats().patches, 0u);

  // A gap followed by a delta: the window restarts at that delta's version,
  // so tiles exact before the unrecorded move (node 9) still refill whole.
  metric.set_position(NodeId(9), {2.0, 3.0});
  move_with_delta(metric, gains, NodeId(7), {-0.3, 0.1});
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  expect_rows_exact(gains, metric, pl, all);
  EXPECT_EQ(gains.stats().patches, 0u);

  // Contiguous deltas from there on patch again.
  move_with_delta(metric, gains, NodeId(11), {0.1, -0.4});
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  expect_rows_exact(gains, metric, pl, all);
  EXPECT_EQ(gains.stats().patches, 23u);  // block 1 of every other row
}

TEST(GainTableDelta, DeltasBeforeTheFirstPlanOnlyRestartTheWindow) {
  // bind sizes no per-tile state; moves delivered before the first
  // ensure_rows find nothing to freshen or record. The first plan then
  // fills in full, and contiguous deltas from there on patch as usual.
  EuclideanMetric metric(test::random_points(24, 4.5, 79));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  ASSERT_TRUE(gains.enabled());
  EXPECT_FALSE(gains.materialized());
  move_with_delta(metric, gains, NodeId(4), {0.2, -0.1});
  move_with_delta(metric, gains, NodeId(17), {-0.3, 0.2});
  EXPECT_FALSE(gains.materialized());
  EXPECT_EQ(gains.stats().freshened, 0u);

  const std::vector<NodeId> all = all_ids(24);
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  EXPECT_TRUE(gains.materialized());
  expect_rows_exact(gains, metric, pl, all);
  EXPECT_EQ(gains.stats().fills, 24u * 3u);
  EXPECT_EQ(gains.stats().patches, 0u);

  move_with_delta(metric, gains, NodeId(11), {0.1, -0.4});
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  expect_rows_exact(gains, metric, pl, all);
  EXPECT_EQ(gains.stats().patches, 23u);  // block 1 of every other row

  // A rebind drops the metadata again until the next plan.
  gains.bind(metric, pl);
  EXPECT_FALSE(gains.materialized());
}

TEST(GainTableDelta, CoarseAddPointForcesFullFills) {
  EuclideanMetric metric(test::random_points(24, 4.5, 76));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  const std::vector<NodeId> all = all_ids(24);
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));

  // Deliver deltas the way TopologyCache does: a window the dirty log
  // cannot localize (coarse) is skipped, never forwarded.
  std::uint64_t seen = metric.version();
  const auto deliver = [&] {
    std::vector<NodeId> moved;
    const std::uint64_t now = metric.version();
    if (metric.dirty_log().collect(seen, now, moved)) {
      std::sort(moved.begin(), moved.end());
      moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
      gains.apply_delta(moved, seen, now);
    }
    seen = now;
  };

  metric.set_position(NodeId(4), {0.5, 0.5});
  metric.add_point({3.0, 3.0});
  deliver();
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  expect_rows_exact(gains, metric, pl, all);
  EXPECT_EQ(gains.stats().patches, 0u);

  metric.set_position(NodeId(6), {1.5, 0.5});
  deliver();  // first delta after the gap: restarts the window
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  expect_rows_exact(gains, metric, pl, all);
  EXPECT_EQ(gains.stats().patches, 0u);

  metric.set_position(NodeId(8), {2.5, 0.5});
  deliver();
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  expect_rows_exact(gains, metric, pl, all);
  EXPECT_EQ(gains.stats().patches, 23u);
}

TEST(GainTableDelta, PatchedSingleBlockRowsKeepPositiveZeroDiagonal) {
  // One block per row (stride n): every patch covers its row's diagonal.
  EuclideanMetric metric(test::random_points(12, 3.0, 77));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 16, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  ASSERT_EQ(gains.blocks(), 1u);
  const std::vector<NodeId> all = all_ids(12);
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    // Node 4 lands on node 7 (a co-located pair), then drifts away.
    const std::uint64_t prev = metric.version();
    const Vec2 p7 = metric.position(NodeId(7));
    metric.set_position(NodeId(4), {p7.x + 0.5 * round, p7.y});
    const std::vector<NodeId> dirty = ids({4});
    gains.apply_delta(dirty, prev, metric.version());
    ASSERT_TRUE(gains.ensure_rows(all, nullptr));
    expect_rows_exact(gains, metric, pl, all);
  }
  EXPECT_EQ(gains.stats().patches, 3u * 11u);
  EXPECT_EQ(gains.stats().fills, 12u + 3u);
}

TEST(GainTableDelta, PatchesAsymmetricMatrixMetricExactly) {
  Rng rng(78);
  MatrixMetric metric = MatrixMetric::random(12, 1.0, 4.0, 0.5, rng);
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 4, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  ASSERT_EQ(gains.blocks(), 3u);
  const std::vector<NodeId> all = all_ids(12);
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    // A directed edit dirties both endpoints; only d(u, v) changes, so the
    // reverse entry d(v, u) must come out of the patch unchanged.
    const NodeId u(static_cast<std::uint32_t>(rng.below(12)));
    const NodeId v(
        static_cast<std::uint32_t>((u.value + 1 + rng.below(11)) % 12));
    const std::uint64_t prev = metric.version();
    metric.set_distance(u, v, metric.distance(u, v) * 1.25);
    std::vector<NodeId> dirty{u, v};
    std::sort(dirty.begin(), dirty.end());
    gains.apply_delta(dirty, prev, metric.version());
    ASSERT_TRUE(gains.ensure_rows(all, nullptr));
    expect_rows_exact(gains, metric, pl, all);
  }
  EXPECT_GT(gains.stats().patches, 0u);
}

TEST(GainTableDelta, PatchesMatchAcrossPoolAndPlannedShards) {
  // The same patched rows through every fill path: serial ensure_rows, the
  // pooled ensure_rows, and plan_rows + fill_planned on one thread and
  // sharded over a 3-thread pool (the sharded-field path).
  EuclideanMetric metric(test::random_points(40, 5.5, 79));
  const PathLoss pl(1.5, 2.8, 1e-3);
  TaskPool pool(3);
  const GainTable::Config config{.tile_cols = 8, .budget_bytes = 1 << 20};
  GainTable serial(config), pooled(config), planned(config), sharded(config);
  GainTable* const tables[] = {&serial, &pooled, &planned, &sharded};
  for (GainTable* t : tables) t->bind(metric, pl);
  ASSERT_EQ(serial.blocks(), 5u);

  Rng rng(80);
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    const std::uint64_t prev = metric.version();
    std::vector<NodeId> dirty;
    metric.begin_update();
    for (int k = 0; k < 3; ++k) {
      const NodeId v(static_cast<std::uint32_t>(rng.below(40)));
      const Vec2 p = metric.position(v);
      metric.set_position(v, {p.x + rng.uniform(-0.3, 0.3),
                              p.y + rng.uniform(-0.3, 0.3)});
      dirty.push_back(v);
    }
    metric.end_update();
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    for (GainTable* t : tables) t->apply_delta(dirty, prev, metric.version());

    std::vector<NodeId> rows;
    for (std::uint32_t u = 0; u < 40; ++u)
      if (rng.chance(0.4)) rows.push_back(NodeId(u));
    ASSERT_TRUE(serial.ensure_rows(rows, nullptr));
    ASSERT_TRUE(pooled.ensure_rows(rows, &pool));
    ASSERT_TRUE(planned.plan_rows(rows));
    planned.fill_planned(0, planned.blocks());
    ASSERT_TRUE(sharded.plan_rows(rows));
    pool.run_chunks(0, sharded.blocks(), [&](std::size_t lo, std::size_t hi) {
      sharded.fill_planned(lo, hi);
    });
    for (GainTable* t : tables) expect_rows_exact(*t, metric, pl, rows);
  }
  for (GainTable* t : tables) {
    EXPECT_GT(t->stats().patches, 0u);
    EXPECT_EQ(t->stats().patches, serial.stats().patches);
    EXPECT_EQ(t->stats().fills, serial.stats().fills);
  }
}

TEST(DeltaInvalidation, CachedResolveMatchesBruteForceAcrossDeltaRounds) {
  Scenario scenario(test::random_points(60, 6.0, 8101),
                    test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  EuclideanMetric& metric = *scenario.euclidean();
  network.set_track_changes(true);
  // Small tiles force multi-block gain rows so apply_delta's per-block
  // column filtering is actually exercised at n = 60.
  SlotWorkspace ws(SlotWorkspaceConfig{.gains = {.tile_cols = 16}});
  Rng rng(9);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    metric.begin_update();
    for (int k = 0; k < 2; ++k) {
      const NodeId v(static_cast<std::uint32_t>(rng.below(60)));
      const Vec2 p = metric.position(v);
      metric.set_position(v, {p.x + rng.uniform(-0.3, 0.3),
                              p.y + rng.uniform(-0.3, 0.3)});
    }
    metric.end_update();
    const NodeId toggled(static_cast<std::uint32_t>(rng.below(60)));
    network.set_alive(toggled, !network.alive(toggled));
    ws.cache().apply_delta(network.collect_delta());

    std::vector<NodeId> txs;
    for (std::uint32_t v = 0; v < 60; ++v)
      if (network.alive(NodeId(v)) && rng.chance(0.2))
        txs.push_back(NodeId(v));
    const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), 1.0);
    const SlotOutcome& got = channel.resolve_into(
        txs, network.alive_mask(), 1.0, network.topology_epoch(), ws);
    test::expect_outcomes_identical(ref, got);
  }
  // The fast path must have engaged, not silently degraded to epoch-only.
  ASSERT_NE(ws.cache().gains(), nullptr);
  EXPECT_GT(ws.cache().gains()->stats().freshened, 0u);
}

std::vector<std::uint64_t> run_engine_trace(bool cache, int threads,
                                            bool dynamic) {
  const std::uint64_t seed = 4242;
  Scenario scenario(test::random_points(24, 4.0, seed),
                    test::default_config());
  const std::size_t n = scenario.network().size();
  const NodeId source(0);
  auto protocols = make_protocols(n, [&](NodeId id) {
    return std::make_unique<BcastProtocol>(TryAdjust::standard(n, 2.0),
                                           BcastProtocol::Mode::Dynamic,
                                           id == source);
  });
  const CarrierSensing sensing = scenario.sensing_broadcast();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.slots_per_round = 2,
                             .seed = seed,
                             .threads = threads,
                             .cache_topology = cache});
  ChurnDynamics churn({.arrival_rate = 0.15,
                       .departure_rate = 0.15,
                       .placement_extent = 4.0,
                       .pinned = {source}});
  WaypointMobility mobility(*scenario.euclidean(), {.speed = 0.05,
                                                    .extent = 4.0,
                                                    .mobile_fraction = 0.5});
  CompositeDynamics dynamics({&churn, &mobility});
  if (dynamic) engine.set_dynamics(&dynamics);
  TraceHashRecorder recorder;
  engine.set_recorder(&recorder);
  for (Round r = 0; r < 60; ++r) engine.step();
  return recorder.round_hashes();
}

TEST(DeltaInvalidation, EngineTraceBitIdenticalAcrossInvalidationModes) {
  // Delta invalidation is a pure freshening optimization: under churn +
  // mobility it must hash round-for-round identical to the uncached
  // pipeline, serial and threaded, and to its own threaded variant.
  const auto delta_trace =
      run_engine_trace(/*cache=*/true, /*threads=*/1, /*dynamic=*/true);
  EXPECT_EQ(delta_trace, run_engine_trace(false, 1, true));
  EXPECT_EQ(delta_trace, run_engine_trace(false, 4, true));
  EXPECT_EQ(delta_trace, run_engine_trace(true, 4, true));
}

TEST(DeltaInvalidation, StaticScenarioTraceUnchangedByDeltaKnob) {
  // No dynamics: every per-round delta is empty and apply_delta no-ops, so
  // the delta-invalidated engine's trace of a static scenario must equal
  // the uncached engine's.
  EXPECT_EQ(run_engine_trace(true, 1, /*dynamic=*/false),
            run_engine_trace(false, 1, /*dynamic=*/false));
}

}  // namespace
}  // namespace udwn
