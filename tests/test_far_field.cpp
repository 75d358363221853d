// Tests for the certified far-field approximation (phy/far_field.h): the
// derived certificate must hold — |approx − exact| <= ε · exact per
// listener — over randomized instances, parameter sweeps, churn + mobility
// epochs, and every thread count; the approximate field itself must be
// self-deterministic (bitwise) across thread counts. Parameter derivation
// edge cases (infeasible ε, near-limit clamp, ζ < 1) must refuse with
// nullopt so the pipeline falls back to the exact kernels. The field must
// also equal a plain O(n·|S|) evaluation of the approximation's definition
// bit for bit.
#include "phy/far_field.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "metric/euclidean.h"
#include "phy/channel.h"
#include "phy/interference.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

std::vector<NodeId> sample_ids(std::size_t n, double p, Rng& rng) {
  std::vector<NodeId> txs;
  for (std::uint32_t v = 0; v < n; ++v)
    if (rng.chance(p)) txs.push_back(NodeId(v));
  return txs;
}

void expect_certified(const std::vector<double>& exact,
                      const std::vector<double>& approx, double eps,
                      const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(exact.size(), approx.size());
  for (std::size_t v = 0; v < exact.size(); ++v) {
    // ε is a relative bound; the tiny absolute slack only absorbs the
    // final-summation rounding of two different association orders.
    const double slack = eps * exact[v] + 1e-12 * (1.0 + exact[v]);
    EXPECT_LE(std::abs(approx[v] - exact[v]), slack)
        << "node " << v << " exact=" << exact[v] << " approx=" << approx[v];
  }
}

TEST(FarFieldParams, DerivesCertificateFromEpsilon) {
  const PathLoss pl(1.0, 3.0, 1e-3);
  const double cell = 0.5;
  const auto params = far_field_params(0.2, cell, pl);
  ASSERT_TRUE(params.has_value());
  EXPECT_DOUBLE_EQ(params->eps, 0.2);
  EXPECT_DOUBLE_EQ(params->cell, cell);
  // β = (1+ε)^(1/ζ) − 1, ρ = δ/β with δ = cell·√2.
  const double beta = std::pow(1.2, 1.0 / 3.0) - 1.0;
  EXPECT_NEAR(params->rho, cell * std::sqrt(2.0) / beta, 1e-12);
  // The certificate only aggregates pairs strictly past the near-limit
  // clamp, so every aggregated term is on the pure power-law branch.
  EXPECT_GT(params->rho - cell * std::sqrt(2.0), pl.near_limit());
}

TEST(FarFieldParams, RefusesInfeasibleCombinations) {
  const PathLoss pl(1.0, 3.0, 1e-3);
  // ε so large that β >= 1: ρ <= δ, aggregation cannot clear the cell
  // diagonal.
  EXPECT_FALSE(far_field_params(10.0, 0.5, pl).has_value());
  // ζ < 1 breaks the convexity step of the low-side bound.
  EXPECT_FALSE(far_field_params(0.2, 0.5, PathLoss(1.0, 0.5, 1e-3)));
  // Degenerate knobs.
  EXPECT_FALSE(far_field_params(0.0, 0.5, pl).has_value());
  EXPECT_FALSE(far_field_params(0.2, 0.0, pl).has_value());
  // Near-limit so coarse that ρ − δ cannot clear it at this cell size.
  EXPECT_FALSE(far_field_params(0.5, 0.01, PathLoss(1.0, 3.0, 10.0)));
}

TEST(FarField, CertifiedOnRandomizedInstances) {
  FarFieldWorkspace workspace;
  std::vector<double> exact;
  std::vector<double> approx;
  int certified_runs = 0;
  for (const std::size_t n : {std::size_t{64}, std::size_t{300},
                              std::size_t{1000}}) {
    // Extent ~ √(n/8): constant density, growing diameter — the regime the
    // approximation exists for.
    const double extent = std::sqrt(static_cast<double>(n) / 8.0);
    EuclideanMetric metric(test::random_points(n, extent, 9000 + n));
    const PathLoss pl(1.0, 3.0, 1e-3);
    Rng rng(17 + n);
    for (const double eps : {0.05, 0.2, 0.5}) {
      // cell = 0.3: at ε = 0.5 the separation radius ρ ≈ 2.9 sits well
      // inside the larger extents, so the far aggregation genuinely fires
      // (smaller ε pushes ρ out and degenerates to the exact near sweep —
      // still a valid certification run).
      const auto params = far_field_params(eps, 0.3, pl);
      ASSERT_TRUE(params.has_value()) << "eps=" << eps;
      for (int trial = 0; trial < 3; ++trial) {
        const auto txs = sample_ids(n, 0.3, rng);
        interference_field_into(metric, pl, txs, exact, nullptr);
        if (!workspace.field_into(metric, pl, txs, *params, approx, nullptr))
          continue;  // layout defeated aggregation: exact fallback path
        ++certified_runs;
        expect_certified(exact, approx, eps, "randomized");
      }
    }
  }
  // The sweep must actually exercise the certificate, not fall back
  // everywhere.
  EXPECT_GE(certified_runs, 10);
}

TEST(FarField, BitwiseSelfDeterministicAcrossThreadCounts) {
  const std::size_t n = 500;
  const double extent = std::sqrt(n / 8.0);
  EuclideanMetric metric(test::random_points(n, extent, 9400));
  const PathLoss pl(2.0, 2.5, 1e-3);
  // ρ ≈ 2.3 at ζ = 2.5 — far smaller than the ~7.9 extent, so cross-cell
  // aggregation carries most of every listener's sum.
  const auto params = far_field_params(0.5, 0.3, pl);
  ASSERT_TRUE(params.has_value());
  Rng rng(5);
  const auto txs = sample_ids(n, 0.4, rng);

  FarFieldWorkspace serial_ws;
  std::vector<double> serial;
  ASSERT_TRUE(serial_ws.field_into(metric, pl, txs, *params, serial, nullptr));

  for (const int threads : {2, 3, 5}) {
    TaskPool pool(threads);
    FarFieldWorkspace pooled_ws;
    std::vector<double> pooled;
    ASSERT_TRUE(
        pooled_ws.field_into(metric, pl, txs, *params, pooled, &pool));
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t v = 0; v < n; ++v)
      EXPECT_EQ(serial[v], pooled[v])  // bitwise, not NEAR
          << "threads=" << threads << " node " << v;
  }

  // Reusing one workspace (warm scratch capacity) must not change a bit.
  std::vector<double> repeat;
  ASSERT_TRUE(serial_ws.field_into(metric, pl, txs, *params, repeat, nullptr));
  for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(serial[v], repeat[v]);
}

// Plain O(n·|S|) evaluation of the approximation's definition
// (phy/far_field.h), independent of the library's data structures: the
// bounding-box cell grid of side S, then per listener the far terms
// count · signal(d_cc) over transmitter cells with d_cc >= ρ in ascending
// cell key, then the exact near terms in (cell key, slot) order, self
// excluded. `far_terms` counts the aggregated (listener, cell) terms so a
// caller can check the far path actually fired.
std::vector<double> reference_far_field(const std::vector<Vec2>& pts,
                                        const PathLoss& pl,
                                        const std::vector<NodeId>& txs,
                                        const FarFieldParams& params,
                                        std::size_t* far_terms) {
  const double cell = params.cell;
  double x0 = pts[0].x, x1 = pts[0].x, y0 = pts[0].y, y1 = pts[0].y;
  for (const Vec2 p : pts) {
    x0 = std::min(x0, p.x);
    x1 = std::max(x1, p.x);
    y0 = std::min(y0, p.y);
    y1 = std::max(y1, p.y);
  }
  const auto ncx = static_cast<std::size_t>((x1 - x0) / cell) + 1;
  const auto ncy = static_cast<std::size_t>((y1 - y0) / cell) + 1;
  const auto cell_of = [&](Vec2 p) {
    const auto cx = static_cast<std::size_t>((p.x - x0) / cell);
    const auto cy = static_cast<std::size_t>((p.y - y0) / cell);
    return std::min(cx, ncx - 1) * ncy + std::min(cy, ncy - 1);
  };
  // Cell key -> transmitters in slot order (std::map iterates ascending).
  std::map<std::size_t, std::vector<std::uint32_t>> by_cell;
  for (const NodeId u : txs) by_cell[cell_of(pts[u.value])].push_back(u.value);

  const auto center_distance = [&](std::size_t a, std::size_t b) {
    const std::size_t ax = a / ncy, ay = a % ncy, bx = b / ncy, by = b % ncy;
    const double dx = static_cast<double>(ax > bx ? ax - bx : bx - ax) * cell;
    const double dy = static_cast<double>(ay > by ? ay - by : by - ay) * cell;
    return std::sqrt(dx * dx + dy * dy);
  };
  std::vector<double> field(pts.size());
  *far_terms = 0;
  for (std::uint32_t v = 0; v < pts.size(); ++v) {
    const std::size_t c = cell_of(pts[v]);
    double acc = 0;
    for (const auto& [key, members] : by_cell) {
      const double d = center_distance(c, key);
      if (d < params.rho) continue;
      acc += static_cast<double>(members.size()) * pl.signal(d);
      ++*far_terms;
    }
    for (const auto& [key, members] : by_cell) {
      if (center_distance(c, key) >= params.rho) continue;
      for (const std::uint32_t u : members)
        if (u != v) acc += pl.signal(distance(pts[u], pts[v]));
    }
    field[v] = acc;
  }
  return field;
}

// Clustered layout: `clusters` tight blobs, so most occupied cells hold
// several transmitters.
std::vector<Vec2> clustered_points(std::size_t n, double extent,
                                   std::size_t clusters, double spread,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> centers;
  for (std::size_t k = 0; k < clusters; ++k)
    centers.push_back({rng.uniform(0, extent), rng.uniform(0, extent)});
  std::vector<Vec2> pts;
  for (std::size_t v = 0; v < n; ++v) {
    const Vec2 c = centers[v % clusters];
    pts.push_back({c.x + rng.uniform(-spread, spread),
                   c.y + rng.uniform(-spread, spread)});
  }
  return pts;
}

TEST(FarField, MatchesDefinitionBitForBit) {
  // ρ ≈ 2.9 at ζ = 3 and ≈ 2.3 at ζ = 2.5 with S = 0.3: well inside every
  // layout below, so both the aggregation and the near sweep carry terms.
  struct Case {
    const char* label;
    std::vector<Vec2> pts;
    PathLoss pl;
  };
  std::vector<Case> cases;
  cases.push_back({"uniform", test::random_points(900, 10.5, 9800),
                   PathLoss(1.0, 3.0, 1e-3)});
  cases.push_back({"clustered", clustered_points(700, 11.0, 9, 0.4, 9801),
                   PathLoss(1.0, 3.0, 1e-3)});
  {
    // Extent an exact multiple of S: the nodes on x = 7.2 and y = 7.2 sit
    // alone in the last grid row and column.
    std::vector<Vec2> pts = test::random_points(500, 7.2, 9802);
    for (int k = 0; k <= 24; ++k) {
      const double t = 0.3 * k;
      pts.push_back({7.2, t});
      pts.push_back({t, 7.2});
    }
    cases.push_back({"clamped edges", std::move(pts),
                     PathLoss(1.0, 3.0, 1e-3)});
  }
  {
    // ncx != ncy: a 14 × 4 strip.
    Rng rng(9803);
    std::vector<Vec2> pts;
    for (int v = 0; v < 600; ++v)
      pts.push_back({rng.uniform(0, 14.0), rng.uniform(0, 4.0)});
    cases.push_back({"strip", std::move(pts), PathLoss(1.0, 3.0, 1e-3)});
  }
  cases.push_back({"power-scaled", test::random_points(800, 10.0, 9804),
                   PathLoss(0.04, 2.5, 1e-3)});

  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.label);
    const auto params = far_field_params(0.5, 0.3, tc.pl);
    ASSERT_TRUE(params.has_value());
    const EuclideanMetric metric(tc.pts);
    Rng rng(41);
    const auto txs = sample_ids(tc.pts.size(), 0.3, rng);
    std::size_t far_terms = 0;
    const std::vector<double> want =
        reference_far_field(tc.pts, tc.pl, txs, *params, &far_terms);
    EXPECT_GT(far_terms, tc.pts.size());  // the aggregation really fires
    for (const int threads : {1, 2, 3, 5}) {
      TaskPool pool(threads);
      FarFieldWorkspace ws;
      std::vector<double> got;
      ASSERT_TRUE(ws.field_into(metric, tc.pl, txs, *params, got,
                                threads == 1 ? nullptr : &pool));
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t v = 0; v < want.size(); ++v)
        EXPECT_EQ(got[v], want[v])  // bitwise, not NEAR
            << "threads=" << threads << " node " << v;
    }
  }

  // One workspace reused while the instance grows, then shrinks: stale
  // scratch from a larger slot must not leak into a smaller one.
  const PathLoss pl(1.0, 3.0, 1e-3);
  const auto params = far_field_params(0.5, 0.3, pl);
  ASSERT_TRUE(params.has_value());
  TaskPool pool(3);
  FarFieldWorkspace ws;
  for (const std::size_t n : {std::size_t{300}, std::size_t{1500},
                              std::size_t{200}}) {
    const auto pts = test::random_points(
        n, std::sqrt(static_cast<double>(n) / 8.0), 9900 + n);
    const EuclideanMetric metric(pts);
    Rng rng(43 + n);
    const auto txs = sample_ids(n, 0.3, rng);
    std::size_t far_terms = 0;
    const auto want = reference_far_field(pts, pl, txs, *params, &far_terms);
    std::vector<double> got;
    ASSERT_TRUE(ws.field_into(metric, pl, txs, *params, got, &pool));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < n; ++v)
      EXPECT_EQ(got[v], want[v]) << "n=" << n << " node " << v;
  }
}

TEST(FarField, PipelineFieldCertifiedUnderChurnAndMobility) {
  // Engine-facing path: resolve_into with far_field_eps > 0 approximates
  // only the interference field; certify it against resolve()'s exact
  // field every round while churn kills/revives nodes and mobility moves
  // them (epoch bumps re-derive the cell structure from scratch).
  const double eps = 0.4;
  constexpr std::size_t kNodes = 400;
  Scenario scenario(test::random_points(kNodes, 7.0, 9500),
                    test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  EuclideanMetric& metric = *scenario.euclidean();
  // cell_factor 0.25 shrinks the aggregation cells so ρ lands inside the
  // 7×7 extent and the far path actually engages at this size.
  SlotWorkspace ws(SlotWorkspaceConfig{.far_field_eps = eps,
                                       .far_field_cell_factor = 0.25,
                                       .threads = 3});
  Rng rng(23);

  int certified_rounds = 0;
  for (int round = 0; round < 12; ++round) {
    // Churn: toggle a random node (never below 2 alive).
    const NodeId victim(static_cast<std::uint32_t>(rng.below(kNodes)));
    if (network.alive_count() > 2 || !network.alive(victim))
      network.set_alive(victim, !network.alive(victim));
    // Mobility: nudge a random node.
    const NodeId mover(static_cast<std::uint32_t>(rng.below(kNodes)));
    const Vec2 p = metric.position(mover);
    metric.set_position(
        mover, {p.x + rng.uniform(-0.1, 0.1), p.y + rng.uniform(-0.1, 0.1)});
    std::vector<NodeId> txs;
    for (std::uint32_t v = 0; v < network.size(); ++v)
      if (network.alive(NodeId(v)) && rng.chance(0.3))
        txs.push_back(NodeId(v));

    const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), 1.0);
    const SlotOutcome& got = channel.resolve_into(
        txs, network.alive_mask(), 1.0, network.topology_epoch(), ws);
    ASSERT_EQ(ref.interference.size(), got.interference.size());
    bool any_diff = false;
    for (std::size_t v = 0; v < ref.interference.size(); ++v)
      any_diff |= got.interference[v] != ref.interference[v];
    if (any_diff) ++certified_rounds;  // approximation actually engaged
    expect_certified(ref.interference, got.interference, eps, "pipeline");
  }
  // At n = 120 with these knobs the approximate path must engage (if the
  // guard rejected every round this test would silently check nothing).
  EXPECT_GE(certified_rounds, 1);
}

TEST(FarField, PowerScaledSlotsStayCertified) {
  // The App. B power-control trick scales every transmitter uniformly; the
  // far-field path must certify against the equally scaled exact field.
  const double eps = 0.3;
  Scenario scenario(test::random_points(150, 4.5, 9600),
                    test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  SlotWorkspace ws(SlotWorkspaceConfig{.far_field_eps = eps,
                                       .far_field_cell_factor = 0.25});
  Rng rng(31);
  for (const double scale : {1.0, 0.3, 0.04}) {
    const auto txs = sample_ids(network.size(), 0.3, rng);
    const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), scale);
    const SlotOutcome& got = channel.resolve_into(
        txs, network.alive_mask(), scale, network.topology_epoch(), ws);
    expect_certified(ref.interference, got.interference, eps, "scaled");
  }
}

TEST(FarField, WorkspaceLeavesGainTableMetadataUnallocated) {
  // The far field bypasses the gain table, so the table's per-tile
  // metadata (12 B per logical tile, sized by the first plan) must stay
  // unallocated across slots and per-round deltas. Any slot that fell back
  // to the exact kernels would size it, so this also pins that the far
  // path engaged every time.
  constexpr std::size_t kNodes = 400;
  Scenario scenario(test::random_points(kNodes, 7.0, 9800),
                    test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  EuclideanMetric& metric = *scenario.euclidean();
  network.set_track_changes(true);
  SlotWorkspace ws(SlotWorkspaceConfig{.far_field_eps = 0.4,
                                       .far_field_cell_factor = 0.25,
                                       .threads = 2});
  Rng rng(43);
  for (int slot = 0; slot < 8; ++slot) {
    const NodeId mover(static_cast<std::uint32_t>(rng.below(kNodes)));
    const Vec2 p = metric.position(mover);
    metric.set_position(
        mover, {p.x + rng.uniform(-0.1, 0.1), p.y + rng.uniform(-0.1, 0.1)});
    ws.cache().apply_delta(network.collect_delta());
    const auto txs = sample_ids(kNodes, 0.25, rng);
    (void)channel.resolve_into(txs, network.alive_mask(), 1.0,
                               network.topology_epoch(), ws);
  }
  const GainTable* gains = ws.cache().gains();
  ASSERT_NE(gains, nullptr);  // the budget admits rows at this n
  EXPECT_FALSE(gains->materialized());

  // The exact pipeline on the same instance sizes it on its first slot.
  SlotWorkspace exact;
  (void)channel.resolve_into(sample_ids(kNodes, 0.25, rng),
                             network.alive_mask(), 1.0,
                             network.topology_epoch(), exact);
  ASSERT_NE(exact.cache().gains(), nullptr);
  EXPECT_TRUE(exact.cache().gains()->materialized());
}

TEST(FarField, ExactConfigurationIsUntouchedByDefault) {
  // far_field_eps = 0 (the default) must leave the pipeline bit-identical
  // to the reference — the approximation is strictly opt-in.
  Scenario scenario(test::random_points(80, 4.0, 9700),
                    test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  SlotWorkspace ws;
  EXPECT_EQ(ws.config().far_field_eps, 0.0);
  Rng rng(37);
  const auto txs = sample_ids(network.size(), 0.25, rng);
  const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), 1.0);
  const SlotOutcome& got = channel.resolve_into(
      txs, network.alive_mask(), 1.0, network.topology_epoch(), ws);
  for (std::size_t v = 0; v < ref.interference.size(); ++v)
    EXPECT_EQ(ref.interference[v], got.interference[v]) << "node " << v;
}

}  // namespace
}  // namespace udwn
