#include "metric/euclidean.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "metric/distance_row.h"
#include "metric/geometry.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2}, b{3, -1};
  EXPECT_EQ((a + b), (Vec2{4, 1}));
  EXPECT_EQ((a - b), (Vec2{-2, 3}));
  EXPECT_EQ((a * 2.0), (Vec2{2, 4}));
  EXPECT_EQ((2.0 * a), (Vec2{2, 4}));
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm(), 5.0);
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm2(), 25.0);
}

TEST(EuclideanMetric, IdentityOfIndiscernibles) {
  EuclideanMetric m({{0, 0}, {1, 1}});
  EXPECT_DOUBLE_EQ(m.distance(NodeId(0), NodeId(0)), 0.0);
  EXPECT_GT(m.distance(NodeId(0), NodeId(1)), 0.0);
}

TEST(EuclideanMetric, CoLocatedDistinctPointsHaveZeroDistance) {
  // Two distinct nodes can share a position; the metric reports 0 and the
  // path-loss near-field clamp keeps the physics finite.
  EuclideanMetric m({{2, 3}, {2, 3}});
  EXPECT_DOUBLE_EQ(m.distance(NodeId(0), NodeId(1)), 0.0);
}

TEST(EuclideanMetric, Symmetry) {
  EuclideanMetric m({{0, 0}, {3, 4}, {-1, 2}});
  for (std::uint32_t i = 0; i < 3; ++i)
    for (std::uint32_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(m.distance(NodeId(i), NodeId(j)),
                       m.distance(NodeId(j), NodeId(i)));
}

TEST(EuclideanMetric, TriangleInequality) {
  Rng rng(3);
  EuclideanMetric m(test::random_points(20, 10.0, 3));
  for (std::uint32_t a = 0; a < 20; ++a)
    for (std::uint32_t b = 0; b < 20; ++b)
      for (std::uint32_t c = 0; c < 20; ++c)
        EXPECT_LE(m.distance(NodeId(a), NodeId(b)),
                  m.distance(NodeId(a), NodeId(c)) +
                      m.distance(NodeId(c), NodeId(b)) + 1e-12);
}

TEST(EuclideanMetric, KnownDistance) {
  EuclideanMetric m({{0, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(m.distance(NodeId(0), NodeId(1)), 5.0);
  EXPECT_DOUBLE_EQ(m.sym_distance(NodeId(0), NodeId(1)), 5.0);
}

TEST(EuclideanMetric, SetPositionMovesNode) {
  EuclideanMetric m({{0, 0}, {1, 0}});
  m.set_position(NodeId(1), {10, 0});
  EXPECT_DOUBLE_EQ(m.distance(NodeId(0), NodeId(1)), 10.0);
  EXPECT_EQ(m.position(NodeId(1)), (Vec2{10, 0}));
}

TEST(EuclideanMetric, AddPointExtends) {
  EuclideanMetric m({{0, 0}});
  const NodeId id = m.add_point({0, 2});
  EXPECT_EQ(id, NodeId(1));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.distance(NodeId(0), id), 2.0);
}

// ---------------------------------------------------------------------------
// exact_hypot: the single Euclidean distance definition (geometry.h).

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// Bitwise equality, with every NaN equal to every other NaN.
bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || bits_of(a) == bits_of(b);
}

// exact_hypot reproduces glibc's dbl-64 __hypot (glibc >= 2.35, non-FMA
// build), so the equivalence to std::hypot is a property of x86-64 glibc
// hosts; elsewhere exact_hypot is still the one definition every path uses.
bool libm_is_reference() {
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 35))
  return true;
#else
  return false;
#endif
}

void expect_matches_libm(double x, double y) {
  const double got = exact_hypot(x, y);
  const double want = std::hypot(x, y);
  EXPECT_TRUE(same_bits(got, want))
      << std::hexfloat << "exact_hypot(" << x << ", " << y << ") = " << got
      << ", std::hypot = " << want;
}

TEST(ExactHypot, MatchesLibmOnRandomPairs) {
  if (!libm_is_reference()) GTEST_SKIP() << "libm is not x86-64 glibc >= 2.35";
  Rng rng(0x4879);
  std::uint64_t mismatches = 0;
  const auto check = [&](double x, double y) {
    if (!same_bits(exact_hypot(x, y), std::hypot(x, y))) {
      if (mismatches++ < 8) expect_matches_libm(x, y);
    }
  };
  // Coordinate differences of uniform points at several deployment scales.
  constexpr std::size_t kPairs = 10'000'000;
  const double scales[] = {1e-3, 1.0, 64.0, 1e6};
  for (std::size_t i = 0; i < kPairs; ++i) {
    const double s = scales[i % 4];
    check(rng.uniform(-s, s) - rng.uniform(-s, s),
          rng.uniform(-s, s) - rng.uniform(-s, s));
  }
  // Log-uniform magnitudes across (and beyond) the inline range, random
  // signs: exercises the ordering, the ay <= ax·2^-54 shortcut, both
  // correction branches and the deferred scaling paths.
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    const double x = std::ldexp(rng.uniform(0.5, 1.0),
                                static_cast<int>(rng.below(1100)) - 550);
    const double y = std::ldexp(rng.uniform(0.5, 1.0),
                                static_cast<int>(rng.below(1100)) - 550);
    check(rng.below(2) ? x : -x, rng.below(2) ? -y : y);
  }
  // Both magnitudes within a factor 2^8 of the limits, where intermediate
  // products would leave the normal range without the deferral.
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    const int e = (i % 2 ? 511 : -459) + static_cast<int>(rng.below(17)) - 8;
    const double x = std::ldexp(rng.uniform(0.5, 1.0), e);
    const double y = std::ldexp(rng.uniform(0.5, 1.0),
                                e - static_cast<int>(rng.below(8)));
    check(x, y);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ExactHypot, MatchesLibmOnEdgeCases) {
  if (!libm_is_reference()) GTEST_SKIP() << "libm is not x86-64 glibc >= 2.35";
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 3.0, 4.0, inf, -inf};
  values.insert(values.end(), {nan, sub, -sub, DBL_MIN, DBL_MIN / 2});
  values.insert(values.end(), {DBL_MAX, -DBL_MAX, 0x1p-1022});
  // The inline-range limits 2^-459 and 2^511, 2^-511, and their neighbours.
  for (const double edge : {0x1p-459, 0x1p511, 0x1p-511}) {
    values.push_back(edge);
    double lo = edge;
    double hi = edge;
    for (int k = 0; k < 4; ++k) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, inf);
      values.push_back(lo);
      values.push_back(hi);
    }
  }
  for (const double x : values)
    for (const double y : values) expect_matches_libm(x, y);

  // |x| == |y| at many magnitudes, every sign combination.
  for (int e = -520; e <= 520; e += 7) {
    const double v = std::ldexp(1.37, e);
    expect_matches_libm(v, v);
    expect_matches_libm(-v, v);
    expect_matches_libm(v, -v);
  }

  // Ratios around 2^-54 (the ax + ay shortcut boundary), a few ulps apart.
  for (const double ax : {1.0, 1.5, 3.0, 0x1p100, 0x1p-300}) {
    double ay = ax * 0x1p-54;
    for (int k = 0; k < 8; ++k) ay = std::nextafter(ay, 0.0);
    for (int k = 0; k < 16; ++k, ay = std::nextafter(ay, 1.0)) {
      expect_matches_libm(ax, ay);
      expect_matches_libm(-ay, ax);
    }
  }

  // The h == 2·ay branch boundary: ax ≈ √3·ay. Walk ulps around it and
  // require both correction branches — and the exact tie — to be seen.
  int below = 0;
  int tie = 0;
  int above = 0;
  Rng rng(0x7e5);
  for (int i = 0; i < 20000; ++i) {
    const double ay = std::ldexp(rng.uniform(1.0, 2.0),
                                 static_cast<int>(rng.below(200)) - 100);
    double ax = std::sqrt(3.0) * ay;
    for (int k = 0; k < 4; ++k) ax = std::nextafter(ax, 0.0);
    for (int k = 0; k < 8; ++k, ax = std::nextafter(ax, inf)) {
      const double h = std::sqrt(ax * ax + ay * ay);
      if (h < 2.0 * ay) {
        ++below;
      } else if (h > 2.0 * ay) {
        ++above;
      } else {
        ++tie;
      }
      expect_matches_libm(ax, ay);
      expect_matches_libm(ay, -ax);
    }
  }
  EXPECT_GT(below, 0);
  EXPECT_GT(tie, 0);
  EXPECT_GT(above, 0);
}

TEST(ExactHypot, IsTheDistanceEveryPathUses) {
  const Vec2 a{0.25, -7.5};
  const Vec2 b{3.125, 1.0};
  EXPECT_EQ(bits_of(distance(a, b)),
            bits_of(exact_hypot(a.x - b.x, a.y - b.y)));
  EXPECT_EQ(bits_of((a - b).norm()), bits_of(distance(a, b)));
  EuclideanMetric m({a, b});
  EXPECT_EQ(bits_of(m.distance(NodeId(0), NodeId(1))), bits_of(distance(a, b)));
  EXPECT_EQ(exact_hypot(3.0, 4.0), 5.0);
  EXPECT_EQ(exact_hypot(-0.0, 0.0), 0.0);
  EXPECT_FALSE(std::signbit(exact_hypot(-0.0, -0.0)));
}

// ---------------------------------------------------------------------------
// Distance-row kernels (distance_row.h): the AVX2 kernel must match the
// scalar kernel, and both must match udwn::distance, bit for bit.

void expect_row_exact(Vec2 origin, std::span<const Vec2> pts,
                      const char* what) {
  std::vector<double> scalar(pts.size() + 1, -1.0);
  std::vector<double> batch(pts.size() + 1, -1.0);
  std::vector<double> dispatched(pts.size() + 1, -1.0);
  distance_row_scalar(origin, pts, scalar.data());
  distance_row_avx2(origin, pts, batch.data());
  distance_row(origin, pts, dispatched.data());
  for (std::size_t j = 0; j < pts.size(); ++j) {
    const double want = distance(origin, pts[j]);
    ASSERT_TRUE(same_bits(scalar[j], want)) << what << " scalar j=" << j;
    ASSERT_TRUE(same_bits(batch[j], want)) << what << " avx2 j=" << j;
    ASSERT_TRUE(same_bits(dispatched[j], want)) << what << " dispatch j=" << j;
  }
  // Nothing is written past the row.
  EXPECT_EQ(scalar.back(), -1.0);
  EXPECT_EQ(batch.back(), -1.0);
  EXPECT_EQ(dispatched.back(), -1.0);
}

TEST(DistanceRow, BatchMatchesScalarOnRaggedTailsAndUnalignedBegins) {
  if (!distance_row_has_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  const std::vector<Vec2> pts = test::random_points(96, 40.0, 0xd157);
  const Vec2 origin = pts[17];
  for (std::size_t begin = 0; begin < 8; ++begin)
    for (std::size_t count = 0; begin + count <= 40; ++count)
      expect_row_exact(origin, std::span(pts).subspan(begin, count),
                       "random");
  // Long rows at several scales, origins inside and outside the hull.
  Rng rng(0xd158);
  for (const double extent : {1e-4, 1.0, 512.0, 1e7}) {
    const std::vector<Vec2> many = test::random_points(4099, extent, 0xd159);
    expect_row_exact(many[4098], many, "long");
    expect_row_exact({rng.uniform(-extent, 0.0), extent * 3}, many, "outside");
  }
}

TEST(DistanceRow, OutOfRangeLanesAtEveryLanePosition) {
  if (!distance_row_has_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Offsets (relative to the origin at 0) that move a lane off the inline
  // path or onto one of its boundaries: co-located, shared x or y,
  // subnormal and tiny components, huge and non-finite coordinates,
  // |dx| == |dy|, and ratios just either side of 2^-54.
  const std::vector<Vec2> specials = {
      {0.0, 0.0},       {0.0, 7.0},     {-3.0, 0.0},
      {0x1p-1070, 1.0}, {0x1p-470, 0.5}, {0x1p-459, 0x1p-459},
      {0x1p600, 1.0},   {1.0, -0x1p520}, {0x1p511, 0x1p511},
      {inf, 0.0},       {0.0, -inf},    {nan, 1.0},
      {3.0, -3.0},      {1.0, 0x1p-54}, {1.0, 0x1p-53}};
  const std::vector<Vec2> base = test::random_points(13, 10.0, 0xd15a);
  for (const Vec2 special : specials)
    for (std::size_t lane = 0; lane < base.size(); ++lane) {
      std::vector<Vec2> pts = base;
      pts[lane] = special;
      for (std::size_t begin = 0; begin < 4; ++begin)
        expect_row_exact({0.0, 0.0}, std::span(pts).subspan(begin),
                         "special");
    }
}

}  // namespace
}  // namespace udwn
