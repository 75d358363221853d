// Plane geometry primitives for Euclidean instances.
#pragma once

#include <cmath>

namespace udwn {

// exact_hypot's inline range and shortcut ratio (glibc's LARGE_VAL,
// TINY_VAL and EPS), shared with the AVX2 distance row.
namespace hypot_limits {
inline constexpr double kTiny = 0x1p-459;
inline constexpr double kLarge = 0x1p511;
inline constexpr double kEps = 0x1p-54;
}  // namespace hypot_limits

/// Euclidean norm sqrt(x² + y²), the single definition of distance in the
/// plane: Vec2::norm, udwn::distance, EuclideanMetric::distance and the
/// batched gain-tile fill (metric/distance_row.h) all evaluate it, so the
/// reference and the cached pipeline agree bit for bit by construction.
///
/// On operands whose larger magnitude is at most 2^511 and whose smaller is
/// at least 2^-459 it performs the IEEE-754 operation sequence of glibc's
/// dbl-64 __hypot (non-FMA build): order the magnitudes, return ax + ay when
/// ay <= ax·2^-54, otherwise round sqrt(ax² + ay²) and apply Borges'
/// one-step correction ("An improved algorithm for hypot(a, b)", 2019).
/// Within those limits no intermediate overflows or goes subnormal. Every
/// other input — zeros, subnormals, tiny or huge values, inf, NaN — defers
/// to std::hypot, whose scaling paths are rare and not worth duplicating.
/// The library builds with -ffp-contract=off so `ax * ax + ay * ay` never
/// fuses into an FMA (src/CMakeLists.txt).
[[nodiscard]] inline double exact_hypot(double x, double y) {
  const double fx = std::fabs(x);
  const double fy = std::fabs(y);
  const double ax = fx < fy ? fy : fx;
  const double ay = fx < fy ? fx : fy;
  if (!(ax <= hypot_limits::kLarge && ay >= hypot_limits::kTiny))
    return std::hypot(x, y);
  if (ay <= ax * hypot_limits::kEps) return ax + ay;
  double h = std::sqrt(ax * ax + ay * ay);
  double t1 = 0;
  double t2 = 0;
  if (h <= 2.0 * ay) {
    const double delta = h - ay;
    t1 = ax * (2.0 * delta - ax);
    t2 = (delta - 2.0 * (ax - ay)) * delta;
  } else {
    const double delta = h - ax;
    t1 = 2.0 * delta * (ax - 2.0 * ay);
    t2 = (4.0 * delta - ay) * ay + delta * delta;
  }
  h -= (t1 + t2) / (2.0 * h);
  return h;
}

struct Vec2 {
  double x = 0;
  double y = 0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) {
    return {a.x + b.x, a.y + b.y};
  }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr Vec2 operator*(Vec2 a, double s) {
    return {a.x * s, a.y * s};
  }
  friend constexpr Vec2 operator*(double s, Vec2 a) { return a * s; }
  friend constexpr bool operator==(Vec2, Vec2) = default;

  [[nodiscard]] double norm() const { return exact_hypot(x, y); }
  [[nodiscard]] constexpr double norm2() const { return x * x + y * y; }
};

inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }

}  // namespace udwn
