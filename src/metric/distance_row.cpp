#include "metric/distance_row.h"

#if defined(__x86_64__) || defined(__i386__)
#define UDWN_DISTANCE_ROW_X86 1
#include <immintrin.h>
#endif

namespace udwn {

// The AVX2 kernel loads two points per 256-bit register.
static_assert(sizeof(Vec2) == 2 * sizeof(double));

void distance_row_scalar(Vec2 origin, std::span<const Vec2> pts, double* out) {
  for (std::size_t j = 0; j < pts.size(); ++j)
    out[j] = distance(origin, pts[j]);
}

#if defined(UDWN_DISTANCE_ROW_X86)

bool distance_row_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}

// Compiled for AVX2 via the target attribute (the translation unit keeps
// the baseline ISA; callers check distance_row_has_avx2 first). Each
// statement is one exact_hypot operation applied to four lanes; FMA is not
// enabled for this function, and the library's -ffp-contract=off keeps a
// -march=native build from fusing the vector multiply-adds either.
__attribute__((target("avx2"))) void distance_row_avx2(
    Vec2 origin, std::span<const Vec2> pts, double* out) {
  const __m256d ox = _mm256_set1_pd(origin.x);
  const __m256d oy = _mm256_set1_pd(origin.y);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d tiny = _mm256_set1_pd(hypot_limits::kTiny);
  const __m256d large = _mm256_set1_pd(hypot_limits::kLarge);
  const __m256d eps = _mm256_set1_pd(hypot_limits::kEps);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const double* xy = reinterpret_cast<const double*>(pts.data());
  const std::size_t n = pts.size();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d a = _mm256_loadu_pd(xy + 2 * j);      // x0 y0 x1 y1
    const __m256d b = _mm256_loadu_pd(xy + 2 * j + 4);  // x2 y2 x3 y3
    // Deinterleaved lanes come out in point order (0, 2, 1, 3); one
    // permute before the store restores it.
    const __m256d fx =
        _mm256_and_pd(_mm256_sub_pd(ox, _mm256_unpacklo_pd(a, b)), abs_mask);
    const __m256d fy =
        _mm256_and_pd(_mm256_sub_pd(oy, _mm256_unpackhi_pd(a, b)), abs_mask);
    // maxpd(s1, s2) is s1 > s2 ? s1 : s2, minpd(s1, s2) is s1 < s2 ? s1 : s2:
    // exactly the scalar `fx < fy ? fy : fx` and `fx < fy ? fx : fy`.
    const __m256d ax = _mm256_max_pd(fy, fx);
    const __m256d ay = _mm256_min_pd(fx, fy);
    const __m256d in_range = _mm256_and_pd(_mm256_cmp_pd(ax, large, _CMP_LE_OQ),
                                           _mm256_cmp_pd(ay, tiny, _CMP_GE_OQ));
    if (_mm256_movemask_pd(in_range) != 0xF) {
      distance_row_scalar(origin, pts.subspan(j, 4), out + j);
      continue;
    }
    const __m256d negligible =
        _mm256_cmp_pd(ay, _mm256_mul_pd(ax, eps), _CMP_LE_OQ);
    __m256d h = _mm256_sqrt_pd(
        _mm256_add_pd(_mm256_mul_pd(ax, ax), _mm256_mul_pd(ay, ay)));
    const __m256d close =
        _mm256_cmp_pd(h, _mm256_mul_pd(two, ay), _CMP_LE_OQ);
    // Both correction branches, selected per lane by the scalar condition.
    const __m256d dc = _mm256_sub_pd(h, ay);
    const __m256d t1c =
        _mm256_mul_pd(ax, _mm256_sub_pd(_mm256_mul_pd(two, dc), ax));
    const __m256d t2c = _mm256_mul_pd(
        _mm256_sub_pd(dc, _mm256_mul_pd(two, _mm256_sub_pd(ax, ay))), dc);
    const __m256d df = _mm256_sub_pd(h, ax);
    const __m256d t1f = _mm256_mul_pd(
        _mm256_mul_pd(two, df), _mm256_sub_pd(ax, _mm256_mul_pd(two, ay)));
    const __m256d t2f = _mm256_add_pd(
        _mm256_mul_pd(_mm256_sub_pd(_mm256_mul_pd(four, df), ay), ay),
        _mm256_mul_pd(df, df));
    const __m256d t1 = _mm256_blendv_pd(t1f, t1c, close);
    const __m256d t2 = _mm256_blendv_pd(t2f, t2c, close);
    h = _mm256_sub_pd(
        h, _mm256_div_pd(_mm256_add_pd(t1, t2), _mm256_mul_pd(two, h)));
    const __m256d r = _mm256_blendv_pd(h, _mm256_add_pd(ax, ay), negligible);
    _mm256_storeu_pd(out + j, _mm256_permute4x64_pd(r, 0xD8));
  }
  distance_row_scalar(origin, pts.subspan(j), out + j);
}

#else  // !UDWN_DISTANCE_ROW_X86

bool distance_row_has_avx2() { return false; }

void distance_row_avx2(Vec2 origin, std::span<const Vec2> pts, double* out) {
  distance_row_scalar(origin, pts, out);
}

#endif  // UDWN_DISTANCE_ROW_X86

void distance_row(Vec2 origin, std::span<const Vec2> pts, double* out) {
  if (distance_row_has_avx2()) {
    distance_row_avx2(origin, pts, out);
  } else {
    distance_row_scalar(origin, pts, out);
  }
}

}  // namespace udwn
