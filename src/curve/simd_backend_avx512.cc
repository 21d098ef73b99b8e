// AVX-512F backend: 8 rows per __m512d lane-for-lane with the scalar
// reference. Same contract and structure as the AVX2 backend (see
// simd_backend_avx2.cc): explicit mul/add only, -ffp-contract=off, the
// sub-register row remainder runs the shared scalar reference loops.
#include "curve/simd_backend.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <cmath>

#include "curve/simd_backend_ref.h"

namespace rpc::curve {
namespace {

void TileSquaredDistancesFused(const double* tile, int lane_stride, int d,
                               int rows, const double* f, double* dist) {
  int r = 0;
  for (; r + 8 <= rows; r += 8) {
    const double* base = tile + r;
    __m512d lane0 = _mm512_setzero_pd();
    __m512d lane1 = _mm512_setzero_pd();
    __m512d lane2 = _mm512_setzero_pd();
    __m512d lane3 = _mm512_setzero_pd();
    __m512d tail = _mm512_setzero_pd();
    int j = 0;
    for (; j + 4 <= d; j += 4) {
      const double* lane = base + static_cast<size_t>(j) * lane_stride;
      const __m512d e0 = _mm512_sub_pd(_mm512_loadu_pd(lane),
                                       _mm512_set1_pd(f[j]));
      const __m512d e1 = _mm512_sub_pd(
          _mm512_loadu_pd(lane + 1 * static_cast<size_t>(lane_stride)),
          _mm512_set1_pd(f[j + 1]));
      const __m512d e2 = _mm512_sub_pd(
          _mm512_loadu_pd(lane + 2 * static_cast<size_t>(lane_stride)),
          _mm512_set1_pd(f[j + 2]));
      const __m512d e3 = _mm512_sub_pd(
          _mm512_loadu_pd(lane + 3 * static_cast<size_t>(lane_stride)),
          _mm512_set1_pd(f[j + 3]));
      lane0 = _mm512_add_pd(lane0, _mm512_mul_pd(e0, e0));
      lane1 = _mm512_add_pd(lane1, _mm512_mul_pd(e1, e1));
      lane2 = _mm512_add_pd(lane2, _mm512_mul_pd(e2, e2));
      lane3 = _mm512_add_pd(lane3, _mm512_mul_pd(e3, e3));
    }
    for (; j < d; ++j) {
      const __m512d e = _mm512_sub_pd(
          _mm512_loadu_pd(base + static_cast<size_t>(j) * lane_stride),
          _mm512_set1_pd(f[j]));
      tail = _mm512_add_pd(tail, _mm512_mul_pd(e, e));
    }
    const __m512d res = _mm512_add_pd(
        _mm512_add_pd(_mm512_add_pd(lane0, lane1), _mm512_add_pd(lane2, lane3)),
        tail);
    _mm512_storeu_pd(dist + r, res);
  }
  if (r < rows) {
    internal::RefTileSquaredDistancesFused(tile + r, lane_stride, d, rows - r,
                                           f, dist + r);
  }
}

void TileSquaredDistancesSeq(const double* tile, int lane_stride, int d,
                             int rows, const double* f, double* dist) {
  int r = 0;
  for (; r + 8 <= rows; r += 8) {
    const double* base = tile + r;
    __m512d sum = _mm512_setzero_pd();
    for (int j = 0; j < d; ++j) {
      const __m512d e = _mm512_sub_pd(
          _mm512_loadu_pd(base + static_cast<size_t>(j) * lane_stride),
          _mm512_set1_pd(f[j]));
      sum = _mm512_add_pd(sum, _mm512_mul_pd(e, e));
    }
    _mm512_storeu_pd(dist + r, sum);
  }
  if (r < rows) {
    internal::RefTileSquaredDistancesSeq(tile + r, lane_stride, d, rows - r,
                                         f, dist + r);
  }
}

// Per-point refinement kernel. The fused reference fixes exactly four
// dim-strided accumulator lanes, so a 512-bit vector gains nothing here:
// this is the same 256-bit kernel as the AVX2 backend (-mavx512f implies
// AVX2 in the compiler's ISA chain), lane p of the __m256d running the
// reference's lane-p Horner chain verbatim.
double PowerSquaredDistance(const double* power, int k, int d, double s,
                            const double* x) {
  const __m256d sv = _mm256_set1_pd(s);
  __m256d acc = _mm256_setzero_pd();
  const double* top = power + static_cast<size_t>(k) * d;
  int i = 0;
  for (; i + 4 <= d; i += 4) {
    __m256d f = _mm256_loadu_pd(top + i);
    for (int j = k - 1; j >= 0; --j) {
      const double* aj = power + static_cast<size_t>(j) * d;
      f = _mm256_add_pd(_mm256_mul_pd(f, sv), _mm256_loadu_pd(aj + i));
    }
    const __m256d e = _mm256_sub_pd(_mm256_loadu_pd(x + i), f);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(e, e));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double tail = 0.0;
  for (; i < d; ++i) {
    double f = top[i];
    for (int j = k - 1; j >= 0; --j) {
      f = f * s + power[static_cast<size_t>(j) * d + i];
    }
    const double diff = x[i] - f;
    tail += diff * diff;
  }
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail;
}

// ||x_t - f(s_t)||^2 for the eight tasks whose columns start at xbase, lane
// t holding task t's probe parameter: broadcast coefficients, per-lane
// descending Horner, vector-wide accumulator classes, reference combine
// order — the same structure and contract as the AVX2 version (see
// simd_backend_avx2.cc).
inline __m512d PowerDistances8(const double* power, int k, int d,
                               const double* xbase, int lane_stride,
                               __m512d sv) {
  const double* top = power + static_cast<size_t>(k) * d;
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  __m512d tail = _mm512_setzero_pd();
  int i = 0;
  for (; i + 4 <= d; i += 4) {
    __m512d f0 = _mm512_set1_pd(top[i]);
    __m512d f1 = _mm512_set1_pd(top[i + 1]);
    __m512d f2 = _mm512_set1_pd(top[i + 2]);
    __m512d f3 = _mm512_set1_pd(top[i + 3]);
    for (int j = k - 1; j >= 0; --j) {
      const double* aj = power + static_cast<size_t>(j) * d;
      f0 = _mm512_add_pd(_mm512_mul_pd(f0, sv), _mm512_set1_pd(aj[i]));
      f1 = _mm512_add_pd(_mm512_mul_pd(f1, sv), _mm512_set1_pd(aj[i + 1]));
      f2 = _mm512_add_pd(_mm512_mul_pd(f2, sv), _mm512_set1_pd(aj[i + 2]));
      f3 = _mm512_add_pd(_mm512_mul_pd(f3, sv), _mm512_set1_pd(aj[i + 3]));
    }
    const double* xr = xbase + static_cast<size_t>(i) * lane_stride;
    const __m512d e0 = _mm512_sub_pd(_mm512_loadu_pd(xr), f0);
    const __m512d e1 = _mm512_sub_pd(
        _mm512_loadu_pd(xr + 1 * static_cast<size_t>(lane_stride)), f1);
    const __m512d e2 = _mm512_sub_pd(
        _mm512_loadu_pd(xr + 2 * static_cast<size_t>(lane_stride)), f2);
    const __m512d e3 = _mm512_sub_pd(
        _mm512_loadu_pd(xr + 3 * static_cast<size_t>(lane_stride)), f3);
    acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(e0, e0));
    acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(e1, e1));
    acc2 = _mm512_add_pd(acc2, _mm512_mul_pd(e2, e2));
    acc3 = _mm512_add_pd(acc3, _mm512_mul_pd(e3, e3));
  }
  for (; i < d; ++i) {
    __m512d f = _mm512_set1_pd(top[i]);
    for (int j = k - 1; j >= 0; --j) {
      f = _mm512_add_pd(_mm512_mul_pd(f, sv),
                        _mm512_set1_pd(power[static_cast<size_t>(j) * d + i]));
    }
    const __m512d e = _mm512_sub_pd(
        _mm512_loadu_pd(xbase + static_cast<size_t>(i) * lane_stride), f);
    tail = _mm512_add_pd(tail, _mm512_mul_pd(e, e));
  }
  return _mm512_add_pd(
      _mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3)),
      tail);
}

// Lanes whose parameter is exactly 0.0 or 1.0 (the per-point endpoint
// branch's parameters).
inline __mmask8 EndpointMask(__m512d s) {
  return static_cast<__mmask8>(
      _mm512_cmp_pd_mask(s, _mm512_setzero_pd(), _CMP_EQ_OQ) |
      _mm512_cmp_pd_mask(s, _mm512_set1_pd(1.0), _CMP_EQ_OQ));
}

// Whole-search Golden Section kernel: eight brackets per __m512d, every
// lane running RefGoldenRefineMulti's loop for its own bracket. A round
// applies each active lane's branch with mask blends (the `left` lanes
// keep [a, d] and probe a new c, the `right` lanes keep [c, b] and probe a
// new d), evaluates all eight probes with one PowerDistances8, and retires
// lanes whose bracket has shrunk to tol. Finished lanes stay frozen under
// the masks, so each lane's state sequence is its scalar search's.
void GoldenRefineMulti(const double* power, int k, int d, const double* xt,
                       int lane_stride, int count, const double* lo,
                       const double* hi, double tol, int max_iterations,
                       double* s_out, double* dist_out, int* evaluations,
                       unsigned char* endpoint) {
  const __m512d inv_phi = _mm512_set1_pd((std::sqrt(5.0) - 1.0) / 2.0);
  const __m512d inv_phi2 = _mm512_set1_pd((3.0 - std::sqrt(5.0)) / 2.0);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d tolv = _mm512_set1_pd(tol);
  int t = 0;
  for (; t + 8 <= count; t += 8) {
    const double* xbase = xt + t;
    __m512d a = _mm512_loadu_pd(lo + t);
    __m512d b = _mm512_loadu_pd(hi + t);
    __m512d h = _mm512_sub_pd(b, a);
    const __m512d mid = _mm512_mul_pd(half, _mm512_add_pd(a, b));
    const __mmask8 narrow = _mm512_cmp_pd_mask(h, tolv, _CMP_LE_OQ);
    __m512d c = _mm512_add_pd(a, _mm512_mul_pd(inv_phi2, h));
    __m512d dd = _mm512_add_pd(a, _mm512_mul_pd(inv_phi, h));
    // Narrow lanes evaluate their midpoint once and are done; their second
    // evaluation below is discarded.
    const __m512d first = _mm512_mask_blend_pd(narrow, c, mid);
    __m512d fc = PowerDistances8(power, k, d, xbase, lane_stride, first);
    __m512d fd = PowerDistances8(power, k, d, xbase, lane_stride, dd);
    __mmask8 hit = static_cast<__mmask8>(EndpointMask(first) |
                                         (EndpointMask(dd) & ~narrow));
    __mmask8 active = static_cast<__mmask8>(
        ~narrow & _mm512_cmp_pd_mask(h, tolv, _CMP_GT_OQ));
    __m512d iterations = _mm512_setzero_pd();
    for (int iter = 0; iter < max_iterations && active != 0; ++iter) {
      const __mmask8 lt = _mm512_cmp_pd_mask(fc, fd, _CMP_LT_OQ);
      const __mmask8 left = active & lt;
      const __mmask8 right = static_cast<__mmask8>(active & ~lt);
      // left: b = d, d = c, fd = fc; right: a = c, c = d, fc = fd.
      const __m512d old_c = c;
      const __m512d old_fc = fc;
      b = _mm512_mask_blend_pd(left, b, dd);
      a = _mm512_mask_blend_pd(right, a, c);
      c = _mm512_mask_blend_pd(right, c, dd);
      fc = _mm512_mask_blend_pd(right, fc, fd);
      dd = _mm512_mask_blend_pd(left, dd, old_c);
      fd = _mm512_mask_blend_pd(left, fd, old_fc);
      h = _mm512_mask_sub_pd(h, active, b, a);
      c = _mm512_mask_add_pd(c, left, a, _mm512_mul_pd(inv_phi2, h));
      dd = _mm512_mask_add_pd(dd, right, a, _mm512_mul_pd(inv_phi, h));
      const __m512d probe = _mm512_mask_blend_pd(left, dd, c);
      const __m512d value =
          PowerDistances8(power, k, d, xbase, lane_stride, probe);
      hit = static_cast<__mmask8>(hit | (EndpointMask(probe) & active));
      fc = _mm512_mask_blend_pd(left, fc, value);
      fd = _mm512_mask_blend_pd(right, fd, value);
      iterations = _mm512_mask_add_pd(iterations, active, iterations, one);
      active = static_cast<__mmask8>(
          active & _mm512_cmp_pd_mask(h, tolv, _CMP_GT_OQ));
    }
    const __mmask8 pick_c = _mm512_cmp_pd_mask(fc, fd, _CMP_LT_OQ);
    const __m512d s = _mm512_mask_blend_pd(
        narrow, _mm512_mask_blend_pd(pick_c, dd, c), mid);
    const __m512d dist = _mm512_mask_blend_pd(
        narrow, _mm512_mask_blend_pd(pick_c, fd, fc), fc);
    const __m512d evals =
        _mm512_mask_blend_pd(narrow, _mm512_add_pd(iterations, two), one);
    _mm512_storeu_pd(s_out + t, s);
    _mm512_storeu_pd(dist_out + t, dist);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(evaluations + t),
                        _mm512_maskz_cvtpd_epi32(0xFF, evals));
    for (int lane = 0; lane < 8; ++lane) {
      endpoint[t + lane] = static_cast<unsigned char>((hit >> lane) & 1);
    }
  }
  if (t < count) {
    internal::RefGoldenRefineMulti(power, k, d, xt + t, lane_stride,
                                   count - t, lo + t, hi + t, tol,
                                   max_iterations, s_out + t, dist_out + t,
                                   evaluations + t, endpoint + t);
  }
}

constexpr SimdOps kAvx512Ops = {
    SimdBackendKind::kAvx512,
    "avx512",
    &TileSquaredDistancesFused,
    &TileSquaredDistancesSeq,
    &PowerSquaredDistance,
    &GoldenRefineMulti,
    8,
};

}  // namespace

const SimdOps* Avx512SimdOps() { return &kAvx512Ops; }

}  // namespace rpc::curve

#else  // !defined(__AVX512F__)

namespace rpc::curve {
const SimdOps* Avx512SimdOps() { return nullptr; }
}  // namespace rpc::curve

#endif
