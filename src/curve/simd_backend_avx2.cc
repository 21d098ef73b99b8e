// AVX2 backend: 4 rows per __m256d lane-for-lane with the scalar reference.
//
// Compiled with -mavx2 -ffp-contract=off (CMake sets the flags per-file
// when the toolchain supports them; otherwise this TU compiles to the null
// stub below). Only explicit mul/add intrinsics are used — never FMA — and
// contraction is off, so a mul+add pair can never be fused: every lane
// performs exactly the scalar reference's operation sequence for its row,
// which is what makes the output bit-identical to the scalar backend.
#include "curve/simd_backend.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

#include "curve/simd_backend_ref.h"

namespace rpc::curve {
namespace {

void TileSquaredDistancesFused(const double* tile, int lane_stride, int d,
                               int rows, const double* f, double* dist) {
  int r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* base = tile + r;
    __m256d lane0 = _mm256_setzero_pd();
    __m256d lane1 = _mm256_setzero_pd();
    __m256d lane2 = _mm256_setzero_pd();
    __m256d lane3 = _mm256_setzero_pd();
    __m256d tail = _mm256_setzero_pd();
    int j = 0;
    for (; j + 4 <= d; j += 4) {
      const double* lane = base + static_cast<size_t>(j) * lane_stride;
      const __m256d e0 = _mm256_sub_pd(_mm256_loadu_pd(lane),
                                       _mm256_set1_pd(f[j]));
      const __m256d e1 = _mm256_sub_pd(
          _mm256_loadu_pd(lane + 1 * static_cast<size_t>(lane_stride)),
          _mm256_set1_pd(f[j + 1]));
      const __m256d e2 = _mm256_sub_pd(
          _mm256_loadu_pd(lane + 2 * static_cast<size_t>(lane_stride)),
          _mm256_set1_pd(f[j + 2]));
      const __m256d e3 = _mm256_sub_pd(
          _mm256_loadu_pd(lane + 3 * static_cast<size_t>(lane_stride)),
          _mm256_set1_pd(f[j + 3]));
      lane0 = _mm256_add_pd(lane0, _mm256_mul_pd(e0, e0));
      lane1 = _mm256_add_pd(lane1, _mm256_mul_pd(e1, e1));
      lane2 = _mm256_add_pd(lane2, _mm256_mul_pd(e2, e2));
      lane3 = _mm256_add_pd(lane3, _mm256_mul_pd(e3, e3));
    }
    for (; j < d; ++j) {
      const __m256d e = _mm256_sub_pd(
          _mm256_loadu_pd(base + static_cast<size_t>(j) * lane_stride),
          _mm256_set1_pd(f[j]));
      tail = _mm256_add_pd(tail, _mm256_mul_pd(e, e));
    }
    const __m256d res = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(lane0, lane1), _mm256_add_pd(lane2, lane3)),
        tail);
    _mm256_storeu_pd(dist + r, res);
  }
  if (r < rows) {
    internal::RefTileSquaredDistancesFused(tile + r, lane_stride, d, rows - r,
                                           f, dist + r);
  }
}

void TileSquaredDistancesSeq(const double* tile, int lane_stride, int d,
                             int rows, const double* f, double* dist) {
  int r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* base = tile + r;
    __m256d sum = _mm256_setzero_pd();
    for (int j = 0; j < d; ++j) {
      const __m256d e = _mm256_sub_pd(
          _mm256_loadu_pd(base + static_cast<size_t>(j) * lane_stride),
          _mm256_set1_pd(f[j]));
      sum = _mm256_add_pd(sum, _mm256_mul_pd(e, e));
    }
    _mm256_storeu_pd(dist + r, sum);
  }
  if (r < rows) {
    internal::RefTileSquaredDistancesSeq(tile + r, lane_stride, d, rows - r,
                                         f, dist + r);
  }
}

// Per-point refinement kernel: the fused ordering's four dim-strided
// accumulator lanes map onto the four lanes of one __m256d, each running
// its own descending Horner — so this vectorises across dimensions with
// the per-lane operation sequence unchanged. The final combine extracts
// the lanes and adds them in the reference's fixed order.
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

// ||x_t - f(s_t)||^2 for the four tasks whose columns start at xbase, each
// lane holding one task's probe parameter. Coefficients are broadcast per
// dimension, so every lane runs the reference's descending Horner for its
// own s; the dim-strided accumulator classes and the combine are
// vector-wide, which applies the reference's ((l0 + l1) + (l2 + l3)) +
// tail order in every lane at once.
inline __m256d PowerDistances4(const double* power, int k, int d,
                               const double* xbase, int lane_stride,
                               __m256d sv) {
  const double* top = power + static_cast<size_t>(k) * d;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  __m256d tail = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= d; i += 4) {
    __m256d f0 = _mm256_set1_pd(top[i]);
    __m256d f1 = _mm256_set1_pd(top[i + 1]);
    __m256d f2 = _mm256_set1_pd(top[i + 2]);
    __m256d f3 = _mm256_set1_pd(top[i + 3]);
    for (int j = k - 1; j >= 0; --j) {
      const double* aj = power + static_cast<size_t>(j) * d;
      f0 = _mm256_add_pd(_mm256_mul_pd(f0, sv), _mm256_set1_pd(aj[i]));
      f1 = _mm256_add_pd(_mm256_mul_pd(f1, sv), _mm256_set1_pd(aj[i + 1]));
      f2 = _mm256_add_pd(_mm256_mul_pd(f2, sv), _mm256_set1_pd(aj[i + 2]));
      f3 = _mm256_add_pd(_mm256_mul_pd(f3, sv), _mm256_set1_pd(aj[i + 3]));
    }
    const double* xr = xbase + static_cast<size_t>(i) * lane_stride;
    const __m256d e0 = _mm256_sub_pd(_mm256_loadu_pd(xr), f0);
    const __m256d e1 = _mm256_sub_pd(
        _mm256_loadu_pd(xr + 1 * static_cast<size_t>(lane_stride)), f1);
    const __m256d e2 = _mm256_sub_pd(
        _mm256_loadu_pd(xr + 2 * static_cast<size_t>(lane_stride)), f2);
    const __m256d e3 = _mm256_sub_pd(
        _mm256_loadu_pd(xr + 3 * static_cast<size_t>(lane_stride)), f3);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(e0, e0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(e1, e1));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(e2, e2));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(e3, e3));
  }
  for (; i < d; ++i) {
    __m256d f = _mm256_set1_pd(top[i]);
    for (int j = k - 1; j >= 0; --j) {
      f = _mm256_add_pd(_mm256_mul_pd(f, sv),
                        _mm256_set1_pd(power[static_cast<size_t>(j) * d + i]));
    }
    const __m256d e = _mm256_sub_pd(
        _mm256_loadu_pd(xbase + static_cast<size_t>(i) * lane_stride), f);
    tail = _mm256_add_pd(tail, _mm256_mul_pd(e, e));
  }
  return _mm256_add_pd(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)),
      tail);
}

// All-ones lanes where the parameter is exactly 0.0 or 1.0 (the per-point
// endpoint branch's parameters).
inline __m256d EndpointMask(__m256d s) {
  return _mm256_or_pd(_mm256_cmp_pd(s, _mm256_setzero_pd(), _CMP_EQ_OQ),
                      _mm256_cmp_pd(s, _mm256_set1_pd(1.0), _CMP_EQ_OQ));
}

// Whole-search Golden Section kernel: four brackets per __m256d, every lane
// running RefGoldenRefineMulti's loop for its own bracket. A round applies
// each active lane's branch with blends (the `left` lanes keep [a, d] and
// probe a new c, the `right` lanes keep [c, b] and probe a new d),
// evaluates all four probes with one PowerDistances4, and retires lanes
// whose bracket has shrunk to tol. Finished lanes stay frozen under the
// masks, so each lane's state sequence is its scalar search's.
void GoldenRefineMulti(const double* power, int k, int d, const double* xt,
                       int lane_stride, int count, const double* lo,
                       const double* hi, double tol, int max_iterations,
                       double* s_out, double* dist_out, int* evaluations,
                       unsigned char* endpoint) {
  const __m256d inv_phi = _mm256_set1_pd((std::sqrt(5.0) - 1.0) / 2.0);
  const __m256d inv_phi2 = _mm256_set1_pd((3.0 - std::sqrt(5.0)) / 2.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d tolv = _mm256_set1_pd(tol);
  int t = 0;
  for (; t + 4 <= count; t += 4) {
    const double* xbase = xt + t;
    __m256d a = _mm256_loadu_pd(lo + t);
    __m256d b = _mm256_loadu_pd(hi + t);
    __m256d h = _mm256_sub_pd(b, a);
    const __m256d mid = _mm256_mul_pd(half, _mm256_add_pd(a, b));
    const __m256d narrow = _mm256_cmp_pd(h, tolv, _CMP_LE_OQ);
    __m256d c = _mm256_add_pd(a, _mm256_mul_pd(inv_phi2, h));
    __m256d dd = _mm256_add_pd(a, _mm256_mul_pd(inv_phi, h));
    // Narrow lanes evaluate their midpoint once and are done; their second
    // evaluation below is discarded.
    const __m256d first = _mm256_blendv_pd(c, mid, narrow);
    __m256d fc = PowerDistances4(power, k, d, xbase, lane_stride, first);
    __m256d fd = PowerDistances4(power, k, d, xbase, lane_stride, dd);
    __m256d hit = _mm256_or_pd(EndpointMask(first),
                               _mm256_andnot_pd(narrow, EndpointMask(dd)));
    __m256d active =
        _mm256_andnot_pd(narrow, _mm256_cmp_pd(h, tolv, _CMP_GT_OQ));
    __m256d iterations = _mm256_setzero_pd();
    for (int iter = 0;
         iter < max_iterations && _mm256_movemask_pd(active) != 0; ++iter) {
      const __m256d lt = _mm256_cmp_pd(fc, fd, _CMP_LT_OQ);
      const __m256d left = _mm256_and_pd(active, lt);
      const __m256d right = _mm256_andnot_pd(lt, active);
      // left: b = d, d = c, fd = fc; right: a = c, c = d, fc = fd.
      const __m256d old_c = c;
      const __m256d old_fc = fc;
      b = _mm256_blendv_pd(b, dd, left);
      a = _mm256_blendv_pd(a, c, right);
      c = _mm256_blendv_pd(c, dd, right);
      fc = _mm256_blendv_pd(fc, fd, right);
      dd = _mm256_blendv_pd(dd, old_c, left);
      fd = _mm256_blendv_pd(fd, old_fc, left);
      h = _mm256_blendv_pd(h, _mm256_sub_pd(b, a), active);
      c = _mm256_blendv_pd(c, _mm256_add_pd(a, _mm256_mul_pd(inv_phi2, h)),
                           left);
      dd = _mm256_blendv_pd(dd, _mm256_add_pd(a, _mm256_mul_pd(inv_phi, h)),
                            right);
      const __m256d probe = _mm256_blendv_pd(dd, c, left);
      const __m256d value =
          PowerDistances4(power, k, d, xbase, lane_stride, probe);
      hit = _mm256_or_pd(hit, _mm256_and_pd(EndpointMask(probe), active));
      fc = _mm256_blendv_pd(fc, value, left);
      fd = _mm256_blendv_pd(fd, value, right);
      iterations = _mm256_add_pd(iterations, _mm256_and_pd(active, one));
      active = _mm256_and_pd(active, _mm256_cmp_pd(h, tolv, _CMP_GT_OQ));
    }
    const __m256d pick_c = _mm256_cmp_pd(fc, fd, _CMP_LT_OQ);
    const __m256d s =
        _mm256_blendv_pd(_mm256_blendv_pd(dd, c, pick_c), mid, narrow);
    const __m256d dist =
        _mm256_blendv_pd(_mm256_blendv_pd(fd, fc, pick_c), fc, narrow);
    const __m256d evals =
        _mm256_blendv_pd(_mm256_add_pd(iterations, two), one, narrow);
    _mm256_storeu_pd(s_out + t, s);
    _mm256_storeu_pd(dist_out + t, dist);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(evaluations + t),
                     _mm256_cvtpd_epi32(evals));
    const int hit_bits = _mm256_movemask_pd(hit);
    for (int lane = 0; lane < 4; ++lane) {
      endpoint[t + lane] = static_cast<unsigned char>((hit_bits >> lane) & 1);
    }
  }
  if (t < count) {
    internal::RefGoldenRefineMulti(power, k, d, xt + t, lane_stride,
                                   count - t, lo + t, hi + t, tol,
                                   max_iterations, s_out + t, dist_out + t,
                                   evaluations + t, endpoint + t);
  }
}

constexpr SimdOps kAvx2Ops = {
    SimdBackendKind::kAvx2,
    "avx2",
    &TileSquaredDistancesFused,
    &TileSquaredDistancesSeq,
    &PowerSquaredDistance,
    &GoldenRefineMulti,
    4,
};

}  // namespace

const SimdOps* Avx2SimdOps() { return &kAvx2Ops; }

}  // namespace rpc::curve

#else  // !defined(__AVX2__)

namespace rpc::curve {
const SimdOps* Avx2SimdOps() { return nullptr; }
}  // namespace rpc::curve

#endif
