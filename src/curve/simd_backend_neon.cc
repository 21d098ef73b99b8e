// NEON backend (AArch64): 2 rows per float64x2_t lane-for-lane with the
// scalar reference. Same contract as the AVX2 backend: explicit mul/add
// intrinsics only (vmlaq_f64 would fuse on some cores), -ffp-contract=off,
// the odd-row remainder runs the shared scalar reference loops.
#include "curve/simd_backend.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

#include "curve/simd_backend_ref.h"

namespace rpc::curve {
namespace {

void TileSquaredDistancesFused(const double* tile, int lane_stride, int d,
                               int rows, const double* f, double* dist) {
  int r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* base = tile + r;
    float64x2_t lane0 = vdupq_n_f64(0.0);
    float64x2_t lane1 = vdupq_n_f64(0.0);
    float64x2_t lane2 = vdupq_n_f64(0.0);
    float64x2_t lane3 = vdupq_n_f64(0.0);
    float64x2_t tail = vdupq_n_f64(0.0);
    int j = 0;
    for (; j + 4 <= d; j += 4) {
      const double* lane = base + static_cast<size_t>(j) * lane_stride;
      const float64x2_t e0 =
          vsubq_f64(vld1q_f64(lane), vdupq_n_f64(f[j]));
      const float64x2_t e1 =
          vsubq_f64(vld1q_f64(lane + 1 * static_cast<size_t>(lane_stride)),
                    vdupq_n_f64(f[j + 1]));
      const float64x2_t e2 =
          vsubq_f64(vld1q_f64(lane + 2 * static_cast<size_t>(lane_stride)),
                    vdupq_n_f64(f[j + 2]));
      const float64x2_t e3 =
          vsubq_f64(vld1q_f64(lane + 3 * static_cast<size_t>(lane_stride)),
                    vdupq_n_f64(f[j + 3]));
      lane0 = vaddq_f64(lane0, vmulq_f64(e0, e0));
      lane1 = vaddq_f64(lane1, vmulq_f64(e1, e1));
      lane2 = vaddq_f64(lane2, vmulq_f64(e2, e2));
      lane3 = vaddq_f64(lane3, vmulq_f64(e3, e3));
    }
    for (; j < d; ++j) {
      const float64x2_t e =
          vsubq_f64(vld1q_f64(base + static_cast<size_t>(j) * lane_stride),
                    vdupq_n_f64(f[j]));
      tail = vaddq_f64(tail, vmulq_f64(e, e));
    }
    const float64x2_t res = vaddq_f64(
        vaddq_f64(vaddq_f64(lane0, lane1), vaddq_f64(lane2, lane3)), tail);
    vst1q_f64(dist + r, res);
  }
  if (r < rows) {
    internal::RefTileSquaredDistancesFused(tile + r, lane_stride, d, rows - r,
                                           f, dist + r);
  }
}

void TileSquaredDistancesSeq(const double* tile, int lane_stride, int d,
                             int rows, const double* f, double* dist) {
  int r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* base = tile + r;
    float64x2_t sum = vdupq_n_f64(0.0);
    for (int j = 0; j < d; ++j) {
      const float64x2_t e =
          vsubq_f64(vld1q_f64(base + static_cast<size_t>(j) * lane_stride),
                    vdupq_n_f64(f[j]));
      sum = vaddq_f64(sum, vmulq_f64(e, e));
    }
    vst1q_f64(dist + r, sum);
  }
  if (r < rows) {
    internal::RefTileSquaredDistancesSeq(tile + r, lane_stride, d, rows - r,
                                         f, dist + r);
  }
}

// Per-point refinement kernel: the reference's four accumulator lanes
// split across two float64x2_t (lanes 0-1 and 2-3), each running its
// Horner chain with explicit mul/add. The combine extracts all four lanes
// and adds them in the reference's fixed order.
double PowerSquaredDistance(const double* power, int k, int d, double s,
                            const double* x) {
  const float64x2_t sv = vdupq_n_f64(s);
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  const double* top = power + static_cast<size_t>(k) * d;
  int i = 0;
  for (; i + 4 <= d; i += 4) {
    float64x2_t f01 = vld1q_f64(top + i);
    float64x2_t f23 = vld1q_f64(top + i + 2);
    for (int j = k - 1; j >= 0; --j) {
      const double* aj = power + static_cast<size_t>(j) * d;
      f01 = vaddq_f64(vmulq_f64(f01, sv), vld1q_f64(aj + i));
      f23 = vaddq_f64(vmulq_f64(f23, sv), vld1q_f64(aj + i + 2));
    }
    const float64x2_t e01 = vsubq_f64(vld1q_f64(x + i), f01);
    const float64x2_t e23 = vsubq_f64(vld1q_f64(x + i + 2), f23);
    acc01 = vaddq_f64(acc01, vmulq_f64(e01, e01));
    acc23 = vaddq_f64(acc23, vmulq_f64(e23, e23));
  }
  double tail = 0.0;
  for (; i < d; ++i) {
    double f = top[i];
    for (int j = k - 1; j >= 0; --j) {
      f = f * s + power[static_cast<size_t>(j) * d + i];
    }
    const double diff = x[i] - f;
    tail += diff * diff;
  }
  const double lane0 = vgetq_lane_f64(acc01, 0);
  const double lane1 = vgetq_lane_f64(acc01, 1);
  const double lane2 = vgetq_lane_f64(acc23, 0);
  const double lane3 = vgetq_lane_f64(acc23, 1);
  return ((lane0 + lane1) + (lane2 + lane3)) + tail;
}

// ||x_t - f(s_t)||^2 for the two tasks whose columns start at xbase, lane
// t holding task t's probe parameter. Same contract as the AVX2 version
// (see simd_backend_avx2.cc): broadcast coefficients, per-lane descending
// Horner, vector-wide accumulator classes, reference combine order.
inline float64x2_t PowerDistances2(const double* power, int k, int d,
                                   const double* xbase, int lane_stride,
                                   float64x2_t sv) {
  const double* top = power + static_cast<size_t>(k) * d;
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  float64x2_t tail = vdupq_n_f64(0.0);
  int i = 0;
  for (; i + 4 <= d; i += 4) {
    float64x2_t f0 = vdupq_n_f64(top[i]);
    float64x2_t f1 = vdupq_n_f64(top[i + 1]);
    float64x2_t f2 = vdupq_n_f64(top[i + 2]);
    float64x2_t f3 = vdupq_n_f64(top[i + 3]);
    for (int j = k - 1; j >= 0; --j) {
      const double* aj = power + static_cast<size_t>(j) * d;
      f0 = vaddq_f64(vmulq_f64(f0, sv), vdupq_n_f64(aj[i]));
      f1 = vaddq_f64(vmulq_f64(f1, sv), vdupq_n_f64(aj[i + 1]));
      f2 = vaddq_f64(vmulq_f64(f2, sv), vdupq_n_f64(aj[i + 2]));
      f3 = vaddq_f64(vmulq_f64(f3, sv), vdupq_n_f64(aj[i + 3]));
    }
    const double* xr = xbase + static_cast<size_t>(i) * lane_stride;
    const float64x2_t e0 = vsubq_f64(vld1q_f64(xr), f0);
    const float64x2_t e1 = vsubq_f64(
        vld1q_f64(xr + 1 * static_cast<size_t>(lane_stride)), f1);
    const float64x2_t e2 = vsubq_f64(
        vld1q_f64(xr + 2 * static_cast<size_t>(lane_stride)), f2);
    const float64x2_t e3 = vsubq_f64(
        vld1q_f64(xr + 3 * static_cast<size_t>(lane_stride)), f3);
    acc0 = vaddq_f64(acc0, vmulq_f64(e0, e0));
    acc1 = vaddq_f64(acc1, vmulq_f64(e1, e1));
    acc2 = vaddq_f64(acc2, vmulq_f64(e2, e2));
    acc3 = vaddq_f64(acc3, vmulq_f64(e3, e3));
  }
  for (; i < d; ++i) {
    float64x2_t f = vdupq_n_f64(top[i]);
    for (int j = k - 1; j >= 0; --j) {
      f = vaddq_f64(vmulq_f64(f, sv),
                    vdupq_n_f64(power[static_cast<size_t>(j) * d + i]));
    }
    const float64x2_t e = vsubq_f64(
        vld1q_f64(xbase + static_cast<size_t>(i) * lane_stride), f);
    tail = vaddq_f64(tail, vmulq_f64(e, e));
  }
  return vaddq_f64(vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3)),
                   tail);
}

// All-ones lanes where the parameter is exactly 0.0 or 1.0 (the per-point
// endpoint branch's parameters).
inline uint64x2_t EndpointMask(float64x2_t s) {
  return vorrq_u64(vceqq_f64(s, vdupq_n_f64(0.0)),
                   vceqq_f64(s, vdupq_n_f64(1.0)));
}

inline bool AnyLane(uint64x2_t mask) {
  return (vgetq_lane_u64(mask, 0) | vgetq_lane_u64(mask, 1)) != 0;
}

// Whole-search Golden Section kernel: two brackets per float64x2_t, every
// lane running RefGoldenRefineMulti's loop for its own bracket with
// bit-select blends — the same round structure as the AVX2 version (see
// simd_backend_avx2.cc). Finished lanes stay frozen under the masks.
void GoldenRefineMulti(const double* power, int k, int d, const double* xt,
                       int lane_stride, int count, const double* lo,
                       const double* hi, double tol, int max_iterations,
                       double* s_out, double* dist_out, int* evaluations,
                       unsigned char* endpoint) {
  const float64x2_t inv_phi = vdupq_n_f64((std::sqrt(5.0) - 1.0) / 2.0);
  const float64x2_t inv_phi2 = vdupq_n_f64((3.0 - std::sqrt(5.0)) / 2.0);
  const float64x2_t half = vdupq_n_f64(0.5);
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t two = vdupq_n_f64(2.0);
  const float64x2_t tolv = vdupq_n_f64(tol);
  int t = 0;
  for (; t + 2 <= count; t += 2) {
    const double* xbase = xt + t;
    float64x2_t a = vld1q_f64(lo + t);
    float64x2_t b = vld1q_f64(hi + t);
    float64x2_t h = vsubq_f64(b, a);
    const float64x2_t mid = vmulq_f64(half, vaddq_f64(a, b));
    const uint64x2_t narrow = vcleq_f64(h, tolv);
    float64x2_t c = vaddq_f64(a, vmulq_f64(inv_phi2, h));
    float64x2_t dd = vaddq_f64(a, vmulq_f64(inv_phi, h));
    // Narrow lanes evaluate their midpoint once and are done; their second
    // evaluation below is discarded.
    const float64x2_t first = vbslq_f64(narrow, mid, c);
    float64x2_t fc = PowerDistances2(power, k, d, xbase, lane_stride, first);
    float64x2_t fd = PowerDistances2(power, k, d, xbase, lane_stride, dd);
    uint64x2_t hit =
        vorrq_u64(EndpointMask(first), vbicq_u64(EndpointMask(dd), narrow));
    uint64x2_t active = vbicq_u64(vcgtq_f64(h, tolv), narrow);
    float64x2_t iterations = vdupq_n_f64(0.0);
    for (int iter = 0; iter < max_iterations && AnyLane(active); ++iter) {
      const uint64x2_t lt = vcltq_f64(fc, fd);
      const uint64x2_t left = vandq_u64(active, lt);
      const uint64x2_t right = vbicq_u64(active, lt);
      // left: b = d, d = c, fd = fc; right: a = c, c = d, fc = fd.
      const float64x2_t old_c = c;
      const float64x2_t old_fc = fc;
      b = vbslq_f64(left, dd, b);
      a = vbslq_f64(right, c, a);
      c = vbslq_f64(right, dd, c);
      fc = vbslq_f64(right, fd, fc);
      dd = vbslq_f64(left, old_c, dd);
      fd = vbslq_f64(left, old_fc, fd);
      h = vbslq_f64(active, vsubq_f64(b, a), h);
      c = vbslq_f64(left, vaddq_f64(a, vmulq_f64(inv_phi2, h)), c);
      dd = vbslq_f64(right, vaddq_f64(a, vmulq_f64(inv_phi, h)), dd);
      const float64x2_t probe = vbslq_f64(left, c, dd);
      const float64x2_t value =
          PowerDistances2(power, k, d, xbase, lane_stride, probe);
      hit = vorrq_u64(hit, vandq_u64(EndpointMask(probe), active));
      fc = vbslq_f64(left, value, fc);
      fd = vbslq_f64(right, value, fd);
      iterations = vaddq_f64(iterations,
                             vbslq_f64(active, one, vdupq_n_f64(0.0)));
      active = vandq_u64(active, vcgtq_f64(h, tolv));
    }
    const uint64x2_t pick_c = vcltq_f64(fc, fd);
    const float64x2_t s =
        vbslq_f64(narrow, mid, vbslq_f64(pick_c, c, dd));
    const float64x2_t dist =
        vbslq_f64(narrow, fc, vbslq_f64(pick_c, fc, fd));
    const float64x2_t evals =
        vbslq_f64(narrow, one, vaddq_f64(iterations, two));
    vst1q_f64(s_out + t, s);
    vst1q_f64(dist_out + t, dist);
    evaluations[t] = static_cast<int>(vgetq_lane_f64(evals, 0));
    evaluations[t + 1] = static_cast<int>(vgetq_lane_f64(evals, 1));
    endpoint[t] = vgetq_lane_u64(hit, 0) != 0 ? 1 : 0;
    endpoint[t + 1] = vgetq_lane_u64(hit, 1) != 0 ? 1 : 0;
  }
  if (t < count) {
    internal::RefGoldenRefineMulti(power, k, d, xt + t, lane_stride,
                                   count - t, lo + t, hi + t, tol,
                                   max_iterations, s_out + t, dist_out + t,
                                   evaluations + t, endpoint + t);
  }
}

constexpr SimdOps kNeonOps = {
    SimdBackendKind::kNeon,
    "neon",
    &TileSquaredDistancesFused,
    &TileSquaredDistancesSeq,
    &PowerSquaredDistance,
    &GoldenRefineMulti,
    2,
};

}  // namespace

const SimdOps* NeonSimdOps() { return &kNeonOps; }

}  // namespace rpc::curve

#else  // !defined(__aarch64__)

namespace rpc::curve {
const SimdOps* NeonSimdOps() { return nullptr; }
}  // namespace rpc::curve

#endif
