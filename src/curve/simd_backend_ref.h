#ifndef RPC_CURVE_SIMD_BACKEND_REF_H_
#define RPC_CURVE_SIMD_BACKEND_REF_H_

#include <cmath>
#include <cstddef>

// Scalar reference implementations of the SimdOps kernels, shared by every
// backend translation unit: the scalar backend IS these loops, and the
// vector backends call them for their sub-register row remainders. They
// define the floating-point operation sequence every backend must
// reproduce bit for bit (see SimdOps in simd_backend.h); the per-row
// orderings mirror BezierEvalWorkspace::SquaredDistance exactly.
//
// Header-inline on purpose: each backend TU compiles its own copy under its
// own arch flags. That is safe for bit-identity because the loops contain
// no reduction a vectoriser may reassociate across iterations of a single
// row (each row's sum is a fixed sequential dependence chain) and every TU
// builds with -ffp-contract=off, so no compiler may fuse the explicit
// multiply+add pairs. The unnamed namespace gives every copy internal
// linkage: with external linkage the linker would keep one copy for all
// TUs, and an AVX-512-compiled one would break the scalar backend on CPUs
// without AVX-512 (CI checks the static library for such weak symbols).

namespace rpc::curve::internal {
namespace {

/// Fused reference ordering: four dim-strided accumulators + sequential
/// tail, combined ((l0 + l1) + (l2 + l3)) + tail.
inline void RefTileSquaredDistancesFused(const double* tile, int lane_stride,
                                         int d, int rows, const double* f,
                                         double* dist) {
  for (int r = 0; r < rows; ++r) {
    double lane0 = 0.0;
    double lane1 = 0.0;
    double lane2 = 0.0;
    double lane3 = 0.0;
    int j = 0;
    for (; j + 4 <= d; j += 4) {
      const double* lane = tile + static_cast<std::size_t>(j) * lane_stride + r;
      const double e0 = lane[0 * lane_stride] - f[j];
      const double e1 = lane[1 * lane_stride] - f[j + 1];
      const double e2 = lane[2 * lane_stride] - f[j + 2];
      const double e3 = lane[3 * lane_stride] - f[j + 3];
      lane0 += e0 * e0;
      lane1 += e1 * e1;
      lane2 += e2 * e2;
      lane3 += e3 * e3;
    }
    double tail = 0.0;
    for (; j < d; ++j) {
      const double e = tile[static_cast<std::size_t>(j) * lane_stride + r] - f[j];
      tail += e * e;
    }
    dist[r] = ((lane0 + lane1) + (lane2 + lane3)) + tail;
  }
}

/// Sequential reference ordering: one accumulator, dimensions in order.
inline void RefTileSquaredDistancesSeq(const double* tile, int lane_stride,
                                       int d, int rows, const double* f,
                                       double* dist) {
  for (int r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (int j = 0; j < d; ++j) {
      const double e = tile[static_cast<std::size_t>(j) * lane_stride + r] - f[j];
      sum += e * e;
    }
    dist[r] = sum;
  }
}

/// Single-point squared distance against coefficient-major power-basis
/// coefficients (row j of `power` = the d coefficients of s^j), with x's
/// coordinates `x_stride` apart, in the fused reference ordering: four
/// dim-strided lanes each running a descending Horner, combined
/// ((l0 + l1) + (l2 + l3)) + tail. This is verbatim the ordering
/// BezierEvalWorkspace::SquaredDistance runs inline at interior s (for
/// cubics, ((a3 s + a2) s + a1) s + a0 IS this descending pass), so
/// routing the per-point path through a backend's implementation of it
/// changes no result bit.
inline double RefPowerSquaredDistanceStrided(const double* power, int k,
                                             int d, double s, const double* x,
                                             std::size_t x_stride) {
  const std::size_t stride = static_cast<std::size_t>(d);
  const double* top = power + static_cast<std::size_t>(k) * stride;
  double lane0 = 0.0;
  double lane1 = 0.0;
  double lane2 = 0.0;
  double lane3 = 0.0;
  int i = 0;
  for (; i + 4 <= d; i += 4) {
    double f0 = top[i];
    double f1 = top[i + 1];
    double f2 = top[i + 2];
    double f3 = top[i + 3];
    for (int j = k - 1; j >= 0; --j) {
      const double* aj = power + static_cast<std::size_t>(j) * stride;
      f0 = f0 * s + aj[i];
      f1 = f1 * s + aj[i + 1];
      f2 = f2 * s + aj[i + 2];
      f3 = f3 * s + aj[i + 3];
    }
    const double* xi = x + static_cast<std::size_t>(i) * x_stride;
    const double e0 = xi[0] - f0;
    const double e1 = xi[x_stride] - f1;
    const double e2 = xi[2 * x_stride] - f2;
    const double e3 = xi[3 * x_stride] - f3;
    lane0 += e0 * e0;
    lane1 += e1 * e1;
    lane2 += e2 * e2;
    lane3 += e3 * e3;
  }
  double tail = 0.0;
  for (; i < d; ++i) {
    double f = top[i];
    for (int j = k - 1; j >= 0; --j) {
      f = f * s + power[static_cast<std::size_t>(j) * stride + i];
    }
    const double diff = x[static_cast<std::size_t>(i) * x_stride] - f;
    tail += diff * diff;
  }
  return ((lane0 + lane1) + (lane2 + lane3)) + tail;
}

/// SimdOps::power_squared_distance's reference: contiguous x.
inline double RefPowerSquaredDistanceFused(const double* power, int k, int d,
                                           double s, const double* x) {
  return RefPowerSquaredDistanceStrided(power, k, d, s, x, 1);
}

/// Per-lane Golden Section Search: for task t, opt::GoldenSectionMinimizeWith
/// over [lo[t], hi[t]] with the RefPowerSquaredDistanceStrided objective on
/// task-major column t — the same constants, branch, loop test, result
/// selection and evaluation count, written out here because curve/ sits
/// below opt/.
/// endpoint[t] records whether any probe landed exactly on 0.0 or 1.0.
/// Vector backends run this loop with one task per lane and mask selects.
inline void RefGoldenRefineMulti(const double* power, int k, int d,
                                 const double* xt, int lane_stride, int count,
                                 const double* lo, const double* hi,
                                 double tol, int max_iterations,
                                 double* s_out, double* dist_out,
                                 int* evaluations, unsigned char* endpoint) {
  const double kInvPhi = (std::sqrt(5.0) - 1.0) / 2.0;   // 1/phi
  const double kInvPhi2 = (3.0 - std::sqrt(5.0)) / 2.0;  // 1/phi^2
  for (int t = 0; t < count; ++t) {
    bool hit_endpoint = false;
    const auto f = [&](double s) {
      hit_endpoint = hit_endpoint || s == 0.0 || s == 1.0;
      return RefPowerSquaredDistanceStrided(
          power, k, d, s, xt + t, static_cast<std::size_t>(lane_stride));
    };
    double a = lo[t];
    double b = hi[t];
    double h = b - a;
    if (h <= tol) {
      const double mid = 0.5 * (a + b);
      s_out[t] = mid;
      dist_out[t] = f(mid);
      evaluations[t] = 1;
      endpoint[t] = hit_endpoint ? 1 : 0;
      continue;
    }
    double c = a + kInvPhi2 * h;
    double dd = a + kInvPhi * h;
    double fc = f(c);
    double fd = f(dd);
    int evals = 2;
    for (int iter = 0; iter < max_iterations && h > tol; ++iter) {
      if (fc < fd) {
        b = dd;
        dd = c;
        fd = fc;
        h = b - a;
        c = a + kInvPhi2 * h;
        fc = f(c);
      } else {
        a = c;
        c = dd;
        fc = fd;
        h = b - a;
        dd = a + kInvPhi * h;
        fd = f(dd);
      }
      ++evals;
    }
    s_out[t] = fc < fd ? c : dd;
    dist_out[t] = fc < fd ? fc : fd;
    evaluations[t] = evals;
    endpoint[t] = hit_endpoint ? 1 : 0;
  }
}

}  // namespace
}  // namespace rpc::curve::internal

#endif  // RPC_CURVE_SIMD_BACKEND_REF_H_
