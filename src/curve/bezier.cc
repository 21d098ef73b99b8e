#include "curve/bezier.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "curve/bernstein.h"
#include "curve/simd_backend.h"
#include "curve/simd_backend_ref.h"

namespace {
// Dimension at which the per-point path switches from the inlined scalar
// reference to the active backend's vector kernel (see SquaredDistance).
constexpr int kSimdPerPointDim = 16;
}  // namespace

namespace rpc::curve {

using linalg::Matrix;
using linalg::Vector;

BezierCurve::BezierCurve(Matrix control_points)
    : points_(std::move(control_points)) {
  assert(points_.cols() >= 1);
}

void BezierCurve::SetControlPoints(const Matrix& control_points) {
  assert(control_points.cols() >= 1);
  points_ = control_points;
}

Vector BezierCurve::Evaluate(double s) const {
  BezierEvalWorkspace workspace;
  workspace.Bind(*this);
  Vector out(dimension());
  workspace.Evaluate(s, out.data().data());
  return out;
}

Vector BezierCurve::Derivative(double s) const {
  BezierEvalWorkspace workspace;
  workspace.Bind(*this);
  Vector out(dimension());
  workspace.Derivative(s, out.data().data());
  return out;
}

BezierCurve BezierCurve::DerivativeCurve() const {
  BezierCurve out;
  DerivativeCurveInto(&out);
  return out;
}

void BezierCurve::DerivativeCurveInto(BezierCurve* out) const {
  assert(out != this);
  const int k = degree();
  const int d = dimension();
  if (k == 0) {
    out->points_.Assign(d, 1, 0.0);
    return;
  }
  out->points_.Assign(d, k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < d; ++i) {
      out->points_(i, j) = k * (points_(i, j + 1) - points_(i, j));
    }
  }
}

Matrix BezierCurve::PowerBasisCoefficients() const {
  Matrix coeffs;
  PowerBasisCoefficientsInto(&coeffs);
  return coeffs;
}

void BezierCurve::PowerBasisCoefficientsInto(Matrix* out) const {
  const int k = degree();
  const int d = dimension();
  // a_j = C(k,j) * sum_{i=0}^{j} (-1)^(j-i) C(j,i) p_i.
  out->Assign(d, k + 1);
  for (int j = 0; j <= k; ++j) {
    const double ckj = static_cast<double>(Binomial(k, j));
    for (int i = 0; i <= j; ++i) {
      const double sign = ((j - i) % 2 == 0) ? 1.0 : -1.0;
      const double w = ckj * sign * static_cast<double>(Binomial(j, i));
      for (int dim = 0; dim < d; ++dim) {
        (*out)(dim, j) += w * points_(dim, i);
      }
    }
  }
}

Matrix BezierCurve::Sample(int n) const {
  assert(n >= 1);
  BezierEvalWorkspace workspace;
  workspace.Bind(*this);
  Matrix samples(n + 1, dimension());
  for (int i = 0; i <= n; ++i) {
    const double s = static_cast<double>(i) / n;
    workspace.Evaluate(s, samples.RowPtr(i));
  }
  return samples;
}

double BezierCurve::SquaredDistanceAt(const Vector& x, double s) const {
  assert(x.size() == dimension());
  BezierEvalWorkspace workspace;
  workspace.Bind(*this);
  return workspace.SquaredDistance(x.data().data(), s);
}

BezierCurve BezierCurve::AffineTransformed(const Vector& scale,
                                           const Vector& shift) const {
  assert(scale.size() == dimension() && shift.size() == dimension());
  Matrix transformed = points_;
  for (int r = 0; r <= degree(); ++r) {
    for (int i = 0; i < dimension(); ++i) {
      transformed(i, r) = scale[i] * points_(i, r) + shift[i];
    }
  }
  return BezierCurve(std::move(transformed));
}

double BezierCurve::ApproximateLength(int samples) const {
  assert(samples >= 1);
  const int d = dimension();
  BezierEvalWorkspace workspace;
  workspace.Bind(*this);
  std::vector<double> prev(static_cast<size_t>(d));
  std::vector<double> cur(static_cast<size_t>(d));
  workspace.Evaluate(0.0, prev.data());
  double length = 0.0;
  for (int i = 1; i <= samples; ++i) {
    workspace.Evaluate(static_cast<double>(i) / samples, cur.data());
    double seg = 0.0;
    for (int j = 0; j < d; ++j) {
      const double diff = prev[static_cast<size_t>(j)] -
                          cur[static_cast<size_t>(j)];
      seg += diff * diff;
    }
    length += std::sqrt(seg);
    prev.swap(cur);
  }
  return length;
}

std::pair<BezierCurve, BezierCurve> BezierCurve::Subdivide(double s) const {
  const int k = degree();
  const int d = dimension();
  // Run de Casteljau keeping the first point of each level (left curve)
  // and the last point of each level (right curve, reversed).
  std::vector<Vector> work;
  work.reserve(static_cast<size_t>(k) + 1);
  for (int r = 0; r <= k; ++r) work.push_back(points_.Column(r));
  Matrix left(d, k + 1);
  Matrix right(d, k + 1);
  left.SetColumn(0, work.front());
  right.SetColumn(k, work.back());
  for (int level = 1; level <= k; ++level) {
    for (int r = 0; r + level <= k; ++r) {
      for (int i = 0; i < d; ++i) {
        work[static_cast<size_t>(r)][i] =
            (1.0 - s) * work[static_cast<size_t>(r)][i] +
            s * work[static_cast<size_t>(r) + 1][i];
      }
    }
    left.SetColumn(level, work.front());
    right.SetColumn(k - level, work[static_cast<size_t>(k - level)]);
  }
  return {BezierCurve(std::move(left)), BezierCurve(std::move(right))};
}

BezierCurve BezierCurve::Elevated() const {
  const int k = degree();
  const int d = dimension();
  // q_0 = p_0, q_{k+1} = p_k, q_r = r/(k+1) p_{r-1} + (1 - r/(k+1)) p_r.
  Matrix elevated(d, k + 2);
  elevated.SetColumn(0, points_.Column(0));
  elevated.SetColumn(k + 1, points_.Column(k));
  for (int r = 1; r <= k; ++r) {
    const double w = static_cast<double>(r) / (k + 1);
    for (int i = 0; i < d; ++i) {
      elevated(i, r) = w * points_(i, r - 1) + (1.0 - w) * points_(i, r);
    }
  }
  return BezierCurve(std::move(elevated));
}

std::vector<std::vector<double>> BezierCurve::CoordinateExtrema(
    double tol) const {
  const int d = dimension();
  std::vector<std::vector<double>> extrema(static_cast<size_t>(d));
  const BezierCurve hodograph = DerivativeCurve();
  // f_j' is a degree k-1 polynomial: a grid finer than its root count
  // bracket every sign change; bisection then refines.
  const int grid = std::max(8, 16 * degree());
  for (int j = 0; j < d; ++j) {
    double prev_s = 0.0;
    double prev_v = hodograph.Evaluate(0.0)[j];
    for (int i = 1; i <= grid; ++i) {
      const double s = static_cast<double>(i) / grid;
      const double v = hodograph.Evaluate(s)[j];
      if (v == 0.0) {
        // Exact zero on a grid point (e.g. symmetric bumps peaking at 1/2).
        if (s > tol && s < 1.0 - tol) {
          extrema[static_cast<size_t>(j)].push_back(s);
        }
        prev_s = s;
        prev_v = v;
        continue;
      }
      if ((prev_v < 0.0 && v > 0.0) || (prev_v > 0.0 && v < 0.0)) {
        double lo = prev_s;
        double hi = s;
        double flo = prev_v;
        while (hi - lo > tol) {
          const double mid = 0.5 * (lo + hi);
          const double fmid = hodograph.Evaluate(mid)[j];
          if ((flo < 0.0) == (fmid < 0.0)) {
            lo = mid;
            flo = fmid;
          } else {
            hi = mid;
          }
        }
        const double root = 0.5 * (lo + hi);
        if (root > tol && root < 1.0 - tol) {
          extrema[static_cast<size_t>(j)].push_back(root);
        }
      }
      prev_s = s;
      prev_v = v;
    }
  }
  return extrema;
}

void BezierEvalWorkspace::Bind(const BezierCurve& curve) {
  curve_ = &curve;
  simd_ = &ActiveSimd();
  k_ = curve.degree();
  d_ = curve.dimension();
  horner_ = (k_ == 3);
  value_.resize(static_cast<size_t>(d_));
  power_.resize(static_cast<size_t>(k_ + 1) * static_cast<size_t>(d_));
  dpower_.resize(static_cast<size_t>(std::max(k_, 1)) *
                 static_cast<size_t>(d_));
  const Matrix& p = curve.control_points();
  if (horner_) {
    // Power basis of the cubic: a_0 = p0, a_1 = 3(p1 - p0),
    // a_2 = 3(p0 - 2 p1 + p2), a_3 = -p0 + 3 p1 - 3 p2 + p3; f' then has
    // ascending coefficients a_1, 2 a_2, 3 a_3. Stored coefficient-major
    // (all a_0 first, then all a_1, ...) so the Horner loops below read
    // four stride-1 streams — the layout the autovectoriser wants. These
    // expressions are deliberately kept distinct from the general
    // conversion below (3.0 * (p1 - p0) and 3 * p1 - 3 * p0 differ in
    // ulps): cubic results must not move when the general path changes.
    double* a0 = power_.data();
    double* a1 = a0 + d_;
    double* a2 = a1 + d_;
    double* a3 = a2 + d_;
    double* b0 = dpower_.data();
    double* b1 = b0 + d_;
    double* b2 = b1 + d_;
    for (int i = 0; i < d_; ++i) {
      const double p0 = p(i, 0);
      const double p1 = p(i, 1);
      const double p2 = p(i, 2);
      const double p3 = p(i, 3);
      a0[i] = p0;
      a1[i] = 3.0 * (p1 - p0);
      a2[i] = 3.0 * (p0 - 2.0 * p1 + p2);
      a3[i] = -p0 + 3.0 * p1 - 3.0 * p2 + p3;
      b0[i] = a1[i];
      b1[i] = 2.0 * a2[i];
      b2[i] = 3.0 * a3[i];
    }
    return;
  }
  // General degree: a_j = C(k,j) sum_{i<=j} (-1)^(j-i) C(j,i) p_i (the
  // PowerBasisCoefficientsInto formula) in the same coefficient-major
  // layout, so every degree rides the same Horner loops — and, in the
  // batch engine, the same vector kernels — as the cubic fast path.
  std::fill(power_.begin(), power_.end(), 0.0);
  for (int j = 0; j <= k_; ++j) {
    double* aj = power_.data() + static_cast<size_t>(j) * d_;
    const double ckj = static_cast<double>(Binomial(k_, j));
    for (int i = 0; i <= j; ++i) {
      const double sign = ((j - i) % 2 == 0) ? 1.0 : -1.0;
      const double w = ckj * sign * static_cast<double>(Binomial(j, i));
      for (int dim = 0; dim < d_; ++dim) aj[dim] += w * p(dim, i);
    }
  }
  // f' coefficients b_j = (j + 1) a_{j+1}; a degree-0 curve keeps the
  // single zero lane so Derivative stays branch-free.
  std::fill(dpower_.begin(), dpower_.end(), 0.0);
  for (int j = 0; j < k_; ++j) {
    const double* aj1 = power_.data() + static_cast<size_t>(j + 1) * d_;
    double* bj = dpower_.data() + static_cast<size_t>(j) * d_;
    for (int dim = 0; dim < d_; ++dim) {
      bj[dim] = static_cast<double>(j + 1) * aj1[dim];
    }
  }
}

void BezierEvalWorkspace::Evaluate(double s, double* out) {
  assert(bound());
  if (s == 0.0 || s == 1.0) {
    // End points are the end control points exactly (both the de Casteljau
    // and the Horner form would drift by an ulp or two at s = 1).
    const Matrix& p = curve_->control_points();
    const int col = (s == 0.0) ? 0 : k_;
    for (int i = 0; i < d_; ++i) out[i] = p(i, col);
    return;
  }
  if (horner_) {
    // Four stride-1 coefficient streams, no aliasing with out: the loop
    // autovectorises (one Horner per SIMD lane).
    const double* __restrict a0 = power_.data();
    const double* __restrict a1 = a0 + d_;
    const double* __restrict a2 = a1 + d_;
    const double* __restrict a3 = a2 + d_;
    for (int i = 0; i < d_; ++i) {
      out[i] = ((a3[i] * s + a2[i]) * s + a1[i]) * s + a0[i];
    }
    return;
  }
  // General-degree Horner, one descending coefficient pass per level. The
  // per-coordinate operation sequence (start at a_k, then acc = acc * s +
  // a_j) is exactly the sequence SquaredDistanceGeneralInterior runs
  // inline, so a precomputed f (the batch kernels' shared grid values) is
  // bit-identical to the per-point path.
  const double* ak = power_.data() + static_cast<size_t>(k_) * d_;
  for (int i = 0; i < d_; ++i) out[i] = ak[i];
  for (int j = k_ - 1; j >= 0; --j) {
    const double* aj = power_.data() + static_cast<size_t>(j) * d_;
    for (int i = 0; i < d_; ++i) out[i] = out[i] * s + aj[i];
  }
}

void BezierEvalWorkspace::Derivative(double s, double* out) {
  assert(bound());
  if (k_ == 0) {
    for (int i = 0; i < d_; ++i) out[i] = 0.0;
    return;
  }
  if (horner_) {
    const double* __restrict b0 = dpower_.data();
    const double* __restrict b1 = b0 + d_;
    const double* __restrict b2 = b1 + d_;
    for (int i = 0; i < d_; ++i) {
      out[i] = (b2[i] * s + b1[i]) * s + b0[i];
    }
    return;
  }
  // General-degree Horner over the k derivative coefficient lanes.
  const double* bk = dpower_.data() + static_cast<size_t>(k_ - 1) * d_;
  for (int i = 0; i < d_; ++i) out[i] = bk[i];
  for (int j = k_ - 2; j >= 0; --j) {
    const double* bj = dpower_.data() + static_cast<size_t>(j) * d_;
    for (int i = 0; i < d_; ++i) out[i] = out[i] * s + bj[i];
  }
}

double BezierEvalWorkspace::SquaredDistance(const double* x, double s) {
  assert(bound());
  if (s != 0.0 && s != 1.0) {
    // Fused Horner + residual + reduction in the reference ordering: four
    // dim-strided accumulator lanes, each an independent descending Horner
    // chain (for cubics, ((a3 s + a2) s + a1) s + a0 is exactly that
    // pass), combined in the fixed ((lane0 + lane1) + (lane2 + lane3)) +
    // tail order. Every route below produces bit-identical results — the
    // SimdOps contract — so the choice is purely about speed: the
    // backend's vector kernel wins once enough dimension chunks amortise
    // the indirect call (~2x at d = 32), while below that the inlined
    // reference wins — an indirect call per evaluation costs more than
    // four-wide SIMD saves on one or two latency-bound chunks, and the
    // single-row serving path evaluates this dozens of times per query.
    if (d_ >= kSimdPerPointDim) {
      return simd_->power_squared_distance(power_.data(), k_, d_, s, x);
    }
    if (horner_) {
      // The historical inline cubic path, kept verbatim: __restrict
      // coefficient streams and fully unrolled Horner chains. The same
      // operation sequence as the reference below with k = 3, but the
      // explicit form is measurably faster at serving's d = 2..8 (the
      // compiler does not recover the __restrict-quality code from the
      // generic loop).
      const double* __restrict a0 = power_.data();
      const double* __restrict a1 = a0 + d_;
      const double* __restrict a2 = a1 + d_;
      const double* __restrict a3 = a2 + d_;
      double lane0 = 0.0;
      double lane1 = 0.0;
      double lane2 = 0.0;
      double lane3 = 0.0;
      int i = 0;
      for (; i + 4 <= d_; i += 4) {
        const double f0 = ((a3[i] * s + a2[i]) * s + a1[i]) * s + a0[i];
        const double f1 =
            ((a3[i + 1] * s + a2[i + 1]) * s + a1[i + 1]) * s + a0[i + 1];
        const double f2 =
            ((a3[i + 2] * s + a2[i + 2]) * s + a1[i + 2]) * s + a0[i + 2];
        const double f3 =
            ((a3[i + 3] * s + a2[i + 3]) * s + a1[i + 3]) * s + a0[i + 3];
        const double e0 = x[i] - f0;
        const double e1 = x[i + 1] - f1;
        const double e2 = x[i + 2] - f2;
        const double e3 = x[i + 3] - f3;
        lane0 += e0 * e0;
        lane1 += e1 * e1;
        lane2 += e2 * e2;
        lane3 += e3 * e3;
      }
      double tail = 0.0;
      for (; i < d_; ++i) {
        const double f = ((a3[i] * s + a2[i]) * s + a1[i]) * s + a0[i];
        const double diff = x[i] - f;
        tail += diff * diff;
      }
      return ((lane0 + lane1) + (lane2 + lane3)) + tail;
    }
    return internal::RefPowerSquaredDistanceFused(power_.data(), k_, d_, s,
                                                  x);
  }
  Evaluate(s, value_.data());
  double sum = 0.0;
  for (int i = 0; i < d_; ++i) {
    const double diff = x[i] - value_[static_cast<size_t>(i)];
    sum += diff * diff;
  }
  return sum;
}

void BezierEvalWorkspace::GoldenRefineMulti(
    const double* xt, int lane_stride, int count, const double* lo,
    const double* hi, double tol, int max_iterations, double* s, double* dist,
    int* evaluations, unsigned char* endpoint) {
  assert(bound());
  simd_->golden_refine_multi(power_.data(), k_, d_, xt, lane_stride, count,
                             lo, hi, tol, max_iterations, s, dist,
                             evaluations, endpoint);
}

}  // namespace rpc::curve
