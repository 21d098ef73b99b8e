#ifndef RPC_CURVE_BEZIER_H_
#define RPC_CURVE_BEZIER_H_

#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace rpc::curve {

struct SimdOps;

/// A degree-k Bezier curve in R^d, f(s) = sum_r B_r^k(s) p_r for s in [0,1]
/// (Eq. 12). Control points are stored as a d x (k+1) matrix whose columns
/// are p_0 .. p_k — the same layout as the paper's P in Eq. (15).
class BezierCurve {
 public:
  BezierCurve() = default;
  /// Columns of `control_points` are p_0 .. p_k. Degree is cols - 1.
  explicit BezierCurve(linalg::Matrix control_points);

  int degree() const { return points_.cols() - 1; }
  int dimension() const { return points_.rows(); }
  const linalg::Matrix& control_points() const { return points_; }
  linalg::Vector ControlPoint(int r) const { return points_.Column(r); }

  /// Replaces the control points in place, reusing the existing buffer when
  /// the new d x (k+1) shape fits its capacity — the learner's outer loop
  /// mutates its working curve this way every iteration instead of
  /// constructing a fresh BezierCurve. Any BezierEvalWorkspace or
  /// ProjectionWorkspace bound to this curve holds stale per-curve state
  /// afterwards and must re-Bind before its next evaluation.
  void SetControlPoints(const linalg::Matrix& control_points);

  /// Curve value f(s) via a precomputed power-basis Horner form (see
  /// BezierEvalWorkspace): equally accurate as de Casteljau on the
  /// library's normalised [0,1]^d domain, though it can lose digits to
  /// cancellation for control points of large magnitude or high degree.
  linalg::Vector Evaluate(double s) const;

  /// First derivative f'(s) = k * sum_j B_j^{k-1}(s) (p_{j+1} - p_j)
  /// (Eq. 17).
  linalg::Vector Derivative(double s) const;

  /// The derivative as a lower-degree Bezier curve (hodograph).
  BezierCurve DerivativeCurve() const;

  /// Caller-buffer variant: writes the hodograph into *out, reusing its
  /// buffers (allocation-free once shapes have settled). Same values as
  /// DerivativeCurve, which wraps this. ProjectionWorkspace rebinds its
  /// hodograph state through here every outer iteration.
  void DerivativeCurveInto(BezierCurve* out) const;

  /// Power-basis coefficients: column j of the returned d x (k+1) matrix is
  /// the vector a_j with f(s) = sum_j a_j s^j. Used by the exact quintic
  /// projection (Eq. 20).
  linalg::Matrix PowerBasisCoefficients() const;

  /// Caller-buffer variant of PowerBasisCoefficients (which wraps this);
  /// *out is reshaped in place.
  void PowerBasisCoefficientsInto(linalg::Matrix* out) const;

  /// n+1 evenly spaced samples f(0), f(1/n), ..., f(1), as rows.
  linalg::Matrix Sample(int n) const;

  /// Squared distance ||x - f(s)||^2; helper for projections.
  double SquaredDistanceAt(const linalg::Vector& x, double s) const;

  /// Applies the affine map x -> scale .* x + shift per coordinate; by the
  /// invariance property (Eq. 16) only control points change.
  BezierCurve AffineTransformed(const linalg::Vector& scale,
                                const linalg::Vector& shift) const;

  /// Polyline length of a dense sampling; adequate arc-length proxy.
  double ApproximateLength(int samples = 256) const;

  /// Splits the curve at parameter s into the two sub-curves covering
  /// [0, s] and [s, 1] (de Casteljau subdivision). Each sub-curve has the
  /// same degree and traces exactly the corresponding arc.
  std::pair<BezierCurve, BezierCurve> Subdivide(double s) const;

  /// The same curve expressed with degree k+1 (degree elevation): shape is
  /// unchanged, the control polygon moves toward the curve.
  BezierCurve Elevated() const;

  /// Per-coordinate parameter locations of interior extrema (roots of
  /// f_j'(s) in (0,1)); empty inner vectors mean the coordinate is
  /// monotone on [0,1]. A strictly monotone RPC has no interior extrema in
  /// any coordinate.
  std::vector<std::vector<double>> CoordinateExtrema(
      double tol = 1e-10) const;

 private:
  linalg::Matrix points_;  // d x (k+1)
};

/// Caller-owned scratch buffers for allocation-free curve evaluation.
///
/// `Bind` precomputes the power-basis coefficients of the curve and its
/// derivative — in the coefficient-major layout (all a_0, then all a_1,
/// ...) whose stride-1 streams the vector kernels want — so evaluation is
/// a k-step Horner loop per coordinate for every degree, with the paper's
/// fixed k = 3 additionally riding a fully unrolled cubic fast path. After
/// the Bind, Evaluate / Derivative / SquaredDistance perform no heap
/// allocation — this is the engine under the batch projection hot path,
/// where the per-call `Vector` returns of the BezierCurve methods cost
/// millions of allocations per fit.
///
/// The workspace holds a pointer to the bound curve; the curve must outlive
/// the binding. Rebinding to another curve (or the same curve after its
/// control points changed) is cheap and reuses the buffers.
class BezierEvalWorkspace {
 public:
  BezierEvalWorkspace() = default;

  void Bind(const BezierCurve& curve);
  bool bound() const { return curve_ != nullptr; }
  const BezierCurve* curve() const { return curve_; }

  /// Writes f(s) into out[0..d). Exactly the bound curve's end control
  /// points at s = 0 and s = 1.
  void Evaluate(double s, double* out);
  /// Writes f'(s) into out[0..d).
  void Derivative(double s, double* out);
  /// ||x - f(s)||^2 for a contiguous d-entry x. At interior s this runs
  /// the fused reference ordering — inlined for small d, through the
  /// active SIMD backend's power_squared_distance kernel (captured at
  /// Bind) for large d; both routes are bit-identical, see SimdOps in
  /// simd_backend.h.
  double SquaredDistance(const double* x, double s);
  /// A whole Golden Section Search per task over [lo[t], hi[t]] for
  /// `count` tasks whose coordinates live in the task-major column
  /// xt[j * lane_stride + t], through the active backend's
  /// SimdOps::golden_refine_multi (see there for the per-lane contract).
  /// Each lane equals GoldenSectionMinimizeWith over SquaredDistance
  /// unless endpoint[t] is set — a probe hit s = 0 or 1, where
  /// SquaredDistance takes its exact-endpoint branch — in which case the
  /// caller must redo that task through the per-point search. This is the
  /// lock-step refinement engine's primitive (see
  /// opt::ProjectionWorkspace::RefineGoldenBlock).
  void GoldenRefineMulti(const double* xt, int lane_stride, int count,
                         const double* lo, const double* hi, double tol,
                         int max_iterations, double* s, double* dist,
                         int* evaluations, unsigned char* endpoint);

 private:
  const BezierCurve* curve_ = nullptr;
  const SimdOps* simd_ = nullptr;  // active backend, captured at Bind
  int k_ = -1;
  int d_ = 0;
  bool horner_ = false;         // degree-3 unrolled fast path
  // Coefficient-major (all a_0, then all a_1, ...): the Horner loops read
  // stride-1 streams so they autovectorise.
  std::vector<double> power_;   // (k+1) x d, f coefficients, ascending
  std::vector<double> dpower_;  // max(k,1) x d, f' coefficients, ascending
  std::vector<double> value_;   // d scratch for SquaredDistance
};

}  // namespace rpc::curve

#endif  // RPC_CURVE_BEZIER_H_
