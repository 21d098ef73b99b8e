#ifndef RPC_CURVE_CUBIC_BEZIER_H_
#define RPC_CURVE_CUBIC_BEZIER_H_

#include "curve/bezier.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace rpc::curve {

/// The constant 4x4 cubic Bernstein-to-power-basis matrix M of Eq. (15):
/// row r of M dotted with z = (1, s, s^2, s^3)^T gives B_r^3(s).
const linalg::Matrix& CubicM();

/// z(s) = (1, s, s^2, s^3)^T.
linalg::Vector CubicZ(double s);

/// The 4 x n matrix Z of Eq. (23) whose columns are z(s_i).
linalg::Matrix CubicZMatrix(const linalg::Vector& scores);

/// Evaluates f(s) = P M z for a d x 4 control-point matrix P. Matches
/// BezierCurve::Evaluate for degree 3; kept as the paper's matrix form.
/// The learner does not use it: its callers are bench_scaling and
/// bench_ablation_update's dense baseline.
linalg::Vector EvaluateCubic(const linalg::Matrix& p, double s);

/// Reconstruction matrix P M Z (d x n): column i is f(s_i).
linalg::Matrix ReconstructCubic(const linalg::Matrix& p,
                                const linalg::Vector& scores);

/// Sum of squared residuals J(P, s) = ||X^T - P M Z||_F^2 where rows of
/// `data` are observations (Eq. 24 up to transposition).
double CubicResidual(const linalg::Matrix& p, const linalg::Matrix& data,
                     const linalg::Vector& scores);

}  // namespace rpc::curve

#endif  // RPC_CURVE_CUBIC_BEZIER_H_
