#ifndef RPC_OPT_BATCH_PROJECTION_H_
#define RPC_OPT_BATCH_PROJECTION_H_

#include <vector>

#include "common/thread_pool.h"
#include "curve/bezier.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "opt/curve_projection.h"

namespace rpc::opt {

/// Batch projection engine: projects every row of `data` (n x d) onto the
/// curve, partitioning rows across `pool` with one ProjectionWorkspace per
/// worker so the per-point hot loop performs no heap allocation.
///
/// Guarantees:
///   * Scores are bit-identical to the serial path (ProjectOntoCurve row by
///     row) for every ProjectionMethod and any thread count — each row runs
///     the exact same arithmetic, independent of partitioning.
///   * `total_squared_distance` (J of Eq. 19) is reduced sequentially in
///     row order from a per-row buffer, so it too is bit-identical across
///     thread counts.
///
/// `pool` may be null (or have parallelism 1): the loop then runs inline on
/// the calling thread, which is the serial ProjectRows behaviour.
linalg::Vector ProjectRowsBatch(const curve::BezierCurve& curve,
                                const linalg::Matrix& data,
                                const ProjectionOptions& options,
                                ThreadPool* pool,
                                double* total_squared_distance = nullptr);

/// Batch-of-curves evaluation: projects every row of `data` onto each of
/// the M `curves` in one sweep. Each RowBlock of rows is transposed into
/// the SoA tile once and scored against all M bound workspaces while the
/// tile is hot (ProjectionWorkspace::ProjectPackedBlock), so comparing
/// model candidates — or serving several model versions over one feature
/// batch — pays the pack and the row traffic once instead of M times.
/// Element m of the result is bit-identical to
/// ProjectRowsBatch(*curves[m], data, ...) with the same options (and
/// thus to the per-row serial path), as is totals' element m when
/// `total_squared_distances` is non-null (resized to M, row-ordered
/// reductions). All curves must share data.cols() as their dimension.
std::vector<linalg::Vector> ProjectRowsBatchMultiCurve(
    const std::vector<const curve::BezierCurve*>& curves,
    const linalg::Matrix& data, const ProjectionOptions& options,
    ThreadPool* pool, std::vector<double>* total_squared_distances = nullptr);

}  // namespace rpc::opt

#endif  // RPC_OPT_BATCH_PROJECTION_H_
