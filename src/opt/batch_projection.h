#ifndef RPC_OPT_BATCH_PROJECTION_H_
#define RPC_OPT_BATCH_PROJECTION_H_

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

}  // namespace rpc::opt

#endif  // RPC_OPT_BATCH_PROJECTION_H_
