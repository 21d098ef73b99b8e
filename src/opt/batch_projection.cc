#include "opt/batch_projection.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace rpc::opt {

using curve::BezierCurve;
using linalg::Matrix;
using linalg::Vector;

Vector ProjectRowsBatch(const BezierCurve& curve, const Matrix& data,
                        const ProjectionOptions& options, ThreadPool* pool,
                        double* total_squared_distance) {
  assert(data.cols() == curve.dimension() || data.rows() == 0);
  const int n = data.rows();
  Vector scores(n);
  // Per-row squared distances; the final reduction runs in row order so the
  // total is independent of the partitioning.
  std::vector<double> squared(static_cast<size_t>(n));

  const int parallelism = pool != nullptr ? pool->parallelism() : 1;
  if (parallelism <= 1 || n < 2) {
    ProjectionWorkspace workspace;
    workspace.Bind(curve, options);
    if (n > 0) {
      // SoA block sweep: the grid stage runs through the active SIMD
      // backend, bit-identical to the per-row Project loop it replaces.
      workspace.ProjectBlock(data.RowPtr(0), n, data.cols(),
                             scores.data().data(), squared.data());
    }
  } else {
    std::vector<ProjectionWorkspace> workspaces(
        static_cast<size_t>(parallelism));
    for (ProjectionWorkspace& w : workspaces) w.Bind(curve, options);
    // ~4 chunks per worker: enough slack for dynamic load balancing, few
    // enough that chunk dispatch stays negligible next to the projections.
    const std::int64_t grain = std::max<std::int64_t>(
        1, (n + 4 * parallelism - 1) / (4 * parallelism));
    pool->ParallelFor(
        n, grain,
        [&](std::int64_t begin, std::int64_t end, int worker) {
          ProjectionWorkspace& workspace =
              workspaces[static_cast<size_t>(worker)];
          workspace.ProjectBlock(data.RowPtr(static_cast<int>(begin)),
                                 static_cast<int>(end - begin), data.cols(),
                                 scores.data().data() + begin,
                                 squared.data() + begin);
        });
  }

  if (total_squared_distance != nullptr) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += squared[static_cast<size_t>(i)];
    *total_squared_distance = total;
  }
  return scores;
}

}  // namespace rpc::opt
