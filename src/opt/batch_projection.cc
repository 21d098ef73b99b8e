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

std::vector<Vector> ProjectRowsBatchMultiCurve(
    const std::vector<const BezierCurve*>& curves, const Matrix& data,
    const ProjectionOptions& options, ThreadPool* pool,
    std::vector<double>* total_squared_distances) {
  const int m = static_cast<int>(curves.size());
  const int n = data.rows();
  std::vector<Vector> scores(static_cast<size_t>(m));
  for (Vector& v : scores) v = Vector(n);
  // Per-curve per-row squared distances; reduced per curve in row order so
  // each total matches the single-curve batch bitwise.
  std::vector<std::vector<double>> squared(static_cast<size_t>(m));
  for (auto& v : squared) v.resize(static_cast<size_t>(n));
  if (total_squared_distances != nullptr) {
    total_squared_distances->assign(static_cast<size_t>(m), 0.0);
  }
  if (m == 0 || n == 0) return scores;
  for (const BezierCurve* curve : curves) {
    assert(curve != nullptr && curve->dimension() == data.cols());
    (void)curve;
  }

  if (options.method == ProjectionMethod::kQuinticRoots) {
    // No grid stage to share across curves; the exact solver runs the
    // plain single-curve batch per curve.
    for (int c = 0; c < m; ++c) {
      double total = 0.0;
      scores[static_cast<size_t>(c)] =
          ProjectRowsBatch(*curves[static_cast<size_t>(c)], data, options,
                           pool, &total);
      if (total_squared_distances != nullptr) {
        (*total_squared_distances)[static_cast<size_t>(c)] = total;
      }
    }
    return scores;
  }

  const int parallelism = pool != nullptr ? pool->parallelism() : 1;
  const int workers = (parallelism <= 1 || n < 2) ? 1 : parallelism;
  // Worker w's workspace for curve c lives at [w * m + c]; one SoA block
  // per worker is packed once per chunk and scored against all m curves.
  std::vector<ProjectionWorkspace> workspaces(
      static_cast<size_t>(workers) * static_cast<size_t>(m));
  for (int w = 0; w < workers; ++w) {
    for (int c = 0; c < m; ++c) {
      workspaces[static_cast<size_t>(w) * m + c].Bind(
          *curves[static_cast<size_t>(c)], options);
    }
  }
  std::vector<RowBlock> blocks(static_cast<size_t>(workers));
  for (RowBlock& block : blocks) block.Bind(data.cols());

  const auto run_range = [&](std::int64_t begin, std::int64_t end,
                             int worker) {
    RowBlock& block = blocks[static_cast<size_t>(worker)];
    for (std::int64_t b = begin; b < end; b += RowBlock::kMaxRows) {
      const int chunk =
          static_cast<int>(std::min<std::int64_t>(RowBlock::kMaxRows, end - b));
      const double* rows = data.RowPtr(static_cast<int>(b));
      block.Pack(rows, chunk, data.cols());
      for (int c = 0; c < m; ++c) {
        ProjectionWorkspace& workspace =
            workspaces[static_cast<size_t>(worker) * m + c];
        workspace.ProjectPackedBlock(
            block, rows, data.cols(),
            scores[static_cast<size_t>(c)].data().data() + b,
            squared[static_cast<size_t>(c)].data() + b);
      }
    }
  };
  if (workers == 1) {
    run_range(0, n, 0);
  } else {
    // Block-aligned grain so chunks pack whole tiles.
    const std::int64_t grain = std::max<std::int64_t>(
        RowBlock::kMaxRows,
        (n + 4 * workers - 1) / (4 * workers));
    pool->ParallelFor(n, grain, run_range);
  }

  if (total_squared_distances != nullptr) {
    for (int c = 0; c < m; ++c) {
      double total = 0.0;
      const std::vector<double>& sq = squared[static_cast<size_t>(c)];
      for (int i = 0; i < n; ++i) total += sq[static_cast<size_t>(i)];
      (*total_squared_distances)[static_cast<size_t>(c)] = total;
    }
  }
  return scores;
}

}  // namespace rpc::opt
