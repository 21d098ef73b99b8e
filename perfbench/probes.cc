#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/thread_pool.h"
#include "curve/simd_backend.h"
#include "data/normalizer.h"
#include "opt/batch_projection.h"
#include "opt/curve_projection.h"
#include "opt/row_block.h"
#include "workloads.h"

namespace perfbench {

using rpc::linalg::Matrix;

void ProbeLayers(const Matrix& raw, const Matrix& normalized,
                 const rpc::curve::BezierCurve& curve,
                 std::map<std::string, double>* layer) {
  // curve: one fused tile sweep per grid point over a packed block, the
  // unit the projection grid stage repeats.
  const rpc::curve::SimdOps& simd = rpc::curve::ActiveSimd();
  const int d = normalized.cols();
  const int rows = std::min(normalized.rows(), rpc::opt::RowBlock::kMaxRows);
  rpc::opt::RowBlock block;
  block.Bind(d);
  block.Pack(normalized.RowPtr(0), rows, d);
  const rpc::linalg::Vector f = curve.Evaluate(0.37);
  std::vector<double> dist(static_cast<size_t>(rows));
  constexpr int kSweeps = 20000;
  double sink = 0.0;
  const std::int64_t kernel_start = NowNs();
  for (int i = 0; i < kSweeps; ++i) {
    simd.tile_squared_distances_fused(block.tile(),
                                      rpc::opt::RowBlock::kLaneStride, d,
                                      rows, f.data().data(), dist.data());
    sink += dist[static_cast<size_t>(i % rows)];
  }
  const double kernel_ns = static_cast<double>(NowNs() - kernel_start);
  (*layer)["curve.kernel_ns_per_row"] =
      kernel_ns / (static_cast<double>(kSweeps) * rows);
  // Computed, not measured: each row reads d tile doubles and writes one
  // distance.
  (*layer)["curve.kernel_bytes_per_row"] = 8.0 * (d + 1);
  std::fprintf(stderr, "perfbench: simd backend %s (checksum %.6g)\n",
               rpc::curve::BackendName(), sink);

  const std::int64_t norm_start = NowNs();
  auto normalizer = rpc::data::Normalizer::Fit(raw);
  if (normalizer.ok()) {
    const Matrix transformed = normalizer->Transform(raw);
    const double s = SecondsSince(norm_start);
    (*layer)["data.normalize_rows_per_s"] =
        s > 0.0 ? transformed.rows() / s : 0.0;
  }

  rpc::ThreadPool pool(2);
  const std::int64_t project_start = NowNs();
  const rpc::linalg::Vector scores = rpc::opt::ProjectRowsBatch(
      curve, normalized, rpc::opt::ProjectionOptions(), &pool);
  const double s = SecondsSince(project_start);
  (*layer)["opt.project_rows_per_s"] = s > 0.0 ? scores.size() / s : 0.0;
}

}  // namespace perfbench
