// The three workloads and the layer probes they share. Each workload pass
// drives the library only through its public calls and returns a
// PassResult; perfbench.cc turns passes into the printed result.
#ifndef RPC_PERFBENCH_WORKLOADS_H_
#define RPC_PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>

#include "curve/bezier.h"
#include "harness.h"
#include "linalg/matrix.h"

namespace perfbench {

/// Offline cold fits at production n (Algorithm 1 through RpcRanker::Fit).
PassResult RunFitCold(const Args& args, double seconds, bool traced);
/// Open-loop point + bulk ranking against one RankingService.
PassResult RunServeMixed(const Args& args, double seconds, bool traced);
/// Streamed writes with a replicated standby, live reads and recovery.
PassResult RunStreamLive(const Args& args, double seconds, bool traced);

/// Layer probes, each timed around one public call on the workload's own
/// data and written into `layer`:
///   curve.kernel_ns_per_row / curve.kernel_bytes_per_row — the active
///     SIMD backend's fused tile kernel over one packed opt::RowBlock
///     (bytes are computed from the tile size, not measured);
///   data.normalize_rows_per_s — data::Normalizer::Fit + Transform;
///   opt.project_rows_per_s — opt::ProjectRowsBatch on `curve` with a
///     2-thread pool, the size the fit and the service use.
/// `normalized` must already be in the curve's [0,1]^d space.
void ProbeLayers(const rpc::linalg::Matrix& raw,
                 const rpc::linalg::Matrix& normalized,
                 const rpc::curve::BezierCurve& curve,
                 std::map<std::string, double>* layer);

}  // namespace perfbench

#endif  // RPC_PERFBENCH_WORKLOADS_H_
