#ifndef RPC_CORE_FIT_WORKSPACE_H_
#define RPC_CORE_FIT_WORKSPACE_H_

#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "curve/bernstein.h"
#include "linalg/matrix.h"
#include "linalg/pinv.h"
#include "linalg/vector.h"
#include "opt/richardson.h"

namespace rpc::core {

/// Step 5 configuration: the slice of RpcLearnOptions the control-point
/// update consumes.
struct ControlUpdateOptions {
  /// Use the direct pseudo-inverse solve P = X (MZ)^+ (Eq. 26) instead of
  /// Richardson — the ill-conditioned baseline of ablation E11.
  bool use_pseudo_inverse_update = false;
  /// Richardson steps per outer iteration (Eq. 27).
  int richardson_steps = 4;
  opt::RichardsonOptions richardson;
};

/// Rows per accumulation segment of AccumulateNormalEquations. The
/// segmentation is a property of the *data size only* — never of the thread
/// count — and partial sums are merged in segment order, so the accumulated
/// Gram/cross matrices are bit-identical for every thread count. A dataset
/// that fits one segment (n <= kFitSegmentRows, i.e. every unit-test
/// fixture) reduces to the plain streaming sweep, which itself matches the
/// historical dense design-matrix path bit for bit.
inline constexpr int kFitSegmentRows = 4096;

/// Persistent scratch for the Step 5 control-point update of Algorithm 1
/// (Li, Mei & Hu, ICDE 2016): the streaming Bernstein Gram/cross
/// accumulators, the Richardson workspace behind Eq. (27) and the
/// pseudo-inverse workspace behind Eq. (26) all live here, sized once by
/// Bind() and reused across outer iterations *and* restarts. After the
/// first Bind, steady-state AccumulateNormalEquations +
/// UpdateControlPoints perform zero heap allocations (asserted by
/// tests/core/fit_allocation_test.cc); the (k+1) x n design matrix the
/// pre-workspace update materialised every iteration is gone entirely.
///
/// Not thread-safe: one workspace per concurrently running fit (the
/// learner keeps one per restart worker). The *interior* of
/// AccumulateNormalEquations may fan segments out across a pool.
class FitWorkspace {
 public:
  FitWorkspace() = default;
  FitWorkspace(const FitWorkspace&) = delete;
  FitWorkspace& operator=(const FitWorkspace&) = delete;
  FitWorkspace(FitWorkspace&&) = default;
  FitWorkspace& operator=(FitWorkspace&&) = default;

  /// Sizes every buffer for an n x d dataset and a degree-k curve.
  /// Idempotent and cheap when the shape is unchanged (the restart /
  /// outer-iteration path); reallocates only on a shape change.
  void Bind(int n, int d, int degree);
  bool bound() const { return n_ > 0; }

  /// Streams the normal equations of Eq. (26) for the current scores:
  ///   gram  = (MZ)(MZ)^T   ((k+1) x (k+1)),
  ///   cross = X^T (MZ)^T   (d x (k+1)),
  /// accumulated over fixed kFitSegmentRows-row segments — in parallel
  /// across `pool` when it has workers and there is more than one segment —
  /// then reduced in segment order. Bit-identical for every thread count
  /// (pool may be null).
  void AccumulateNormalEquations(const linalg::Matrix& data,
                                 const linalg::Vector& scores,
                                 ThreadPool* pool);

  /// The accumulated matrices; valid until the next Accumulate call.
  const linalg::Matrix& gram() const { return total_.gram(); }
  const linalg::Matrix& cross() const { return total_.cross(); }

  /// Fused projection+accumulation access: the Step 4 projection pass
  /// (opt::IncrementalProjector::SetFusedAccumulators) streams each
  /// projected row straight into these per-segment accumulators, and
  /// ReduceFusedSegments() then merges them in segment order — the same
  /// ordered reduction AccumulateNormalEquations runs, so gram()/cross()
  /// are bit-identical to the separate sweep for every thread count. This
  /// removes the one remaining O(n) re-read of the dataset per outer
  /// iteration.
  std::vector<curve::BernsteinDesignAccumulator>* fused_segments() {
    return &segments_;
  }
  int num_segments() const { return num_segments_; }
  void ReduceFusedSegments();

  /// Step 5: updates *control (d x (k+1)) in place from the accumulated
  /// normal equations — Eq. (26) via the symmetric pseudo-inverse or
  /// `richardson_steps` preconditioned Richardson steps of Eq. (27). The
  /// arithmetic matches the historical allocating path bit for bit. On
  /// error *control may be partially updated; the learner aborts the fit.
  Status UpdateControlPoints(const ControlUpdateOptions& options,
                             linalg::Matrix* control);

 private:
  int n_ = 0;
  int d_ = 0;
  int degree_ = -1;
  int num_segments_ = 0;
  curve::BernsteinDesignAccumulator total_;
  std::vector<curve::BernsteinDesignAccumulator> segments_;
  opt::RichardsonWorkspace richardson_;
  linalg::SymmetricPinvWorkspace pinv_;
  linalg::Matrix gram_pinv_;  // (k+1)^2 scratch for the Eq. (26) path
};

}  // namespace rpc::core

#endif  // RPC_CORE_FIT_WORKSPACE_H_
