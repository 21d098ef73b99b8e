#ifndef RPC_CURVE_SIMD_BACKEND_H_
#define RPC_CURVE_SIMD_BACKEND_H_

#include <vector>

namespace rpc::curve {

/// Vector instruction sets the projection grid kernels can run on. Every
/// binary carries kScalar; the others are compiled when the toolchain
/// supports their architecture flags and selected at load when the CPU
/// reports the feature (see ActiveSimd).
enum class SimdBackendKind {
  kScalar = 0,
  kAvx2,
  kAvx512,
  kNeon,
};

/// One backend's kernel table, four kernels. The two tile kernels read a
/// structure-of-arrays tile (opt::RowBlock layout): coordinate j of the
/// block's rows is the contiguous lane tile[j * lane_stride .. j *
/// lane_stride + rows), so they vectorise across rows — one row per SIMD
/// lane — instead of across dimensions. power_squared_distance is the
/// per-point refinement evaluation and vectorises across dimensions. The
/// task kernel golden_refine_multi reads a task-major tile of the same
/// shape and vectorises across refinement tasks, one task per lane, each
/// lane running its task's whole Golden Section Search.
///
/// Bit-identity contract: every kernel performs, per row, exactly the
/// floating-point operation sequence of the scalar reference (the orderings
/// BezierEvalWorkspace::SquaredDistance defines), with rows merely placed
/// in parallel lanes. No lane ever holds a partial sum that crosses rows,
/// no backend may reassociate the per-row reduction, and no backend may
/// contract multiply+add into an FMA (the reference never does). Under this
/// contract every backend's output is bit-identical to kScalar's, which is
/// what the cross-backend fuzz test asserts and what keeps the repo's
/// thread-count and serving bit-identity invariants backend-independent.
struct SimdOps {
  SimdBackendKind kind;
  /// Stable lowercase name ("scalar", "avx2", "avx512", "neon"); the
  /// RPC_SIMD_BACKEND override matches against it.
  const char* name;

  /// dist[i] = ||x_i - f||^2 for each row i of the tile, in the *fused
  /// reference ordering*: four dim-strided accumulators (lane p sums the
  /// squared residuals of dimensions p, p+4, p+8, ...) combined as
  /// ((l0 + l1) + (l2 + l3)), plus a sequential tail over the d % 4
  /// trailing dimensions. This is the ordering the scalar per-point hot
  /// path (BezierEvalWorkspace::SquaredDistance at interior s) uses, with
  /// the curve value f precomputed once per grid point instead of
  /// re-evaluated per row.
  void (*tile_squared_distances_fused)(const double* tile, int lane_stride,
                                       int d, int rows, const double* f,
                                       double* dist);

  /// dist[i] = ||x_i - f||^2 in the *sequential reference ordering*: one
  /// accumulator, dimensions in order. This is the ordering the scalar path
  /// uses at the s = 0 / s = 1 endpoints (where f is the exact end control
  /// point rather than a Horner value).
  void (*tile_squared_distances_seq)(const double* tile, int lane_stride,
                                     int d, int rows, const double* f,
                                     double* dist);

  /// ||x - f(s)||^2 for ONE point against the curve in coefficient-major
  /// power basis (`power` row j = the d coefficients of s^j, rows 0..k
  /// contiguous) at interior s — the per-point hot path the refinement
  /// stages (Golden Section, the grid fallback) evaluate dozens of times
  /// per row. Vectorises across *dimensions* rather than rows: the fused
  /// reference ordering's four dim-strided lanes each run an independent
  /// descending Horner (f = a_k; f = f * s + a_j), so a backend may place
  /// the four lanes of a chunk in parallel SIMD lanes — wider vectors gain
  /// nothing here, the lane structure is fixed by the reference — and must
  /// still combine ((l0 + l1) + (l2 + l3)) + tail in that exact order.
  double (*power_squared_distance)(const double* power, int k, int d,
                                   double s, const double* x);

  /// A whole Golden Section Search per lane: for each of `count` tasks
  /// (coordinates in the task-major column xt[j * lane_stride + t])
  /// minimises ||x_t - f(s)||^2 over the bracket [lo[t], hi[t]] and
  /// writes the minimiser s_out[t], its squared distance dist_out[t] and
  /// the number of objective evaluations evaluations[t]. This is the
  /// engine under the block path's lock-step refinement (see
  /// ProjectionWorkspace::RefineGoldenBlock): each lane runs its bracket's
  /// entire search in registers, so the per-round bookkeeping vectorises
  /// along with the evaluations.
  ///
  /// Per lane the result must equal opt::GoldenSectionMinimizeWith(f,
  /// lo[t], hi[t], tol, max_iterations) exactly, with f the
  /// power_squared_distance objective: the narrow-bracket midpoint
  /// (h <= tol: one evaluation), the fc < fd branch, the
  /// `iter < max_iterations && h > tol` loop test, the result selection
  /// and the evaluation count — explicit mul/add and mask/blend selects
  /// only, no FMA. The objective is the *interior* ordering at every probe;
  /// a probe landing exactly on s = 0.0 or 1.0 (where the per-point path
  /// takes its exact-endpoint branch instead) sets endpoint[t] to 1, and
  /// the caller must redo that lane through the per-point search. Lanes
  /// left over after the last full vector run the shared reference.
  void (*golden_refine_multi)(const double* power, int k, int d,
                              const double* xt, int lane_stride, int count,
                              const double* lo, const double* hi, double tol,
                              int max_iterations, double* s_out,
                              double* dist_out, int* evaluations,
                              unsigned char* endpoint);
  /// Tasks golden_refine_multi runs per vector (1 for kScalar). Tasks
  /// left over after the last full vector run the scalar reference one
  /// after another, so a caller may pad `count` up to a multiple of this
  /// with dummy tasks whose results it drops (see
  /// opt::ProjectionWorkspace::RunGoldenWave).
  int golden_lanes;
};

/// The backend the process is using: chosen once, on first use, by CPU
/// feature detection (AVX-512 > AVX2 > NEON > scalar among the backends
/// compiled into the binary), overridable with the RPC_SIMD_BACKEND
/// environment variable ("scalar", "avx2", "avx512", "neon"; an
/// unavailable or unknown name falls back to auto-detection with a warning
/// on stderr). Thread-safe.
const SimdOps& ActiveSimd();
SimdBackendKind ActiveSimdKind();

/// Name of the active backend — deployments print this (see
/// examples/serving_demo.cpp) to verify what they are running.
const char* BackendName();

/// Stable name for a backend kind (whether or not it is available).
const char* SimdBackendName(SimdBackendKind kind);

/// Every backend compiled into this binary that the running CPU supports;
/// index 0 is always the scalar backend. The cross-backend equivalence
/// tests and the per-backend bench rows iterate this.
std::vector<const SimdOps*> AvailableSimdBackends();

/// Forces the active backend (benches and tests; the env override covers
/// deployments). Returns false — leaving the active backend unchanged —
/// when the requested backend is not compiled in or not supported by this
/// CPU. Not synchronised against concurrently running projections; call it
/// only between sweeps.
bool SetSimdBackend(SimdBackendKind kind);

}  // namespace rpc::curve

#endif  // RPC_CURVE_SIMD_BACKEND_H_
