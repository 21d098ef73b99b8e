#ifndef RPC_SERVE_RANKING_SERVICE_H_
#define RPC_SERVE_RANKING_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bounded_queue.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/model_io.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "obs/buckets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/curve_projection.h"

namespace rpc::obs {
class TelemetrySink;
}  // namespace rpc::obs

namespace rpc::serve {

/// Priority classes for admitted work; lower value = more important. The
/// admission queue serves kInteractive before kBatch before kBackground,
/// and the shedding policy drops the deep classes first under saturation.
enum class QueryPriority : int {
  kInteractive = 0,  // latency-sensitive user traffic
  kBatch = 1,        // bulk scoring with relaxed latency needs
  kBackground = 2,   // best-effort fill (re-scoring, analytics)
};
inline constexpr int kNumPriorities = 3;

/// What happens when the admission queue cannot take the query right now.
enum class AdmissionPolicy {
  kBlock,   // wait for room (backpressure); bounded by the deadline if set
  kReject,  // refuse immediately with kFailedPrecondition (load shedding)
};

/// Returns an absolute deadline `budget` from now, for QueryOptions.
inline std::chrono::steady_clock::time_point QueryDeadline(
    std::chrono::nanoseconds budget) {
  return std::chrono::steady_clock::now() + budget;
}

/// Per-query policy for RankingService::Query. The default blocks for
/// admission, sets no deadline and uses the dataset's default priority
/// class.
struct QueryOptions {
  /// Absolute wall-clock bound (steady clock). Checked at admission, at
  /// segment dequeue and between rows; once it passes the query fails with
  /// kDeadlineExceeded and its remaining work is cancelled cooperatively.
  /// time_point::max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Full-queue behaviour; see AdmissionPolicy.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Priority class; unset = the dataset's default (DatasetOptions).
  std::optional<QueryPriority> priority;
  /// Trace-context propagation: 0 (the default) allocates a fresh trace id
  /// per query while obs tracing is runtime-enabled; a nonzero id threads
  /// an external trace through this query (and forces span emission even
  /// when auto-tracing is off). The id used is reported back in
  /// QueryTrace::trace_id; its spans are readable via obs::CollectTrace.
  obs::TraceId trace_id = 0;
  /// Per-query override of Options::slow_query_threshold; unset = the
  /// service default.
  std::optional<std::chrono::nanoseconds> slow_query_threshold;
};

/// Per-dataset serving policy, fixed at registration.
struct DatasetOptions {
  /// Priority class used for queries that do not set QueryOptions::priority.
  QueryPriority default_priority = QueryPriority::kInteractive;
};

/// How much of the admission queue each priority class may fill: a push of
/// class p is admitted only while total queue occupancy is below
/// queue_share[p] * capacity (clamped to at least one slot). Class 0 at
/// share 1.0 may always use the whole queue; deeper classes hit their
/// watermark first, so under saturation low-priority load sheds (kReject)
/// or waits (kBlock) while interactive traffic still gets through.
struct SheddingPolicy {
  std::array<double, kNumPriorities> queue_share{1.0, 0.75, 0.5};
};

/// Observability for one answered query, filled by Query on success.
struct QueryTrace {
  /// Time from entering Query until the last segment was admitted to the
  /// execution queue.
  std::chrono::nanoseconds admission_wait{0};
  /// Remaining time until the result was complete (execution + ranking).
  std::chrono::nanoseconds execution_time{0};
  /// Execution segments this query was split into.
  int segments = 0;
  /// The obs trace id this query's spans were emitted under (0 = untraced).
  obs::TraceId trace_id = 0;
};

/// The answer to one Query.
struct RankedBatch {
  /// Projection score s in [0,1] per input row (higher = ranked better);
  /// bit-identical to RpcRanker::Score on the same raw row for the model
  /// the shard was loaded from.
  linalg::Vector scores;
  /// 1-based rank per input row within this batch (best = 1); ties broken
  /// toward the lower row index, exactly like rank::RankingList.
  std::vector<int> ranks;
  /// Where this query's latency went; see QueryTrace.
  QueryTrace trace;
};

/// Fixed-bucket latency histogram: bucket i counts queries whose total
/// latency fell in [2^i, 2^(i+1)) microseconds (bucket 0 additionally
/// holds sub-microsecond queries; the last bucket is unbounded above, at
/// 2^19 us ~ 0.5 s). Coarse by design: enough to read p50/p99 drift from
/// stats() without a profiler, cheap enough for one relaxed atomic
/// increment per query. The bucket scheme itself lives in obs/buckets.h —
/// one definition shared with the registry histograms, so this struct is a
/// plain view over the same distribution the exporters publish.
struct LatencyHistogram {
  static constexpr int kNumBuckets = obs::kLatencyBuckets;
  std::array<std::int64_t, kNumBuckets> buckets{};

  std::int64_t total() const;
  /// Upper bucket edge (in us) of the bucket containing quantile q in
  /// [0, 1]; 0 when the histogram is empty.
  double QuantileUpperBoundUs(double q) const;
};

/// Service-wide counters; monotone except datasets/peak_queue_depth.
struct ServiceStats {
  std::int64_t queries = 0;        // batches fully served
  std::int64_t rows = 0;           // rows scored across all queries
  std::int64_t segments = 0;       // execution segments dispatched
  std::int64_t rejected = 0;       // admissions refused (shed or shutdown)
  std::int64_t registrations = 0;  // shards published (incl. replacements)
  std::int64_t deadline_expired = 0;   // queries failed with kDeadlineExceeded
  std::int64_t expired_segments = 0;   // segments skipped/abandoned once their
                                       // query's deadline had passed
  // Always 0: no query shares a segment with another. Kept because
  // perfbench's serve_mixed and stream_live still read it.
  std::int64_t coalesced_queries = 0;
  /// Admissions refused per priority class (indexed by QueryPriority).
  std::array<std::int64_t, kNumPriorities> shed_by_priority{};
  /// Total latency distribution of successfully answered queries.
  LatencyHistogram latency;
  int datasets = 0;                // shards currently resident
  int peak_queue_depth = 0;        // admission-queue high-water mark
};

/// Multi-dataset ranking serving tier: the read-heavy half of the paper's
/// workload. A model is fit (and persisted) once, then queried many times —
/// new objects are ranked by projecting them onto the already-learned
/// principal curve. RankingService holds N independent shards, one per
/// registered dataset id, each owning
///
///   * a loaded core::PortableRpcModel (the {alpha, mins, maxs, control
///     points} white box from core/model_io),
///   * its validated curve plus the per-curve state opt::ProjectionWorkspace
///     precomputes at bind time (hodograph, coefficient-major power basis),
///   * a pool of workspaces bound to that curve (BindShared, so the model
///     outlives any swap/evict while checked out), sized to the thread pool.
///
/// Queries enter through one entry point — Query(dataset_id, rows,
/// QueryOptions) — where the options carry the whole admission policy:
///
///   * deadline: checked at admission, again when a segment is dequeued,
///     and between rows while executing; expired work is cancelled
///     cooperatively and accounted (no zombie segments burning pool time
///     after the caller has given up).
///   * admission: kBlock waits for queue room (backpressure), kReject
///     refuses immediately (load shedding).
///   * priority: three classes routed through a priority-lane admission
///     queue (interactive overtakes batch overtakes background) with
///     per-class occupancy watermarks (Options::shedding) so low-priority
///     load is dropped first under saturation.
///
/// Execution: admitted segments run on the shared common::ThreadPool. Each
/// segment checks a workspace out of its shard's free list, scores its rows
/// — normalise, project, done, with no heap allocation per row — and
/// returns the workspace. Lifecycle is copy-on-write: RegisterDataset
/// builds the complete replacement shard before atomically swapping the map
/// entry, and EvictDataset only drops the map reference, so an in-flight
/// query always finishes against the exact model snapshot it was admitted
/// with — never a torn one.
///
/// Thread safety: every public method may be called concurrently from any
/// number of threads. Destroying the service while queries are in flight is
/// a caller error (the destructor drains the queue first, but the caller
/// threads blocked in Query must have returned).
class RankingService {
 public:
  struct Options {
    /// Worker-thread budget for the shared execution pool; same convention
    /// as common::ThreadPool — 0 = hardware concurrency, 1 = fully serial
    /// (queries then execute inline in the calling thread).
    int num_threads = 0;
    /// Capacity of the admission queue, counted in segments. Full queue =
    /// backpressure.
    int queue_capacity = 256;
    /// Bound workspaces per shard; 0 sizes the pool to the thread pool's
    /// parallelism (the most that can ever be checked out concurrently by
    /// pool workers alone).
    int workspaces_per_shard = 0;
    /// Queries with more rows than this are split into that many-row
    /// segments so one large batch spreads across the pool.
    int segment_rows = 1024;
    /// Per-priority admission watermarks; see SheddingPolicy.
    SheddingPolicy shedding;
    /// Projection solver for the serving hot path. Must match the options
    /// the model was fit/validated with for scores to be bit-identical to
    /// the in-process RpcRanker.
    opt::ProjectionOptions projection;
    /// Destination for slow-query events (see slow_query_threshold). Not
    /// owned; must outlive the service. nullptr = slow-query log off.
    obs::TelemetrySink* telemetry_sink = nullptr;
    /// Queries whose end-to-end latency meets or exceeds this emit their
    /// full QueryTrace plus span timeline ("slow_query" events) through
    /// telemetry_sink. 0 = disabled. Overridable per query via
    /// QueryOptions::slow_query_threshold.
    std::chrono::nanoseconds slow_query_threshold{0};
  };

  RankingService() : RankingService(Options()) {}
  explicit RankingService(const Options& options);
  ~RankingService();

  RankingService(const RankingService&) = delete;
  RankingService& operator=(const RankingService&) = delete;

  /// Loads `model` into a new shard under `dataset_id`, replacing any
  /// existing shard with that id (copy-on-write swap: in-flight queries on
  /// the old shard finish undisturbed). Fails with kInvalidArgument when
  /// the model's geometry does not validate. `dataset` fixes the shard's
  /// serving policy (default priority class) until the next registration.
  Status RegisterDataset(const std::string& dataset_id,
                         const core::PortableRpcModel& model,
                         const DatasetOptions& dataset = DatasetOptions());

  /// LoadModel(path) + RegisterDataset.
  Status RegisterDatasetFromFile(const std::string& dataset_id,
                                 const std::string& path,
                                 const DatasetOptions& dataset =
                                     DatasetOptions());

  /// Drops the shard; kNotFound when the id is unknown. In-flight queries
  /// keep their snapshot alive until they finish.
  Status EvictDataset(const std::string& dataset_id);

  bool HasDataset(const std::string& dataset_id) const;
  std::vector<std::string> DatasetIds() const;  // sorted

  /// The PortableRpcModel::version of the shard currently serving
  /// `dataset_id` (kNotFound for an unknown id). The streaming tier bumps
  /// the version on every published warm refresh, so a caller can observe
  /// the atomic copy-on-write swap: queries admitted before a swap finish
  /// against the old version, queries admitted after it see the new one,
  /// and no query ever sees a mixture.
  Result<std::uint64_t> DatasetVersion(const std::string& dataset_id) const;

  /// Scores every row of `raw_rows` (original data space, n x d) against
  /// the dataset's model and ranks them within the batch, under the policy
  /// in `options` (deadline, admission, priority; see QueryOptions).
  /// Blocks until the result is complete or the policy fails the query:
  /// kNotFound for an unknown dataset id, kInvalidArgument on a column
  /// mismatch, kDeadlineExceeded once the deadline passes (at admission,
  /// queued, or mid-execution), kFailedPrecondition when kReject admission
  /// is shed or the service is shutting down. An empty batch
  /// short-circuits to an empty result after the deadline check.
  Result<RankedBatch> Query(const std::string& dataset_id,
                            const linalg::Matrix& raw_rows,
                            const QueryOptions& options = QueryOptions()) const;

  ServiceStats stats() const;

  int parallelism() const { return pool_->parallelism(); }

 private:
  struct Shard;
  struct BatchState;

  /// One admitted unit of work, pinned to its shard snapshot: a contiguous
  /// row range of one query. Value type so the admission queue owns its
  /// items outright (std::deque requires a complete type).
  struct Segment {
    std::shared_ptr<const Shard> shard;
    const linalg::Matrix* rows = nullptr;  // caller-owned query rows
    double* scores_out = nullptr;          // into the caller's result
    int begin = 0;
    int end = 0;
    BatchState* state = nullptr;  // caller-stack completion latch
  };

  std::shared_ptr<const Shard> FindShard(const std::string& dataset_id) const;
  Result<std::shared_ptr<const Shard>> BuildShard(
      const core::PortableRpcModel& model,
      const DatasetOptions& dataset) const;
  /// Splits the query into row ranges and admits each as one segment.
  Status AdmitSegmented(const std::shared_ptr<const Shard>& shard,
                        const linalg::Matrix& raw_rows, double* scores_out,
                        int lane, const QueryOptions& options,
                        BatchState& state, QueryTrace& trace) const;
  /// Pops one admitted segment and executes it: deadline re-check,
  /// workspace checkout, normalise + project each row (with cooperative
  /// cancellation between rows), workspace return, completion countdown.
  void RunOneSegment() const;
  /// Scores rows [begin, end) of `rows` into scores_out using `slot`,
  /// checking the query's cancellation flag between rows; returns false if
  /// the deadline expired mid-way (the segment is then abandoned).
  bool ScoreRows(const Shard& shard, int slot_index,
                 const linalg::Matrix& rows, int begin, int end,
                 double* scores_out, BatchState& state) const;
  void RecordLatency(std::chrono::nanoseconds total) const;
  /// Formats QueryTrace + the trace's span timeline as one JSON object and
  /// emits it ("slow_query") through Options::telemetry_sink.
  void EmitSlowQuery(const std::string& dataset_id, const QueryTrace& trace,
                     int rows, std::chrono::nanoseconds total) const;

  Options options_;
  std::unique_ptr<ThreadPool> pool_;
  mutable PriorityBoundedQueue<Segment> queue_;

  mutable std::mutex shards_mu_;
  std::unordered_map<std::string, std::shared_ptr<const Shard>> shards_;

  // Service counters live on the process-wide obs registry (one series per
  // service instance, labelled svc="<ordinal>"); ServiceStats is assembled
  // from these same cells, so the legacy struct stays a bit-identical view
  // of what the exporters publish.
  obs::Counter queries_;
  obs::Counter rows_;
  obs::Counter segments_;
  obs::Counter rejected_;
  obs::Counter registrations_;
  obs::Counter deadline_expired_;
  obs::Counter expired_segments_;
  std::array<obs::Counter, kNumPriorities> shed_by_priority_;
  obs::Histogram latency_us_;
  obs::Histogram admission_wait_us_;
  // Callback gauges read queue_/shards_; declared last so they unregister
  // (reverse member order) before anything they sample is destroyed.
  obs::Registry::CallbackHandle queue_depth_gauge_;
  obs::Registry::CallbackHandle queue_peak_gauge_;
  obs::Registry::CallbackHandle datasets_gauge_;
};

}  // namespace rpc::serve

#endif  // RPC_SERVE_RANKING_SERVICE_H_
