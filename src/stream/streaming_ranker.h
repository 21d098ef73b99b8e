#ifndef RPC_STREAM_STREAMING_RANKER_H_
#define RPC_STREAM_STREAMING_RANKER_H_

#include <atomic>
#include <condition_variable>
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
#include "core/rpc_learner.h"
#include "data/normalizer.h"
#include "data/online_normalizer.h"
#include "durable/event_log.h"
#include "durable/fault_injector.h"
#include "durable/snapshot.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/curve_projection.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"

namespace rpc::stream {

/// Remaps Bezier control points across a normalisation-bound change: the
/// curve is the same object in raw data space, re-expressed in the new
/// [0,1]^d coordinates (Eq. 16 — affine maps move control points, never
/// scores). This is what lets a warm refresh re-use the live model's
/// geometry even when new rows stretched the min-max bounds.
linalg::Matrix RemapControlPoints(const linalg::Matrix& control_points,
                                  const linalg::Vector& old_mins,
                                  const linalg::Vector& old_maxs,
                                  const linalg::Vector& new_mins,
                                  const linalg::Vector& new_maxs);

/// When the streaming tier refreshes the served model.
struct DriftPolicy {
  /// Refresh after this many processed ingestion events (appends +
  /// retirements) since the last refresh snapshot; 0 disables.
  int refit_on_row_delta = 64;
  /// Refresh when the live min-max bounds have drifted from the served
  /// model's bounds by more than this fraction of the served range
  /// (data::OnlineNormalizer::BoundsDrift); 0 disables. Bound drift is the
  /// quantity that actually invalidates served scores — the curve projects
  /// in a coordinate system that no longer matches the data.
  double refit_on_normalizer_drift = 0.05;
  /// Unconditional refresh every this many processed events (the periodic
  /// backstop); 0 disables.
  int refit_period_events = 0;
  /// Background cold refit (full multi-restart Fit, not a warm Refit)
  /// every this many processed events; 0 disables. The result is adopted
  /// only when its objective J beats the live model's J on the same
  /// normalized rows (publish-if-better), so a cold fit that lands in a
  /// worse basin is discarded rather than served. Runs on the auxiliary
  /// pool lane and shares the single refresh slot, so it never delays
  /// event application and never races a warm refresh.
  int cold_refit_period_events = 0;
};

/// Crash durability for the streaming tier: a write-ahead event log plus
/// periodic checksummed snapshots in `dir`, giving bounded-replay recovery
/// via StreamingRanker::Recover(). Disabled while `dir` is empty.
struct DurabilityOptions {
  /// Directory for wal-*.log segments and snapshot-*.snap files. Empty
  /// disables durability entirely (zero overhead on the ingestion path).
  std::string dir;
  /// Event-log segment roll size (durable::EventLog::Options).
  std::int64_t segment_bytes = 4 << 20;
  /// Write a milestone snapshot (and truncate the log behind it) every
  /// this many applied events; 0 keeps only the Start/Stop snapshots.
  int snapshot_every_events = 512;
  /// Snapshots retained on disk (keep_n; values below 1 are clamped to
  /// 1). Two is the safe minimum: the log is only truncated through the
  /// *oldest* kept snapshot, so a corrupt newest snapshot still has a
  /// fallback with its full log suffix. Larger values buy deeper
  /// point-in-time fallback at the cost of disk and a longer retained
  /// log.
  int keep_snapshots = 2;
  /// Log-compaction policy: keep at least this many of the newest log
  /// records on disk even when a snapshot already covers them; 0 compacts
  /// as aggressively as the snapshot retention allows. A warm standby
  /// catches up from the log tail, so retaining a margin here lets a
  /// briefly partitioned replica resume with a tail fetch instead of a
  /// full snapshot re-ship. Truncation never strips a segment the oldest
  /// retained snapshot still needs, whatever this is set to.
  std::int64_t wal_keep_events = 0;
  /// Failpoint driver for kill-and-recover tests; shared so the test keeps
  /// a handle after the ranker is abandoned. Null in production.
  std::shared_ptr<durable::FaultInjector> injector;

  bool enabled() const { return !dir.empty(); }
};

struct StreamingRankerOptions {
  /// Learner configuration for the cold initial fit (Start). The refresh
  /// path runs the same configuration with three changes: restarts = 1
  /// (the seed control points pin the basin), no J history, and
  /// `warm_refit_max_iterations` as the outer iteration cap.
  core::RpcLearnOptions learner;
  /// Outer-iteration cap for a refresh. A refresh whose data barely moved
  /// converges in one or two iterations; the cap bounds the cost of one
  /// that moved a lot (the next refresh continues from its result).
  int warm_refit_max_iterations = 16;
  /// Capacity of the ingestion queue, in events. Full queue = Append
  /// blocks (backpressure), TryAppend rejects.
  int queue_capacity = 1024;
  /// Worker budget for the ingestion/refresh pool, common::ThreadPool
  /// convention. The default 2 gives one dedicated background worker, so
  /// ingestion and warm refreshes never run on the caller's thread; 1 runs
  /// everything inline in Append (fully serial mode). With more than 2,
  /// events can apply out of arrival order under load.
  int num_threads = 2;
  /// Serving policy attached to every model version this ranker publishes:
  /// queries on the dataset that do not set QueryOptions::priority are
  /// admitted under this class. Streamed datasets default to interactive —
  /// they exist to be served live.
  serve::DatasetOptions serving;
  DriftPolicy drift;
  DurabilityOptions durability;
};

/// Aggregate counters; a consistent snapshot of the ranker's state.
struct StreamStats {
  std::int64_t appended = 0;
  std::int64_t retired = 0;
  std::int64_t retire_misses = 0;    // retirements of unknown row ids
  std::int64_t events_processed = 0;
  std::int64_t refreshes = 0;        // warm refreshes published
  std::int64_t skipped_refreshes = 0;  // policy fired but refit impossible
  std::int64_t failed_refreshes = 0;   // learner error, warm or cold
  std::int64_t publish_failures = 0;   // RankingService rejected a publish
  std::int64_t rows = 0;             // live rows
  std::uint64_t version = 0;         // current model version (0 = no model)
  double last_drift = 0.0;           // live-vs-model bounds drift
  double last_refresh_seconds = 0.0;
  int pending = 0;                   // ingestion backlog (queued events)
  // Durable tier (all zero while durability is disabled).
  std::int64_t snapshots = 0;        // milestone snapshots written
  std::int64_t durable_errors = 0;   // failed log syncs / snapshot writes
  std::int64_t wal_records = 0;      // event-log records staged
  std::int64_t cold_refits = 0;      // background cold fits adopted
  std::int64_t cold_rejected = 0;    // cold fits whose J did not improve
};

/// Streaming ingestion and online model-refresh tier: the bridge between
/// the batch fit pipeline and the serving tier for workloads where objects
/// keep arriving (and retiring) while the ranking is being served.
///
/// Lifecycle:
///   * Start() runs the ordinary cold fit (restarts and all) on the
///     initial rows and publishes the model as version 1.
///   * Append()/Retire() enqueue ingestion events into a bounded queue
///     (backpressure on Append, rejection on TryAppend) and return
///     immediately; a background worker drains the queue in FIFO order,
///     maintaining the row store, the per-row served score (each appended
///     row is projected once onto the live curve), and the
///     data::OnlineNormalizer sufficient statistics.
///   * After each event the DriftPolicy decides whether to refresh. A
///     refresh snapshots the store under the lock, then — off the lock, so
///     ingestion continues — renormalises with the live bounds, remaps the
///     live control points into the new coordinates (Eq. 16), and runs
///     core::RpcLearner::Refit seeded with the remapped control points
///     alone — the model is its control points, and Step 4 re-derives
///     every s* from them — so the refresh costs one or two outer
///     iterations instead of a cold multi-restart fit.
///   * A background cold refit (DriftPolicy::cold_refit_period_events) is
///     the same job with a full multi-restart Fit in place of the Refit,
///     adopted only when it beats the live model's J. Whatever a job's
///     outcome, its finish re-asks the policy, so events applied while it
///     ran are never stranded.
///   * Each successful refresh is published as a new immutable version
///     through serve::RankingService::RegisterDataset — the copy-on-write
///     swap PR 3 built, so in-flight queries never see a torn model and
///     version N's scores are bit-identical whether served before or after
///     version N+1 lands. At most one refresh is in flight at a time and
///     publishes are ordered by version.
///
/// Determinism: with the default single background worker, events apply in
/// arrival order and every refresh is a pure function of (row store, live
/// control points and bounds, options) — Snapshot() after ForceRefresh() is
/// bit-identical to running RpcLearner::Refit by hand on the same state
/// (the streaming machinery adds no arithmetic).
///
/// Thread safety: all public methods may be called from any thread.
class StreamingRanker {
 public:
  /// `service` (nullable) receives every published model version under
  /// `dataset_id`; it must outlive the ranker.
  StreamingRanker(serve::RankingService* service, std::string dataset_id,
                  StreamingRankerOptions options = {});
  ~StreamingRanker();

  StreamingRanker(const StreamingRanker&) = delete;
  StreamingRanker& operator=(const StreamingRanker&) = delete;

  /// Cold-fits the initial rows (raw data space) and publishes version 1.
  /// Must be called exactly once, before any Append. With durability
  /// configured, also opens the event log and writes the bootstrap
  /// snapshot, so a crash at any later point is recoverable.
  Status Start(const linalg::Matrix& initial_rows,
               const order::Orientation& alpha);

  /// Rebuilds the exact pre-crash state from `durability.dir` instead of
  /// Start(): loads the newest readable snapshot (falling back across
  /// corrupt ones), replays the event-log suffix through the same apply
  /// path ingestion uses — so row ids, normalizer statistics and served
  /// scores come back bit-identical — truncates any torn log tail, writes
  /// a fresh post-recovery snapshot, and re-publishes the recovered model
  /// version to the serving tier. Events that were applied and synced
  /// (anything before a successful Flush/Stop) are never lost; events
  /// still queued at the crash were never acknowledged as durable and must
  /// be resubmitted by the client.
  Status Recover();

  // -- Follower (warm-standby) mode -----------------------------------
  //
  // A replica::ReplicaApplier drives these: the standby's StreamingRanker
  // never ingests events of its own — it installs shipped snapshots and
  // applies shipped WAL records through the exact apply path Recover()
  // uses, so its rows, normalizer statistics, scores and served version
  // stay bit-identical to the primary at every applied offset. While in
  // follower mode the ranker is read-only (Append/Retire/ForceRefresh
  // refuse) and every published model version still flows through the
  // serving tier, so queries are served throughout — including while the
  // feed is lost (the standby then simply goes stale).

  /// Installs a shipped snapshot as the follower's complete state and
  /// publishes its model version. Legal before any start (bootstraps the
  /// follower) and again at any later point while in follower mode (the
  /// primary compacted past our offset and re-shipped).
  Status FollowerInstallSnapshot(const durable::SnapshotState& state);

  /// Applies one shipped WAL record (must be exactly the next sequence).
  /// kPublish records re-publish the new model version to the serving
  /// tier, exactly as the primary's own publish did.
  Status ApplyFollowerRecord(const durable::ReplayRecord& record);

  /// Rebuilds follower state from the standby's own durability dir
  /// (snapshot + replicated WAL) after a standby restart, truncating any
  /// torn tail — the resumable-catch-up entry point. kNotFound when the
  /// dir holds no snapshot yet (a never-fed standby starts empty).
  Status RecoverAsFollower();

  /// Failover: leaves follower mode, opens the (replicated) event log for
  /// writing at the next sequence, writes a fresh snapshot, and starts
  /// accepting Append/Retire — the standby is now the primary, serving
  /// and logging from exactly the last applied offset.
  Status PromoteToPrimary();

  bool is_follower() const;
  /// Sequence of the last WAL record applied in follower mode.
  std::uint64_t follower_applied_seq() const;
  /// The primary-side shipping cap: records on disk and fsynced.
  std::uint64_t wal_synced_seq() const;
  std::uint64_t wal_appended_seq() const;

  /// What the last successful Recover() did.
  struct RecoveryInfo {
    bool recovered = false;
    std::string snapshot_path;       // snapshot the state was loaded from
    std::uint64_t snapshot_seq = 0;  // its coverage (log replayed after it)
    int snapshot_fallbacks = 0;      // newer-but-corrupt snapshots skipped
    std::uint64_t replayed_records = 0;
    bool tail_truncated = false;     // a torn log tail was cut off
    std::uint64_t recovered_version = 0;
  };
  RecoveryInfo recovery_info() const;

  /// Enqueues a row (raw data space) for ingestion and returns its row id.
  /// Blocks while the ingestion queue is full (backpressure).
  Result<std::int64_t> Append(const linalg::Vector& raw_row);
  /// Like Append but refuses (kFailedPrecondition) instead of blocking.
  Result<std::int64_t> TryAppend(const linalg::Vector& raw_row);

  /// Enqueues the retirement of a previously appended row. Unknown ids
  /// (including ids whose append is still queued behind this event) are
  /// counted as retire_misses when processed, not errors here.
  Status Retire(std::int64_t row_id);

  /// Blocks until every enqueued event has been processed and no refresh
  /// is in flight; with durability on, then fsyncs the event log — the
  /// acknowledgment boundary: everything appended before a successful
  /// Flush survives any later crash.
  Status Flush();

  /// Flush, then run one warm refresh synchronously (whatever the drift
  /// policy says) and publish it.
  Status ForceRefresh();

  /// Consistent view of the live model + served scores.
  struct Snapshot {
    std::uint64_t version = 0;
    /// The served model: alpha, the *fit-time* bounds, control points.
    core::PortableRpcModel model;
    /// Per live row: the served s* (the fit scores for rows covered by
    /// the last refresh; the projection onto the live curve for rows
    /// appended since).
    linalg::Vector scores;
    std::vector<std::int64_t> row_ids;
    /// The OnlineNormalizer's live bounds (these drift away from
    /// model.mins/maxs as data arrives; a refresh re-bases onto them).
    linalg::Vector live_mins;
    linalg::Vector live_maxs;
  };
  Snapshot snapshot() const;

  StreamStats stats() const;

  /// Wall-clock seconds of every completed refresh, oldest first (the
  /// bench derives p50/p99 refresh latency from this).
  std::vector<double> RefreshSecondsHistory() const;

  /// The derived refresh learner configuration: `learner` with restarts,
  /// max_iterations and record_history overridden (tests replicate a
  /// refresh with exactly this).
  const core::RpcLearnOptions& warm_options() const { return warm_options_; }

  /// Refuses new events, drains the queue (BoundedQueue::CloseAndDrain —
  /// every admitted event is applied, none dropped, including any refresh
  /// the policy fires), then syncs the event log and writes a final
  /// clean-shutdown snapshot so the next Recover() replays nothing. The
  /// worker threads are joined by the destructor. Idempotent.
  void Stop();

 private:
  struct Event {
    enum class Kind { kAppend, kRetire };
    Kind kind = Kind::kAppend;
    std::int64_t row_id = 0;
    linalg::Vector row;  // kAppend only
    /// Steady-clock stamp taken at enqueue; the worker measures ingest lag
    /// (time spent queued) against it when it pops the event.
    std::int64_t enqueue_ns = 0;
  };

  /// Everything one refresh job needs, snapshotted under the lock so the
  /// fit runs on an immutable copy while ingestion continues. Both kinds
  /// remap the live control points into the frozen live bounds (Eq. 16): a
  /// warm job seeds a Refit with them, a cold job runs the full
  /// multi-restart Fit and is adopted only if it beats their J on the same
  /// rows.
  struct RefreshJob {
    enum class Kind { kWarm, kCold };
    Kind kind = Kind::kWarm;
    linalg::Matrix rows;
    std::vector<std::int64_t> row_ids;
    linalg::Matrix live_control;
    linalg::Vector old_mins, old_maxs;
    /// Live bounds frozen at snapshot time (optional only because
    /// Normalizer has no default constructor; always set by Prepare).
    std::optional<data::Normalizer> normalizer;
    /// events_processed_ when the job was prepared.
    std::int64_t prepared_events = 0;
  };

  Result<std::int64_t> AppendImpl(const linalg::Vector& raw_row,
                                  bool blocking);
  /// Refuses client mutations unless started, not stopped and not a
  /// read-only follower.
  Status CheckWritableLocked() const;
  void ProcessOneEvent();
  void ApplyEventLocked(const Event& event);
  bool PolicyFiresLocked();
  /// The one job chooser, asked after every applied event and by every
  /// finishing job: a warm refresh when the drift policy fires, else a cold
  /// refit when its period is due (only for events applied since the last
  /// job was prepared). Returns the prepared job holding the refresh slot,
  /// or null.
  std::shared_ptr<RefreshJob> NextJobLocked(bool events_since_job);
  /// Snapshots the job inputs and claims the refresh slot; an error when a
  /// job is impossible right now (too few rows, degenerate bounds).
  Status PrepareJobLocked(RefreshJob::Kind kind, RefreshJob* job);
  /// Runs a prepared job: renormalise and remap, fit, then adopt, log and
  /// publish the result (a cold fit only if it wins), then FinishJob.
  Status RunJob(RefreshJob* job);
  /// Every job's exit: releases the refresh slot and starts whatever job
  /// the chooser now asks for.
  void FinishJob(const RefreshJob& job);
  /// Registers `portable` with the serving tier (when there is one) and
  /// counts a rejection in publish_failures_.
  Status Publish(const core::PortableRpcModel& portable);

  // Durable tier (all no-ops while log_ is null).
  void LogEventLocked(const Event& event);
  void LogBoundsLocked();
  void LogPublishLocked(std::uint32_t kind,
                        const core::PortableRpcModel& portable,
                        const std::vector<std::int64_t>& row_ids,
                        const linalg::Vector& scores);
  /// Coalescing group-commit driver: schedules one Sync on the aux lane
  /// unless one is already scheduled, so a burst of events shares a fsync.
  void ScheduleLogFlush();
  durable::SnapshotState BuildSnapshotStateLocked() const;
  /// Writes `state`, rotates old snapshots and truncates the log behind the
  /// oldest kept one (milestone and synchronous snapshots alike).
  Status PersistSnapshot(const durable::SnapshotState& state);
  /// Synchronous snapshot of the live state (Start bootstrap, Stop finale,
  /// takeover).
  Status WriteSnapshotNow();
  Result<std::unique_ptr<durable::EventLog>> OpenLog(
      int d, std::uint64_t next_seq) const;
  /// Recover()'s primary tail and PromoteToPrimary(): installs `log` for
  /// writing and, holding the refresh slot, writes a snapshot (a failure
  /// counts in durable_errors_) and publishes the live model.
  Status TakeOver(std::unique_ptr<durable::EventLog> log);
  Status InstallSnapshotStateLocked(const durable::SnapshotState& state);
  Status ApplyReplayRecordLocked(const durable::ReplayRecord& record);
  /// Shared Recover()/RecoverAsFollower() body.
  Status RecoverImpl(bool as_follower);
  /// The log-compaction horizon: the oldest kept snapshot's seq, pulled
  /// back by the wal_keep_events retention margin. 0 = keep everything.
  std::uint64_t TruncateHorizon(std::uint64_t oldest_snapshot_seq,
                                std::uint64_t last_appended) const;
  double ProjectRowLocked(const double* raw_row);
  void RebindCurveLocked();
  linalg::Matrix StoreMatrixLocked() const;
  /// The live model as the portable {alpha, bounds, control points,
  /// version} struct — the single assembly point for publish/snapshot.
  core::PortableRpcModel PortableModelLocked() const;

  const std::string dataset_id_;
  StreamingRankerOptions options_;
  core::RpcLearnOptions warm_options_;
  serve::RankingService* service_;  // nullable

  std::unique_ptr<ThreadPool> pool_;
  /// Second lane for everything that may touch the disk or run long —
  /// log group-commits, snapshot writes, warm refreshes, cold refits — so
  /// the ingestion workers only ever apply events. Sized to stay inline
  /// (fully serial) when num_threads == 1.
  std::unique_ptr<ThreadPool> aux_pool_;
  /// Null while durability is disabled. The destructor drains both pools
  /// before this is destroyed, so aux-lane tasks never outlive the log.
  std::unique_ptr<durable::EventLog> log_;
  std::atomic<bool> log_flush_scheduled_{false};
  BoundedQueue<Event> queue_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;

  // Row store (flat row-major) + identity + served score, all index-aligned.
  std::vector<double> rows_;
  std::vector<std::int64_t> row_ids_;
  std::vector<double> s_;
  std::unordered_map<std::int64_t, int> id_to_index_;
  std::int64_t next_row_id_ = 0;

  data::OnlineNormalizer online_;

  // Live model (normalised space of model_mins_/model_maxs_).
  bool started_ = false;
  bool stopped_ = false;
  order::Orientation alpha_ = order::Orientation::AllBenefit(1);
  linalg::Matrix control_;
  linalg::Vector model_mins_, model_maxs_;
  std::uint64_t version_ = 0;
  curve::BezierCurve live_curve_;
  opt::ProjectionWorkspace append_workspace_;
  std::vector<double> append_normalized_;  // d scratch

  // Ingestion/refresh bookkeeping.
  int d_ = 0;
  std::int64_t pending_ = 0;
  bool refresh_in_flight_ = false;
  std::int64_t events_since_refresh_ = 0;
  std::int64_t appended_ = 0;
  std::int64_t retired_ = 0;
  std::int64_t retire_misses_ = 0;
  std::int64_t events_processed_ = 0;
  std::int64_t refreshes_ = 0;
  std::int64_t skipped_refreshes_ = 0;
  std::int64_t failed_refreshes_ = 0;
  std::int64_t publish_failures_ = 0;
  double last_drift_ = 0.0;
  std::vector<double> refresh_seconds_;

  // Durable-tier bookkeeping.
  bool replaying_ = false;  // Recover() replay: don't re-log records
  bool follower_ = false;   // warm standby: read-only, fed by a replica feed
  std::uint64_t last_applied_seq_ = 0;  // follower mode: last WAL seq applied
  bool snapshot_in_flight_ = false;
  std::int64_t events_since_snapshot_ = 0;
  std::int64_t events_since_cold_ = 0;
  std::int64_t snapshots_ = 0;
  std::int64_t durable_errors_ = 0;
  std::int64_t cold_refits_ = 0;
  std::int64_t cold_rejected_ = 0;
  RecoveryInfo recovery_info_;

  // Telemetry. Counters/histograms are plain relaxed atomics (safe to
  // bump under mu_); the callback gauges lock mu_ when sampled, so no
  // registry call may ever run while mu_ is held (lock-order rule).
  obs::Counter append_events_;
  obs::Counter retire_events_;
  obs::Histogram ingest_lag_us_;
  obs::Histogram refresh_renormalize_us_;
  obs::Histogram refresh_refit_us_;
  obs::Histogram refresh_publish_us_;
  // Declared last: unregister (handle destructors) before the state the
  // callbacks sample is torn down.
  obs::Registry::CallbackHandle pending_gauge_;
  obs::Registry::CallbackHandle rows_gauge_;
  obs::Registry::CallbackHandle version_gauge_;
  obs::Registry::CallbackHandle drift_gauge_;
};

}  // namespace rpc::stream

#endif  // RPC_STREAM_STREAMING_RANKER_H_
