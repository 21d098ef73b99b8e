#include "stream/streaming_ranker.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/stringutil.h"
#include "durable/codec.h"
#include "durable/file_util.h"
#include "obs/buckets.h"

namespace rpc::stream {

using linalg::Matrix;
using linalg::Vector;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// kPublish payload kind tags (first u32 of the payload).
constexpr std::uint32_t kPublishWarm = 0;
constexpr std::uint32_t kPublishCold = 1;

}  // namespace

Matrix RemapControlPoints(const Matrix& control_points,
                          const Vector& old_mins, const Vector& old_maxs,
                          const Vector& new_mins, const Vector& new_maxs) {
  const int d = control_points.rows();
  assert(old_mins.size() == d && old_maxs.size() == d &&
         new_mins.size() == d && new_maxs.size() == d);
  Matrix remapped(d, control_points.cols());
  for (int j = 0; j < d; ++j) {
    const double old_range = old_maxs[j] - old_mins[j];
    const double new_range = new_maxs[j] - new_mins[j];
    assert(old_range > 0.0 && new_range > 0.0);
    for (int r = 0; r < control_points.cols(); ++r) {
      // Normalised-old -> raw -> normalised-new, per coordinate.
      const double raw = old_mins[j] + control_points(j, r) * old_range;
      remapped(j, r) = (raw - new_mins[j]) / new_range;
    }
  }
  return remapped;
}

StreamingRanker::StreamingRanker(serve::RankingService* service,
                                 std::string dataset_id,
                                 StreamingRankerOptions options)
    : dataset_id_(std::move(dataset_id)),
      options_(options),
      service_(service),
      pool_(std::make_unique<ThreadPool>(options.num_threads)),
      // One dedicated worker for disk/refit work — unless the ranker runs
      // fully serial (num_threads <= 1), in which case the aux lane is
      // inline too and the determinism contract is untouched.
      aux_pool_(std::make_unique<ThreadPool>(options.num_threads <= 1 ? 1
                                                                      : 2)),
      queue_(std::max(options.queue_capacity, 1)) {
  // The refresh learner: the cold fit's configuration, but a single
  // trajectory (the seed control points pin the basin) under a tight
  // iteration cap — a refresh near the live optimum converges in one or two
  // outer iterations.
  warm_options_ = options_.learner;
  warm_options_.restarts = 1;
  warm_options_.max_iterations = std::max(options_.warm_refit_max_iterations, 1);
  warm_options_.record_history = false;

  // One series set per ranker instance. The inst ordinal disambiguates two
  // rankers sharing a dataset id (primary + warm standby in failover
  // tests). Handles are created here — never lazily on a path that holds
  // mu_ — because the registry lock must always be taken outside mu_ (the
  // callback gauges below take them in that order at Snapshot time).
  static std::atomic<int> next_ranker_ordinal{0};
  const obs::Labels labels = {
      {"dataset", dataset_id_},
      {"inst", std::to_string(next_ranker_ordinal.fetch_add(
                   1, std::memory_order_relaxed))}};
  obs::Registry& registry = obs::Registry::Global();
  const auto kind_counter = [&](const char* kind) {
    obs::Labels kind_labels = labels;
    kind_labels.emplace_back("kind", kind);
    return registry.GetCounter("rpc_stream_events_total", kind_labels,
                               "Ingestion events applied, by kind");
  };
  append_events_ = kind_counter("append");
  retire_events_ = kind_counter("retire");
  ingest_lag_us_ = registry.GetHistogram(
      "rpc_stream_ingest_lag_us", obs::LatencyBucketUpperBoundsUs(), labels,
      "Queue residency of ingestion events, enqueue to pop (us)");
  const auto phase_histogram = [&](const char* phase) {
    obs::Labels phase_labels = labels;
    phase_labels.emplace_back("phase", phase);
    return registry.GetHistogram("rpc_stream_refresh_phase_us",
                                 obs::LatencyBucketUpperBoundsUs(),
                                 phase_labels,
                                 "Warm-refresh phase durations (us)");
  };
  refresh_renormalize_us_ = phase_histogram("renormalize");
  refresh_refit_us_ = phase_histogram("refit");
  refresh_publish_us_ = phase_histogram("publish");
  pending_gauge_ = registry.GetCallbackGauge(
      "rpc_stream_pending", labels,
      [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<double>(pending_);
      },
      "Events admitted but not yet applied");
  rows_gauge_ = registry.GetCallbackGauge(
      "rpc_stream_rows", labels,
      [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<double>(row_ids_.size());
      },
      "Live rows in the store");
  version_gauge_ = registry.GetCallbackGauge(
      "rpc_stream_version", labels,
      [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<double>(version_);
      },
      "Published model version");
  drift_gauge_ = registry.GetCallbackGauge(
      "rpc_stream_drift", labels,
      [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return last_drift_;
      },
      "Normaliser-bounds drift at the last policy evaluation");
}

StreamingRanker::~StreamingRanker() {
  Stop();
  pool_.reset();      // joins the workers (and any straggler task)
  aux_pool_.reset();  // then the aux lane, whose tasks the workers feed
}

void StreamingRanker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Refuse new events, then block until every admitted event has been
  // handed to a worker. This closes the Append-racing-Stop window: an
  // Append that pushed successfully but has not yet Submitted its task
  // cannot be dropped — CloseAndDrain waits until that late task (which
  // must land on the still-live pool; the destructor's WaitTasks is the
  // backstop) has popped the event, and the WaitTasks below then waits for
  // it to be fully applied. No accepted event is ever lost on Stop.
  queue_.CloseAndDrain();
  pool_->WaitTasks();
  // Let in-flight aux work (refresh, cold refit, snapshot, log flush)
  // finish before the final sync, so the shutdown snapshot sees it.
  aux_pool_->WaitTasks();
  durable::EventLog* log = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    log = log_.get();
  }
  if (log != nullptr) {
    const Status synced = log->Sync();
    const Status snapped =
        synced.ok() ? WriteSnapshotNow() : Status::Ok();
    if (!synced.ok() || !snapped.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++durable_errors_;
    }
  }
  cv_.notify_all();
}

Status StreamingRanker::Start(const Matrix& initial_rows,
                              const order::Orientation& alpha) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::FailedPrecondition("StreamingRanker: stopped");
    if (started_) {
      return Status::FailedPrecondition("StreamingRanker: already started");
    }
  }
  RPC_ASSIGN_OR_RETURN(data::Normalizer normalizer,
                       data::Normalizer::Fit(initial_rows));
  const Matrix normalized = normalizer.Transform(initial_rows);
  const core::RpcLearner learner(options_.learner);
  RPC_ASSIGN_OR_RETURN(core::RpcFitResult fit,
                       learner.Fit(normalized, alpha));

  // Open the event log before events can flow: every applied event after
  // started_ becomes visible must be captured.
  std::unique_ptr<durable::EventLog> log;
  if (options_.durability.enabled()) {
    RPC_ASSIGN_OR_RETURN(log, OpenLog(initial_rows.cols(), /*next_seq=*/1));
  }

  core::PortableRpcModel portable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    d_ = initial_rows.cols();
    alpha_ = alpha;
    control_ = fit.curve.control_points();
    model_mins_ = normalizer.mins();
    model_maxs_ = normalizer.maxs();
    version_ = 1;
    const int n = initial_rows.rows();
    rows_.assign(initial_rows.RowPtr(0), initial_rows.RowPtr(0) +
                                             static_cast<size_t>(n) * d_);
    row_ids_.resize(static_cast<size_t>(n));
    s_.resize(static_cast<size_t>(n));
    id_to_index_.clear();
    for (int i = 0; i < n; ++i) {
      row_ids_[static_cast<size_t>(i)] = i;
      id_to_index_[i] = i;
      s_[static_cast<size_t>(i)] = fit.scores[i];
    }
    next_row_id_ = n;
    online_.Reset(d_);
    online_.Observe(initial_rows);
    RebindCurveLocked();
    log_ = std::move(log);
    started_ = true;
    // Hold the refresh slot across the version-1 publish: once started_
    // is visible, a concurrent Append can fire a policy refresh, and its
    // version-2 publish must not race (and be overwritten by) ours.
    refresh_in_flight_ = true;
    portable = PortableModelLocked();
  }
  // The bootstrap snapshot makes the Start state itself durable — the
  // initial cold fit is never logged as events, so without this a crash
  // before the first milestone snapshot would be unrecoverable. Its
  // last_seq is 0: recovery replays the entire log after it.
  if (options_.durability.enabled()) {
    RPC_RETURN_IF_ERROR(WriteSnapshotNow());
  }
  const Status published = Publish(portable);
  {
    std::lock_guard<std::mutex> lock(mu_);
    refresh_in_flight_ = false;
  }
  cv_.notify_all();
  return published;
}

Result<std::int64_t> StreamingRanker::AppendImpl(const Vector& raw_row,
                                                 bool blocking) {
  Event event;
  event.kind = Event::Kind::kAppend;
  event.row = raw_row;
  event.enqueue_ns = obs::TraceNowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    RPC_RETURN_IF_ERROR(CheckWritableLocked());
    if (raw_row.size() != d_) {
      return Status::InvalidArgument(
          StrFormat("StreamingRanker: row has %d attributes, expected %d",
                    raw_row.size(), d_));
    }
    // A rejected TryPush burns this id; ids are unique, not dense.
    event.row_id = next_row_id_++;
    ++pending_;
  }
  const std::int64_t id = event.row_id;
  const bool admitted = blocking ? queue_.Push(std::move(event))
                                 : queue_.TryPush(std::move(event));
  if (!admitted) {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    cv_.notify_all();
    return Status::FailedPrecondition(
        blocking ? "StreamingRanker: shutting down"
                 : "StreamingRanker: ingestion queue full");
  }
  pool_->Submit([this] { ProcessOneEvent(); });
  return id;
}

Result<std::int64_t> StreamingRanker::Append(const Vector& raw_row) {
  return AppendImpl(raw_row, /*blocking=*/true);
}

Result<std::int64_t> StreamingRanker::TryAppend(const Vector& raw_row) {
  return AppendImpl(raw_row, /*blocking=*/false);
}

Status StreamingRanker::CheckWritableLocked() const {
  if (stopped_) return Status::FailedPrecondition("StreamingRanker: stopped");
  if (!started_) {
    return Status::FailedPrecondition("StreamingRanker: Start first");
  }
  if (follower_) {
    return Status::FailedPrecondition(
        "StreamingRanker: read-only follower (promote first)");
  }
  return Status::Ok();
}

Status StreamingRanker::Retire(std::int64_t row_id) {
  Event event;
  event.kind = Event::Kind::kRetire;
  event.row_id = row_id;
  event.enqueue_ns = obs::TraceNowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    RPC_RETURN_IF_ERROR(CheckWritableLocked());
    ++pending_;
  }
  if (!queue_.Push(std::move(event))) {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    cv_.notify_all();
    return Status::FailedPrecondition("StreamingRanker: shutting down");
  }
  pool_->Submit([this] { ProcessOneEvent(); });
  return Status::Ok();
}

Status StreamingRanker::Flush() {
  durable::EventLog* log = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pending_ == 0 && !refresh_in_flight_; });
    log = log_.get();
  }
  // The durability acknowledgment point: everything applied above is now
  // also on disk. A crash after a successful Flush loses nothing.
  if (log != nullptr) {
    const Status synced = log->Sync();
    if (!synced.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++durable_errors_;
      return synced;
    }
  }
  return Status::Ok();
}

Status StreamingRanker::ForceRefresh() {
  RefreshJob job;
  {
    // Drain and claim the refresh slot in one critical section: a
    // concurrent Append processed between a separate Flush() and this
    // lock could otherwise fire a policy refresh and run concurrently
    // with ours, breaking the at-most-one-refresh / ordered-publish
    // invariant.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pending_ == 0 && !refresh_in_flight_; });
    RPC_RETURN_IF_ERROR(CheckWritableLocked());
    RPC_RETURN_IF_ERROR(PrepareJobLocked(RefreshJob::Kind::kWarm, &job));
  }
  return RunJob(&job);
}

StreamingRanker::Snapshot StreamingRanker::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.version = version_;
  snap.model = PortableModelLocked();
  snap.scores = Vector(static_cast<int>(s_.size()));
  for (size_t i = 0; i < s_.size(); ++i) {
    snap.scores[static_cast<int>(i)] = s_[i];
  }
  snap.row_ids = row_ids_;
  snap.live_mins = online_.mins();
  snap.live_maxs = online_.maxs();
  return snap;
}

StreamStats StreamingRanker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StreamStats stats;
  stats.appended = appended_;
  stats.retired = retired_;
  stats.retire_misses = retire_misses_;
  stats.events_processed = events_processed_;
  stats.refreshes = refreshes_;
  stats.skipped_refreshes = skipped_refreshes_;
  stats.failed_refreshes = failed_refreshes_;
  stats.publish_failures = publish_failures_;
  stats.rows = static_cast<std::int64_t>(row_ids_.size());
  stats.version = version_;
  stats.last_drift = last_drift_;
  stats.last_refresh_seconds =
      refresh_seconds_.empty() ? 0.0 : refresh_seconds_.back();
  stats.pending = static_cast<int>(pending_);
  stats.snapshots = snapshots_;
  stats.durable_errors = durable_errors_;
  stats.wal_records = log_ != nullptr ? log_->stats().records : 0;
  stats.cold_refits = cold_refits_;
  stats.cold_rejected = cold_rejected_;
  return stats;
}

std::vector<double> StreamingRanker::RefreshSecondsHistory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refresh_seconds_;
}

void StreamingRanker::ProcessOneEvent() {
  std::optional<Event> event = queue_.Pop();
  if (!event.has_value()) return;  // closed and drained
  if (event->enqueue_ns != 0) {
    // Ingest lag: time the event sat in the queue before a worker took it
    // (replayed events carry no stamp and are skipped).
    ingest_lag_us_.Record((obs::TraceNowNs() - event->enqueue_ns) / 1000);
  }
  std::shared_ptr<RefreshJob> job;
  std::shared_ptr<durable::SnapshotState> snapshot_state;
  bool durable = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ApplyEventLocked(*event);
    durable = log_ != nullptr;
    job = NextJobLocked(/*events_since_job=*/true);
    if (durable && options_.durability.snapshot_every_events > 0) {
      ++events_since_snapshot_;
      if (!snapshot_in_flight_ &&
          events_since_snapshot_ >=
              options_.durability.snapshot_every_events) {
        snapshot_in_flight_ = true;
        events_since_snapshot_ = 0;
        snapshot_state = std::make_shared<durable::SnapshotState>(
            BuildSnapshotStateLocked());
      }
    }
    --pending_;
  }
  cv_.notify_all();
  // Off the lock and off this worker: the aux lane absorbs everything
  // slow (fsync, snapshot encode+write, warm/cold refits), so the
  // ingestion workers only ever apply events.
  if (durable) ScheduleLogFlush();
  if (snapshot_state != nullptr) {
    aux_pool_->Submit([this, snapshot_state] {
      const Status written = PersistSnapshot(*snapshot_state);
      std::lock_guard<std::mutex> lock(mu_);
      snapshot_in_flight_ = false;
      ++(written.ok() ? snapshots_ : durable_errors_);
    });
  }
  if (job != nullptr) {
    aux_pool_->Submit([this, job] { (void)RunJob(job.get()); });
  }
}

void StreamingRanker::ApplyEventLocked(const Event& event) {
  ++events_processed_;
  ++events_since_refresh_;
  ++events_since_cold_;
  LogEventLocked(event);
  if (event.kind == Event::Kind::kAppend) {
    const double* x = event.row.data().data();
    rows_.insert(rows_.end(), x, x + d_);
    row_ids_.push_back(event.row_id);
    id_to_index_[event.row_id] = static_cast<int>(row_ids_.size()) - 1;
    online_.Observe(x);
    // One projection onto the live curve gives the new row its served s*
    // until the next refresh covers it.
    s_.push_back(ProjectRowLocked(x));
    ++appended_;
    append_events_.Increment();  // relaxed atomic: safe under mu_
  } else {
    const auto it = id_to_index_.find(event.row_id);
    if (it == id_to_index_.end()) {
      ++retire_misses_;
      return;
    }
    // Swap-with-last: O(d) instead of shifting the whole store tail and
    // re-indexing every subsequent row under the lock. The store order
    // stays well-defined (a function of the event sequence), which is all
    // the determinism contract needs.
    const int index = it->second;
    const size_t offset = static_cast<size_t>(index) * d_;
    online_.Remove(&rows_[offset]);
    id_to_index_.erase(it);
    const int last = static_cast<int>(row_ids_.size()) - 1;
    if (index != last) {
      const size_t last_offset = static_cast<size_t>(last) * d_;
      std::copy(rows_.begin() + last_offset,
                rows_.begin() + last_offset + d_, rows_.begin() + offset);
      row_ids_[static_cast<size_t>(index)] =
          row_ids_[static_cast<size_t>(last)];
      s_[static_cast<size_t>(index)] = s_[static_cast<size_t>(last)];
      id_to_index_[row_ids_[static_cast<size_t>(index)]] = index;
    }
    rows_.resize(rows_.size() - static_cast<size_t>(d_));
    row_ids_.pop_back();
    s_.pop_back();
    if (online_.bounds_stale()) {
      // The retired row carried a live bound; one exact in-place rescan
      // of the survivors restores it (interior retirements skip this
      // entirely).
      online_.RebuildBounds(rows_.data(),
                            static_cast<std::int64_t>(row_ids_.size()));
      // Log the post-rescan bounds: replay re-derives them from the same
      // rescan, and this record lets recovery cross-check the rebuilt
      // bounds bit-for-bit (a divergence means the log is lying).
      LogBoundsLocked();
    }
    ++retired_;
    retire_events_.Increment();
  }
}

bool StreamingRanker::PolicyFiresLocked() {
  const DriftPolicy& policy = options_.drift;
  last_drift_ = online_.bounds_stale() || online_.count() == 0
                    ? last_drift_
                    : online_.BoundsDrift(model_mins_, model_maxs_);
  if (policy.refit_on_row_delta > 0 &&
      events_since_refresh_ >= policy.refit_on_row_delta) {
    return true;
  }
  if (policy.refit_on_normalizer_drift > 0.0 &&
      last_drift_ >= policy.refit_on_normalizer_drift) {
    return true;
  }
  if (policy.refit_period_events > 0 &&
      events_processed_ % policy.refit_period_events == 0) {
    return true;
  }
  return false;
}

std::shared_ptr<StreamingRanker::RefreshJob> StreamingRanker::NextJobLocked(
    bool events_since_job) {
  if (!started_ || refresh_in_flight_) return nullptr;
  // events_since_refresh_ > 0 makes chains of warm jobs terminate: each
  // needs at least one event applied since the previous one was prepared.
  const bool warm = events_since_refresh_ > 0 && PolicyFiresLocked();
  const int cold_period = options_.drift.cold_refit_period_events;
  if (!warm && !(events_since_job && cold_period > 0 &&
                 events_since_cold_ >= cold_period)) {
    return nullptr;
  }
  const RefreshJob::Kind kind =
      warm ? RefreshJob::Kind::kWarm : RefreshJob::Kind::kCold;
  auto job = std::make_shared<RefreshJob>();
  if (PrepareJobLocked(kind, job.get()).ok()) return job;
  // Impossible right now: restart the count so it doesn't re-fire on
  // every event.
  if (warm) {
    ++skipped_refreshes_;
    events_since_refresh_ = 0;
  } else {
    events_since_cold_ = 0;
  }
  return nullptr;
}

Status StreamingRanker::PrepareJobLocked(RefreshJob::Kind kind,
                                         RefreshJob* job) {
  if (row_ids_.size() < 4) {
    return Status::FailedPrecondition(
        "StreamingRanker: fewer than 4 live rows, refresh impossible");
  }
  RPC_ASSIGN_OR_RETURN(data::Normalizer normalizer, online_.ToNormalizer());
  job->kind = kind;
  job->rows = StoreMatrixLocked();
  job->row_ids = row_ids_;
  job->live_control = control_;
  job->old_mins = model_mins_;
  job->old_maxs = model_maxs_;
  job->normalizer = std::move(normalizer);
  job->prepared_events = events_processed_;
  refresh_in_flight_ = true;
  (kind == RefreshJob::Kind::kWarm ? events_since_refresh_
                                   : events_since_cold_) = 0;
  return Status::Ok();
}

Status StreamingRanker::RunJob(RefreshJob* job) {
  const bool warm = job->kind == RefreshJob::Kind::kWarm;
  const auto start = std::chrono::steady_clock::now();
  const obs::TraceId trace = obs::NewTraceId();
  const obs::Span job_span(trace,
                           warm ? "stream.refresh" : "stream.cold_refit");
  // Both kinds emit the phase spans; the phase histograms time warm
  // refreshes only.
  const auto phase = [&](obs::Histogram& histogram, const char* name,
                         std::int64_t from, std::int64_t to) {
    if (warm) histogram.Record((to - from) / 1000);
    obs::EmitSpan(trace, name, from, to);
  };
  const std::int64_t t0 = obs::TraceNowNs();
  const data::Normalizer& normalizer = *job->normalizer;
  const Matrix normalized = normalizer.Transform(job->rows);
  const Matrix remapped =
      RemapControlPoints(job->live_control, job->old_mins, job->old_maxs,
                         normalizer.mins(), normalizer.maxs());
  const std::int64_t t1 = obs::TraceNowNs();
  phase(refresh_renormalize_us_, "stream.renormalize", t0, t1);
  core::RpcLearnOptions learn_options =
      warm ? warm_options_ : options_.learner;
  learn_options.trace_id = trace;  // stage spans nest under this job
  const core::RpcLearner learner(learn_options);
  Result<core::RpcFitResult> fit =
      warm ? learner.Refit(normalized, alpha_, remapped)
           : learner.Fit(normalized, alpha_);
  bool adopt = fit.ok();
  if (adopt && !warm) {
    // Publish-if-better: the live model's objective J on the same rows, in
    // the same (live) coordinates, is the sum of squared projection
    // distances onto the remapped curve — apples-to-apples with
    // fit->final_j. A cold fit that found no better basin is discarded.
    curve::BezierCurve live;
    live.SetControlPoints(remapped);
    double live_j = 0.0;
    opt::ProjectRows(live, normalized, options_.learner.projection, &live_j);
    adopt = fit->final_j < live_j;
  }
  const std::int64_t t2 = obs::TraceNowNs();
  phase(refresh_refit_us_, "stream.refit", t1, t2);
  if (!adopt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++(fit.ok() ? cold_rejected_ : failed_refreshes_);
    }
    FinishJob(*job);
    return fit.status();
  }

  core::PortableRpcModel portable;
  bool durable = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    control_ = fit->curve.control_points();
    model_mins_ = normalizer.mins();
    model_maxs_ = normalizer.maxs();
    ++version_;
    // Refresh the served score of every row the job covered; rows appended
    // while it ran keep their append-time projection (they are first-class
    // citizens of the next job).
    for (size_t i = 0; i < job->row_ids.size(); ++i) {
      const auto it = id_to_index_.find(job->row_ids[i]);
      if (it == id_to_index_.end()) continue;  // retired mid-job
      s_[static_cast<size_t>(it->second)] = fit->scores[static_cast<int>(i)];
    }
    RebindCurveLocked();
    if (warm) {
      ++refreshes_;
      refresh_seconds_.push_back(SecondsSince(start));
    } else {
      ++cold_refits_;
    }
    portable = PortableModelLocked();
    // Staged at exactly the point in the event order where the new
    // version took effect, so replay reproduces the same interleaving.
    LogPublishLocked(warm ? kPublishWarm : kPublishCold, portable,
                     job->row_ids, fit->scores);
    durable = log_ != nullptr;
  }
  if (durable) ScheduleLogFlush();
  // Publish before releasing the slot, so versions reach the serving tier
  // in order (at most one job exists at a time).
  const Status published = Publish(portable);
  phase(refresh_publish_us_, "stream.publish", t2, obs::TraceNowNs());
  FinishJob(*job);
  return published;
}

void StreamingRanker::FinishJob(const RefreshJob& job) {
  std::shared_ptr<RefreshJob> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    refresh_in_flight_ = false;
    // Events keep applying while a job runs on the aux lane, but the
    // chooser passes them over while the slot is held. Re-ask it now:
    // otherwise a quiet stream leaves them unrefreshed until the next
    // arrival, whether this job was adopted, rejected or failed.
    if (!stopped_) {
      next = NextJobLocked(events_processed_ > job.prepared_events);
    }
  }
  cv_.notify_all();
  if (next != nullptr) {
    aux_pool_->Submit([this, next] { (void)RunJob(next.get()); });
  }
}

Status StreamingRanker::Publish(const core::PortableRpcModel& portable) {
  if (service_ == nullptr) return Status::Ok();
  Status published =
      service_->RegisterDataset(dataset_id_, portable, options_.serving);
  if (!published.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++publish_failures_;
  }
  return published;
}

double StreamingRanker::ProjectRowLocked(const double* raw_row) {
  append_normalized_.resize(static_cast<size_t>(d_));
  for (int j = 0; j < d_; ++j) {
    append_normalized_[static_cast<size_t>(j)] =
        (raw_row[j] - model_mins_[j]) / (model_maxs_[j] - model_mins_[j]);
  }
  return append_workspace_.Project(append_normalized_.data()).s;
}

void StreamingRanker::RebindCurveLocked() {
  live_curve_.SetControlPoints(control_);
  append_workspace_.Bind(live_curve_, options_.learner.projection);
}

core::PortableRpcModel StreamingRanker::PortableModelLocked() const {
  core::PortableRpcModel portable;
  portable.alpha = alpha_;
  portable.mins = model_mins_;
  portable.maxs = model_maxs_;
  portable.control_points = control_;
  portable.version = version_;
  return portable;
}

Matrix StreamingRanker::StoreMatrixLocked() const {
  const int n = static_cast<int>(row_ids_.size());
  Matrix out(n, d_);
  if (n > 0) {
    std::copy(rows_.begin(), rows_.end(), out.RowPtr(0));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Durable tier: record staging, group commit, snapshots, recovery.

void StreamingRanker::LogEventLocked(const Event& event) {
  if (log_ == nullptr || replaying_) return;
  std::string payload;
  durable::PutI64(&payload, event.row_id);
  if (event.kind == Event::Kind::kAppend) {
    for (int j = 0; j < d_; ++j) durable::PutF64(&payload, event.row[j]);
    log_->Append(durable::RecordType::kAppend, payload);
  } else {
    log_->Append(durable::RecordType::kRetire, payload);
  }
}

void StreamingRanker::LogBoundsLocked() {
  if (log_ == nullptr || replaying_) return;
  std::string payload;
  for (int j = 0; j < d_; ++j) {
    durable::PutF64(&payload, online_.mins()[j]);
  }
  for (int j = 0; j < d_; ++j) {
    durable::PutF64(&payload, online_.maxs()[j]);
  }
  log_->Append(durable::RecordType::kBounds, payload);
}

void StreamingRanker::LogPublishLocked(
    std::uint32_t kind, const core::PortableRpcModel& portable,
    const std::vector<std::int64_t>& row_ids, const Vector& scores) {
  if (log_ == nullptr || replaying_) return;
  std::string payload;
  durable::PutU32(&payload, kind);
  durable::PutBytes(&payload, portable.Serialize());
  durable::PutU64(&payload, row_ids.size());
  for (size_t i = 0; i < row_ids.size(); ++i) {
    durable::PutI64(&payload, row_ids[i]);
    durable::PutF64(&payload, scores[static_cast<int>(i)]);
  }
  log_->Append(durable::RecordType::kPublish, payload);
}

void StreamingRanker::ScheduleLogFlush() {
  // One flush task in flight at a time: a burst of events sets the flag
  // once and shares the single write+fsync (group commit). The flag is
  // cleared before Sync, so records staged during the fsync get a fresh
  // flush instead of being stranded.
  if (log_flush_scheduled_.exchange(true)) return;
  aux_pool_->Submit([this] {
    log_flush_scheduled_.store(false);
    const Status synced = log_->Sync();
    if (!synced.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++durable_errors_;
    }
  });
}

durable::SnapshotState StreamingRanker::BuildSnapshotStateLocked() const {
  durable::SnapshotState state;
  state.d = d_;
  state.last_seq = log_ != nullptr ? log_->last_appended_seq() : 0;
  state.next_row_id = next_row_id_;
  state.model_text = PortableModelLocked().Serialize();
  const data::OnlineNormalizer::State norm = online_.ExportState();
  state.norm_count = norm.count;
  state.norm_bounds_stale = norm.bounds_stale;
  state.norm_mins = norm.mins;
  state.norm_maxs = norm.maxs;
  state.norm_mean = norm.mean;
  state.norm_m2 = norm.m2;
  state.row_ids = row_ids_;
  state.rows = rows_;
  state.s = s_;
  state.appended = appended_;
  state.retired = retired_;
  state.retire_misses = retire_misses_;
  state.events_processed = events_processed_;
  state.refreshes = refreshes_;
  state.skipped_refreshes = skipped_refreshes_;
  state.failed_refreshes = failed_refreshes_;
  state.publish_failures = publish_failures_;
  state.events_since_refresh = events_since_refresh_;
  state.events_since_cold = events_since_cold_;
  state.last_drift = last_drift_;
  return state;
}

Status StreamingRanker::PersistSnapshot(const durable::SnapshotState& state) {
  const DurabilityOptions& dur = options_.durability;
  RPC_RETURN_IF_ERROR(
      durable::WriteSnapshot(dur.dir, state, dur.injector.get()));
  RPC_RETURN_IF_ERROR(durable::RemoveOldSnapshots(
      dur.dir, std::max(dur.keep_snapshots, 1)));
  // Truncate only through the OLDEST kept snapshot: if the newest turns out
  // corrupt at recovery, the fallback still has its log suffix.
  const std::vector<std::uint64_t> seqs = durable::ListSnapshotSeqs(dur.dir);
  durable::EventLog* log = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    log = log_.get();
  }
  if (log != nullptr && !seqs.empty()) {
    const std::uint64_t horizon =
        TruncateHorizon(seqs.front(), log->last_appended_seq());
    if (horizon > 0) {
      RPC_RETURN_IF_ERROR(log->TruncateThrough(horizon));
    }
  }
  return Status::Ok();
}

Status StreamingRanker::WriteSnapshotNow() {
  durable::SnapshotState state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state = BuildSnapshotStateLocked();
  }
  return PersistSnapshot(state);
}

Result<std::unique_ptr<durable::EventLog>> StreamingRanker::OpenLog(
    int d, std::uint64_t next_seq) const {
  durable::EventLog::Options log_options;
  log_options.segment_bytes = options_.durability.segment_bytes;
  log_options.injector = options_.durability.injector.get();
  return durable::EventLog::Open(options_.durability.dir, d, next_seq,
                                 log_options);
}

std::uint64_t StreamingRanker::TruncateHorizon(
    std::uint64_t oldest_snapshot_seq, std::uint64_t last_appended) const {
  std::uint64_t horizon = oldest_snapshot_seq;
  const std::int64_t keep = options_.durability.wal_keep_events;
  if (keep > 0) {
    // Retain at least the newest `keep` records for standby catch-up —
    // never past the snapshot horizon, so the retention knob only ever
    // keeps MORE log, and a retained snapshot always has its suffix.
    const std::uint64_t kept_from =
        last_appended > static_cast<std::uint64_t>(keep)
            ? last_appended - static_cast<std::uint64_t>(keep)
            : 0;
    horizon = std::min(horizon, kept_from);
  }
  return horizon;
}

Status StreamingRanker::InstallSnapshotStateLocked(
    const durable::SnapshotState& state) {
  RPC_ASSIGN_OR_RETURN(core::PortableRpcModel model,
                       core::PortableRpcModel::Deserialize(state.model_text));
  d_ = state.d;
  alpha_ = model.alpha;
  control_ = model.control_points;
  model_mins_ = model.mins;
  model_maxs_ = model.maxs;
  version_ = model.version;
  next_row_id_ = state.next_row_id;
  rows_ = state.rows;
  row_ids_ = state.row_ids;
  s_ = state.s;
  id_to_index_.clear();
  for (size_t i = 0; i < row_ids_.size(); ++i) {
    id_to_index_[row_ids_[i]] = static_cast<int>(i);
  }
  data::OnlineNormalizer::State norm;
  norm.count = state.norm_count;
  norm.bounds_stale = state.norm_bounds_stale;
  norm.mins = state.norm_mins;
  norm.maxs = state.norm_maxs;
  norm.mean = state.norm_mean;
  norm.m2 = state.norm_m2;
  online_.ImportState(norm);
  appended_ = state.appended;
  retired_ = state.retired;
  retire_misses_ = state.retire_misses;
  events_processed_ = state.events_processed;
  refreshes_ = state.refreshes;
  skipped_refreshes_ = state.skipped_refreshes;
  failed_refreshes_ = state.failed_refreshes;
  publish_failures_ = state.publish_failures;
  events_since_refresh_ = state.events_since_refresh;
  events_since_cold_ = state.events_since_cold;
  last_drift_ = state.last_drift;
  RebindCurveLocked();
  return Status::Ok();
}

Status StreamingRanker::ApplyReplayRecordLocked(
    const durable::ReplayRecord& record) {
  durable::Cursor cursor(record.payload);
  switch (record.type) {
    case durable::RecordType::kAppend:
    case durable::RecordType::kRetire: {
      const bool append = record.type == durable::RecordType::kAppend;
      Event event;
      event.kind = append ? Event::Kind::kAppend : Event::Kind::kRetire;
      event.row_id = cursor.I64();
      if (append) {
        event.row = Vector(d_);
        for (int j = 0; j < d_; ++j) event.row[j] = cursor.F64();
      }
      if (!cursor.ok() || cursor.remaining() != 0) break;
      if (append) next_row_id_ = std::max(next_row_id_, event.row_id + 1);
      // The same apply path ingestion uses: identical arithmetic on an
      // identical op sequence means bit-identical store, scores and
      // normalizer statistics.
      ApplyEventLocked(event);
      return Status::Ok();
    }
    case durable::RecordType::kPublish: {
      const std::uint32_t kind = cursor.U32();
      const std::string model_text(cursor.LengthPrefixedBytes());
      const std::uint64_t pairs = cursor.U64();
      if (!cursor.ok() || cursor.remaining() != pairs * 16) break;
      RPC_ASSIGN_OR_RETURN(core::PortableRpcModel model,
                           core::PortableRpcModel::Deserialize(model_text));
      control_ = model.control_points;
      model_mins_ = model.mins;
      model_maxs_ = model.maxs;
      version_ = model.version;
      for (std::uint64_t i = 0; i < pairs; ++i) {
        const std::int64_t row_id = cursor.I64();
        const double score = cursor.F64();
        const auto it = id_to_index_.find(row_id);
        if (it == id_to_index_.end()) continue;  // retired before publish
        s_[static_cast<size_t>(it->second)] = score;
      }
      RebindCurveLocked();
      // The job behind this record restarted its policy count when it was
      // prepared. Serially no event falls between that prepare and this
      // record, so restarting the count here replays the cadence exactly.
      if (kind == kPublishCold) {
        ++cold_refits_;
        events_since_cold_ = 0;
      } else {
        ++refreshes_;
        events_since_refresh_ = 0;
      }
      return Status::Ok();
    }
    case durable::RecordType::kBounds: {
      // Integrity cross-check: the bounds the original rescan produced
      // must match the bounds our replayed rescan just produced, bit for
      // bit. A mismatch means the log and the snapshot disagree.
      for (int j = 0; j < 2 * d_; ++j) {
        const double logged = cursor.F64();
        const double live =
            j < d_ ? online_.mins()[j] : online_.maxs()[j - d_];
        if (cursor.ok() && !BitEqual(logged, live)) {
          return Status::DataLoss(StrFormat(
              "recovery: replayed normalizer bounds diverge from logged "
              "bounds at record seq %llu (attribute %d)",
              static_cast<unsigned long long>(record.seq), j % d_));
        }
      }
      if (!cursor.ok() || cursor.remaining() != 0) break;
      return Status::Ok();
    }
  }
  return Status::DataLoss(StrFormat(
      "recovery: malformed record payload at seq %llu (type %d)",
      static_cast<unsigned long long>(record.seq),
      static_cast<int>(record.type)));
}

Status StreamingRanker::Recover() { return RecoverImpl(/*as_follower=*/false); }

Status StreamingRanker::RecoverAsFollower() {
  return RecoverImpl(/*as_follower=*/true);
}

Status StreamingRanker::RecoverImpl(bool as_follower) {
  const DurabilityOptions& dur = options_.durability;
  if (!dur.enabled()) {
    return Status::FailedPrecondition(
        "StreamingRanker: durability not configured (empty dir)");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::FailedPrecondition("StreamingRanker: stopped");
    if (started_) {
      return Status::FailedPrecondition("StreamingRanker: already started");
    }
  }
  RPC_ASSIGN_OR_RETURN(durable::LoadedSnapshot loaded,
                       durable::LoadLatestSnapshot(dur.dir));
  int d = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RPC_RETURN_IF_ERROR(InstallSnapshotStateLocked(loaded.state));
    replaying_ = true;
    d = d_;
  }
  Result<durable::ReplayResult> replayed = durable::ReplayEventLog(
      dur.dir, d, loaded.state.last_seq,
      [this](const durable::ReplayRecord& record) {
        std::lock_guard<std::mutex> lock(mu_);
        return ApplyReplayRecordLocked(record);
      });
  {
    std::lock_guard<std::mutex> lock(mu_);
    replaying_ = false;
  }
  RPC_RETURN_IF_ERROR(replayed.status());
  if (replayed->tail_truncated) {
    // Cut the torn tail record so the reopened log appends after the last
    // valid one.
    if (::truncate(replayed->tail_segment_path.c_str(),
                   replayed->tail_valid_bytes) != 0) {
      return Status::DataLoss(StrFormat(
          "recovery: cannot truncate torn log tail '%s'",
          replayed->tail_segment_path.c_str()));
    }
  }
  std::unique_ptr<durable::EventLog> log;
  if (!as_follower) {
    RPC_ASSIGN_OR_RETURN(log, OpenLog(d, replayed->last_seq + 1));
  }
  core::PortableRpcModel portable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    recovery_info_ = {.recovered = true,
                      .snapshot_path = loaded.path,
                      .snapshot_seq = loaded.state.last_seq,
                      .snapshot_fallbacks = loaded.fallbacks,
                      .replayed_records = replayed->replayed,
                      .tail_truncated = replayed->tail_truncated,
                      .recovered_version = version_};
    if (as_follower) {
      started_ = true;
      follower_ = true;
      last_applied_seq_ = replayed->last_seq;
      portable = PortableModelLocked();
    }
  }
  // A primary takes the log over: a fresh post-recovery snapshot bounds the
  // next crash's replay (and absorbs the replayed suffix, so the truncated
  // log can be rotated), and queries resume against exactly the version
  // that was being served pre-crash.
  if (!as_follower) return TakeOver(std::move(log));
  // A standby stops here: same snapshot, same replay, same state — but it
  // does not take over the log for writing (the replication applier owns
  // the local WAL) and writes no snapshot of its own. It keeps serving the
  // recovered model read-only until promoted.
  return Publish(portable);
}

Status StreamingRanker::TakeOver(std::unique_ptr<durable::EventLog> log) {
  core::PortableRpcModel portable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_ = std::move(log);
    started_ = true;
    follower_ = false;
    refresh_in_flight_ = true;  // hold the slot across snapshot and publish
    portable = PortableModelLocked();
  }
  if (!WriteSnapshotNow().ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++durable_errors_;
  }
  const Status published = Publish(portable);
  {
    std::lock_guard<std::mutex> lock(mu_);
    refresh_in_flight_ = false;
  }
  cv_.notify_all();
  return published;
}

StreamingRanker::RecoveryInfo StreamingRanker::recovery_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_info_;
}

// ---------------------------------------------------------------------------
// Follower (replication standby) mode.

Status StreamingRanker::FollowerInstallSnapshot(
    const durable::SnapshotState& state) {
  core::PortableRpcModel portable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::FailedPrecondition("StreamingRanker: stopped");
    if (started_ && !follower_) {
      return Status::FailedPrecondition(
          "StreamingRanker: already started as primary");
    }
    RPC_RETURN_IF_ERROR(InstallSnapshotStateLocked(state));
    started_ = true;
    follower_ = true;
    last_applied_seq_ = state.last_seq;
    portable = PortableModelLocked();
  }
  return Publish(portable);
}

Status StreamingRanker::ApplyFollowerRecord(
    const durable::ReplayRecord& record) {
  core::PortableRpcModel portable;
  bool republish = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::FailedPrecondition("StreamingRanker: stopped");
    if (!started_ || !follower_) {
      return Status::FailedPrecondition(
          "StreamingRanker: not a follower (install a snapshot or "
          "RecoverAsFollower first)");
    }
    if (record.seq != last_applied_seq_ + 1) {
      return Status::OutOfRange(StrFormat(
          "follower: expected seq %llu, got %llu",
          static_cast<unsigned long long>(last_applied_seq_ + 1),
          static_cast<unsigned long long>(record.seq)));
    }
    const std::uint64_t version_before = version_;
    RPC_RETURN_IF_ERROR(ApplyReplayRecordLocked(record));
    last_applied_seq_ = record.seq;
    if (version_ != version_before) {
      republish = true;
      portable = PortableModelLocked();
    }
  }
  // A replayed publish record changed the served model: push the new
  // version to the serving tier exactly as the primary did at this point
  // in the event order.
  return republish ? Publish(portable) : Status::Ok();
}

Status StreamingRanker::PromoteToPrimary() {
  const DurabilityOptions& dur = options_.durability;
  if (!dur.enabled()) {
    return Status::FailedPrecondition(
        "StreamingRanker: durability not configured (empty dir)");
  }
  int d = 0;
  std::uint64_t next_seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::FailedPrecondition("StreamingRanker: stopped");
    if (!started_ || !follower_) {
      return Status::FailedPrecondition("StreamingRanker: not a follower");
    }
    d = d_;
    next_seq = last_applied_seq_ + 1;
  }
  // The standby's local WAL holds exactly the records it has applied
  // (seqs 1..last_applied_seq_, modulo snapshot-covered truncation), so
  // the promoted log continues the very same sequence chain. The caller
  // must have closed the replication sink first — two writers on one
  // segment file would interleave.
  RPC_ASSIGN_OR_RETURN(std::unique_ptr<durable::EventLog> log,
                       OpenLog(d, next_seq));
  return TakeOver(std::move(log));
}

bool StreamingRanker::is_follower() const {
  std::lock_guard<std::mutex> lock(mu_);
  return follower_;
}

std::uint64_t StreamingRanker::follower_applied_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_applied_seq_;
}

std::uint64_t StreamingRanker::wal_synced_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_ != nullptr ? log_->last_synced_seq() : 0;
}

std::uint64_t StreamingRanker::wal_appended_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_ != nullptr ? log_->last_appended_seq() : 0;
}

}  // namespace rpc::stream
