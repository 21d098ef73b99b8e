#include "serve/ranking_service.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <utility>

#include "common/stringutil.h"
#include "curve/bezier.h"
#include "obs/export.h"
#include "rank/ranking_list.h"

namespace rpc::serve {

using linalg::Matrix;
using linalg::Vector;

namespace {

using Clock = std::chrono::steady_clock;

/// Rows between cooperative deadline checks in the execution hot loop:
/// rare enough that the clock read is noise (a row costs ~1 us), frequent
/// enough that an expired query stops burning pool time within ~100 us.
/// Deliberately the SoA block capacity: the hot loop scores one packed
/// block per deadline check, so the SIMD batch layout leaves cancellation
/// granularity unchanged.
constexpr int kDeadlineCheckStride = opt::RowBlock::kMaxRows;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t TpNs(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

const char* PriorityLabel(int priority) {
  switch (static_cast<QueryPriority>(priority)) {
    case QueryPriority::kInteractive:
      return "interactive";
    case QueryPriority::kBatch:
      return "batch";
    case QueryPriority::kBackground:
      return "background";
  }
  return "unknown";
}

}  // namespace

int LatencyHistogram::BucketFor(std::chrono::nanoseconds latency) {
  return obs::LatencyBucketForUs(latency.count() / 1000);
}

std::int64_t LatencyHistogram::total() const {
  std::int64_t n = 0;
  for (const std::int64_t count : buckets) n += count;
  return n;
}

double LatencyHistogram::QuantileUpperBoundUs(double q) const {
  const std::int64_t n = total();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::int64_t rank =
      std::min<std::int64_t>(n - 1, static_cast<std::int64_t>(q * n));
  std::int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets[static_cast<size_t>(i)];
    if (seen > rank) return obs::LatencyBucketUpperUs(i);
  }
  return obs::LatencyBucketUpperUs(kNumBuckets - 1);
}

/// Completion latch plus cancellation state for one query, living on the
/// Query caller's stack: segments count down as they finish (or bail) and
/// the caller waits for zero. The deadline is re-checked here by workers —
/// at dequeue and between rows — so expired work cancels cooperatively
/// instead of running to completion for a caller that already gave up.
struct RankingService::BatchState {
  std::mutex mu;
  std::condition_variable done_cv;
  int remaining = 0;

  Clock::time_point deadline;
  bool has_deadline = false;
  /// Latched once the deadline is first observed as passed; every segment
  /// of this query checks it and bails instead of scoring further rows.
  std::atomic<bool> expired{false};
  /// Set when the service shut down before the query could be admitted.
  std::atomic<bool> shutdown{false};
  /// Steady-clock nanos at which the query's last segment was admitted;
  /// written by whichever thread admitted it (the caller, or a coalesced
  /// group's sealer), read by the caller for QueryTrace — relaxed atomics
  /// because the split is observability, not synchronisation.
  std::atomic<std::int64_t> admitted_ns{0};
  /// Written by the group sealer under the coalesce mutex before the group
  /// is pushed, read by the caller after Wait (ordered by the push/pop and
  /// latch mutexes).
  bool coalesced = false;
  /// Trace-context for this query's spans (0 = untraced); written by the
  /// caller before admission, read by whichever worker executes it.
  obs::TraceId trace_id = 0;

  bool Expired(Clock::time_point now) {
    if (expired.load(std::memory_order_relaxed)) return true;
    if (has_deadline && now >= deadline) {
      expired.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Expired(now) without the clock read on the deadline-free fast path —
  /// the common case must not pay for the feature it does not use.
  bool ExpiredNow() { return has_deadline && Expired(Clock::now()); }

  void Finish() {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) done_cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
};

/// A pending micro-batch: several small queries on one shard riding a
/// single execution segment (one workspace checkout, one dispatch). Joins
/// happen under the shard's coalesce mutex while the group is the shard's
/// open group; sealing (clearing that slot) claims the right to admit it.
struct RankingService::CoalesceGroup {
  struct Entry {
    const linalg::Matrix* rows = nullptr;
    double* scores_out = nullptr;
    int n = 0;
    BatchState* state = nullptr;
  };
  std::vector<Entry> entries;
  int total_rows = 0;
  int lane = 0;  // most important lane among the riders
  Clock::time_point flush_at;
  /// When the leader opened the group; start of every rider's
  /// "serve.coalesce" span.
  std::int64_t opened_ns = 0;
  bool sealed = false;
  std::condition_variable sealed_cv;  // the leader waits here
};

/// Everything one dataset needs to answer queries, built whole before it is
/// published (copy-on-write) and immutable afterwards except the free list,
/// the coalescing slot and counters, which are internally synchronised.
struct RankingService::Shard {
  core::PortableRpcModel model;
  /// The validated curve behind a shared_ptr: workspaces co-own it via
  /// BindShared, so even a workspace observed mid-checkout during an evict
  /// keeps the geometry alive.
  std::shared_ptr<const curve::BezierCurve> curve;
  /// Priority class for queries that do not set QueryOptions::priority.
  QueryPriority default_priority = QueryPriority::kInteractive;

  /// One bound workspace + normalisation scratch per slot. ProjectionWorkspace
  /// is neither copyable nor movable, hence the unique_ptr indirection.
  struct Slot {
    opt::ProjectionWorkspace workspace;
    /// kDeadlineCheckStride x d scratch: one block of rows in curve space,
    /// normalised then projected as a unit (ScoreRows).
    std::vector<double> normalized;
  };
  std::vector<std::unique_ptr<Slot>> slots;
  /// Free slot indices; checkout = Pop (blocks only while every slot is
  /// held by a segment that is actively running on some thread, so the wait
  /// is always finite), return = Push (never blocks: capacity == slots).
  mutable BoundedQueue<int> free_slots;

  /// At most one open coalescing group per shard snapshot; guarded by
  /// coalesce_mu together with every group's membership and sealed flag.
  mutable std::mutex coalesce_mu;
  mutable std::shared_ptr<CoalesceGroup> open_group;

  explicit Shard(int num_slots) : free_slots(num_slots) {}
};

RankingService::RankingService(const Options& options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.num_threads)),
      queue_(std::max(options.queue_capacity, 1), kNumPriorities) {
  options_.queue_capacity = std::max(options.queue_capacity, 1);
  if (options_.workspaces_per_shard <= 0) {
    options_.workspaces_per_shard = pool_->parallelism();
  }
  if (options_.segment_rows < 1) options_.segment_rows = 1;
  options_.coalesce_max_rows = std::max(options_.coalesce_max_rows, 1);
  options_.coalesce_flush_rows =
      std::max(options_.coalesce_flush_rows, options_.coalesce_max_rows);
  for (int p = 0; p < kNumPriorities; ++p) {
    const double share = options_.shedding.queue_share[static_cast<size_t>(p)];
    queue_.SetLaneLimit(
        p, static_cast<int>(share * options_.queue_capacity));
  }

  // One series set per service instance: the svc label keeps concurrent
  // services (tests, embedded tools) from pooling their counts, and stats()
  // reads back exactly the cells this instance owns.
  static std::atomic<int> next_service_ordinal{0};
  const obs::Labels labels = {
      {"svc", std::to_string(next_service_ordinal.fetch_add(
                  1, std::memory_order_relaxed))}};
  obs::Registry& registry = obs::Registry::Global();
  queries_ = registry.GetCounter("rpc_serve_queries_total", labels,
                                 "Batches fully served");
  rows_ = registry.GetCounter("rpc_serve_rows_total", labels,
                              "Rows scored across all queries");
  segments_ = registry.GetCounter("rpc_serve_segments_total", labels,
                                  "Execution segments dispatched");
  rejected_ = registry.GetCounter("rpc_serve_rejected_total", labels,
                                  "Admissions refused (shed or shutdown)");
  registrations_ =
      registry.GetCounter("rpc_serve_registrations_total", labels,
                          "Shards published (incl. replacements)");
  deadline_expired_ =
      registry.GetCounter("rpc_serve_deadline_expired_total", labels,
                          "Queries failed with kDeadlineExceeded");
  expired_segments_ =
      registry.GetCounter("rpc_serve_expired_segments_total", labels,
                          "Segments skipped or abandoned past their deadline");
  coalesced_queries_ =
      registry.GetCounter("rpc_serve_coalesced_queries_total", labels,
                          "Queries served inside a shared coalesced group");
  for (int p = 0; p < kNumPriorities; ++p) {
    obs::Labels shed_labels = labels;
    shed_labels.emplace_back("priority", PriorityLabel(p));
    shed_by_priority_[static_cast<size_t>(p)] =
        registry.GetCounter("rpc_serve_shed_total", shed_labels,
                            "Admissions refused per priority class");
  }
  latency_us_ = registry.GetHistogram(
      "rpc_serve_latency_us", obs::LatencyBucketUpperBoundsUs(), labels,
      "End-to-end latency of answered queries (us)");
  admission_wait_us_ = registry.GetHistogram(
      "rpc_serve_admission_wait_us", obs::LatencyBucketUpperBoundsUs(), labels,
      "Time from entering Query until the last segment was admitted (us)");
  queue_depth_gauge_ = registry.GetCallbackGauge(
      "rpc_serve_queue_depth", labels,
      [this] { return static_cast<double>(queue_.size()); },
      "Admission-queue occupancy (segments)");
  queue_peak_gauge_ = registry.GetCallbackGauge(
      "rpc_serve_queue_depth_peak", labels,
      [this] { return static_cast<double>(queue_.peak_size()); },
      "Admission-queue high-water mark (segments)");
  datasets_gauge_ = registry.GetCallbackGauge(
      "rpc_serve_datasets", labels,
      [this] {
        std::lock_guard<std::mutex> lock(shards_mu_);
        return static_cast<double>(shards_.size());
      },
      "Shards currently resident");
}

RankingService::~RankingService() {
  // Refuse new admissions, then let the pool drain what was admitted (its
  // destructor runs WaitTasks); every drain task pops the segment admitted
  // before it, so nothing is left referencing caller memory.
  queue_.Close();
  pool_.reset();
}

Result<std::shared_ptr<const RankingService::Shard>>
RankingService::BuildShard(const core::PortableRpcModel& model,
                           const DatasetOptions& dataset) const {
  RPC_ASSIGN_OR_RETURN(core::RpcCurve curve, model.BuildCurve());
  // Deserialize enforces these for file-loaded models; an in-memory model
  // handed straight to RegisterDataset must meet the same contract, or the
  // hot loop would divide by (max - min) <= 0 and serve NaN scores.
  if (model.mins.size() != curve.dimension() ||
      model.maxs.size() != curve.dimension()) {
    return Status::InvalidArgument(StrFormat(
        "RankingService: model has %d-dimensional curve but %d mins / %d "
        "maxs",
        curve.dimension(), model.mins.size(), model.maxs.size()));
  }
  for (int j = 0; j < curve.dimension(); ++j) {
    if (!(model.maxs[j] > model.mins[j])) {
      return Status::InvalidArgument(StrFormat(
          "RankingService: attribute %d has max (%g) <= min (%g)", j,
          model.maxs[j], model.mins[j]));
    }
  }
  auto shard = std::make_shared<Shard>(options_.workspaces_per_shard);
  shard->model = model;
  shard->default_priority = dataset.default_priority;
  shard->curve = std::make_shared<const curve::BezierCurve>(curve.bezier());
  const int d = shard->curve->dimension();
  shard->slots.reserve(static_cast<size_t>(options_.workspaces_per_shard));
  for (int i = 0; i < options_.workspaces_per_shard; ++i) {
    auto slot = std::make_unique<Shard::Slot>();
    slot->workspace.BindShared(shard->curve, options_.projection);
    slot->normalized.resize(static_cast<size_t>(kDeadlineCheckStride) * d);
    shard->slots.push_back(std::move(slot));
    shard->free_slots.Push(i);
  }
  return std::shared_ptr<const Shard>(std::move(shard));
}

Status RankingService::RegisterDataset(const std::string& dataset_id,
                                       const core::PortableRpcModel& model,
                                       const DatasetOptions& dataset) {
  if (dataset_id.empty()) {
    return Status::InvalidArgument("RankingService: empty dataset id");
  }
  // Build the complete replacement outside the lock — registration cost
  // (curve validation, workspace binds) never stalls queries — then swap.
  RPC_ASSIGN_OR_RETURN(std::shared_ptr<const Shard> shard,
                       BuildShard(model, dataset));
  registrations_.Increment();
  std::lock_guard<std::mutex> lock(shards_mu_);
  shards_[dataset_id] = std::move(shard);
  return Status::Ok();
}

Result<std::uint64_t> RankingService::DatasetVersion(
    const std::string& dataset_id) const {
  const std::shared_ptr<const Shard> shard = FindShard(dataset_id);
  if (shard == nullptr) {
    return Status::NotFound(
        StrFormat("RankingService: no dataset '%s'", dataset_id.c_str()));
  }
  return shard->model.version;
}

Status RankingService::RegisterDatasetFromFile(const std::string& dataset_id,
                                               const std::string& path,
                                               const DatasetOptions& dataset) {
  RPC_ASSIGN_OR_RETURN(core::PortableRpcModel model, core::LoadModel(path));
  return RegisterDataset(dataset_id, model, dataset);
}

Status RankingService::EvictDataset(const std::string& dataset_id) {
  std::lock_guard<std::mutex> lock(shards_mu_);
  if (shards_.erase(dataset_id) == 0) {
    return Status::NotFound(
        StrFormat("RankingService: no dataset '%s'", dataset_id.c_str()));
  }
  return Status::Ok();
}

bool RankingService::HasDataset(const std::string& dataset_id) const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  return shards_.count(dataset_id) != 0;
}

std::vector<std::string> RankingService::DatasetIds() const {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    ids.reserve(shards_.size());
    for (const auto& [id, shard] : shards_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::shared_ptr<const RankingService::Shard> RankingService::FindShard(
    const std::string& dataset_id) const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  const auto it = shards_.find(dataset_id);
  return it == shards_.end() ? nullptr : it->second;
}

bool RankingService::ScoreRows(const Shard& shard, int slot_index,
                               const Matrix& rows, int begin, int end,
                               double* scores_out, BatchState& state) const {
  Shard::Slot& slot = *shard.slots[static_cast<size_t>(slot_index)];
  const Vector& mins = shard.model.mins;
  const Vector& maxs = shard.model.maxs;
  const int d = shard.curve->dimension();
  // Hot loop: normalise one block of rows into the slot scratch, project
  // the block through the SIMD grid kernels, store s. The same arithmetic
  // as data::Normalizer::Transform + ProjectionWorkspace::Project (the
  // block path is bit-identical to the per-row path), so served scores
  // stay bit-identical to RpcRanker::Score; and like the fitting engine's
  // batch loop it allocates nothing per row. The deadline re-check sits
  // between blocks — the same stride the per-row loop used.
  for (int block_begin = begin; block_begin < end;
       block_begin += kDeadlineCheckStride) {
    if (block_begin != begin && state.ExpiredNow()) {
      return false;  // caller gave up; stop burning pool time
    }
    const int block_end = std::min(end, block_begin + kDeadlineCheckStride);
    for (int i = block_begin; i < block_end; ++i) {
      const double* raw = rows.RowPtr(i);
      double* norm =
          slot.normalized.data() + static_cast<size_t>(i - block_begin) * d;
      for (int j = 0; j < d; ++j) {
        norm[j] = (raw[j] - mins[j]) / (maxs[j] - mins[j]);
      }
    }
    slot.workspace.ProjectBlock(slot.normalized.data(),
                                block_end - block_begin, d,
                                scores_out + block_begin,
                                /*squared_out=*/nullptr);
  }
  return true;
}

void RankingService::RunGroup(const Segment& seg) const {
  const Shard& shard = *seg.shard;
  const std::optional<int> slot_index = shard.free_slots.Pop();
  if (!slot_index.has_value()) return;  // unreachable: free_slots never closes
  // One checkout for every rider — the amortisation coalescing exists for.
  for (const CoalesceGroup::Entry& entry : seg.group->entries) {
    BatchState& state = *entry.state;
    const obs::TraceId trace = state.trace_id;
    if (state.ExpiredNow()) {
      expired_segments_.Increment();
      state.Finish();
      continue;
    }
    std::int64_t run_start_ns = 0;
    if (trace != 0) {
      run_start_ns = obs::TraceNowNs();
      const std::int64_t admitted =
          state.admitted_ns.load(std::memory_order_relaxed);
      obs::EmitSpan(trace, "serve.queued",
                    admitted > 0 && admitted <= run_start_ns ? admitted
                                                             : run_start_ns,
                    run_start_ns);
    }
    if (!ScoreRows(shard, *slot_index, *entry.rows, 0, entry.n,
                   entry.scores_out, state)) {
      expired_segments_.Increment();
    }
    if (trace != 0) {
      obs::EmitSpan(trace, "serve.execute", run_start_ns, obs::TraceNowNs());
    }
    state.Finish();
  }
  shard.free_slots.Push(*slot_index);
}

void RankingService::RunOneSegment() const {
  // By construction one Submit follows each successful queue push, so this
  // Pop always finds the matching (not necessarily the same) segment.
  std::optional<Segment> seg = queue_.Pop();
  if (!seg.has_value()) return;  // closed and drained during shutdown

  if (seg->group != nullptr) {
    RunGroup(*seg);
    return;
  }

  BatchState& state = *seg->state;
  // Deadline re-check at dequeue: a segment that sat out its budget in the
  // queue is accounted and dropped, not executed.
  if (state.ExpiredNow()) {
    expired_segments_.Increment();
    state.Finish();
    return;
  }

  // Span timestamps reuse one clock read per edge; untraced queries (the
  // common case when auto-tracing is off) skip both reads entirely.
  const obs::TraceId trace = state.trace_id;
  std::int64_t run_start_ns = 0;
  if (trace != 0) {
    run_start_ns = obs::TraceNowNs();
    const std::int64_t admitted =
        state.admitted_ns.load(std::memory_order_relaxed);
    // admitted_ns lands after the pushes; a worker can pop first, in which
    // case the queued span collapses to zero length at dequeue time.
    obs::EmitSpan(trace, "serve.queued",
                  admitted > 0 && admitted <= run_start_ns ? admitted
                                                           : run_start_ns,
                  run_start_ns);
  }

  const Shard& shard = *seg->shard;
  const std::optional<int> slot_index = shard.free_slots.Pop();
  if (!slot_index.has_value()) return;  // unreachable: free_slots never closes
  const bool completed = ScoreRows(shard, *slot_index, *seg->rows, seg->begin,
                                   seg->end, seg->scores_out, state);
  shard.free_slots.Push(*slot_index);
  if (!completed) expired_segments_.Increment();
  if (trace != 0) {
    obs::EmitSpan(trace, "serve.execute", run_start_ns, obs::TraceNowNs());
  }
  state.Finish();
}

Status RankingService::AdmitSegmented(
    const std::shared_ptr<const Shard>& shard, const Matrix& raw_rows,
    double* scores_out, int lane, const QueryOptions& options,
    BatchState& state, QueryTrace& trace) const {
  const int n = raw_rows.rows();
  const int segment_rows = options_.segment_rows;
  const int num_segments = (n + segment_rows - 1) / segment_rows;
  state.remaining = num_segments;
  trace.segments = num_segments;

  const bool blocking = options.admission == AdmissionPolicy::kBlock;
  // Admit every segment before waiting; each successful push is paired
  // with exactly one Submit so pushes and pops stay balanced.
  for (int s = 0; s < num_segments; ++s) {
    Segment seg;
    seg.shard = shard;
    seg.rows = &raw_rows;
    seg.scores_out = scores_out;
    seg.begin = s * segment_rows;
    seg.end = std::min(n, seg.begin + segment_rows);
    seg.state = &state;
    const QueuePushResult pushed =
        blocking ? queue_.PushUntil(std::move(seg), lane, options.deadline)
                 : queue_.TryPush(std::move(seg), lane);
    if (pushed != QueuePushResult::kOk) {
      // Shed, shutdown or deadline: withdraw the segments not yet admitted
      // and wait out the ones that were (they still reference the caller's
      // rows and result memory).
      {
        std::lock_guard<std::mutex> lock(state.mu);
        state.remaining -= num_segments - s;
      }
      state.Wait();
      switch (pushed) {
        case QueuePushResult::kTimeout:
          deadline_expired_.Increment();
          return Status::DeadlineExceeded(
              "RankingService: deadline expired while blocked on a full "
              "admission queue");
        case QueuePushResult::kClosed:
          rejected_.Increment();
          return Status::FailedPrecondition("RankingService: shutting down");
        default:
          rejected_.Increment();
          shed_by_priority_[static_cast<size_t>(lane)].Increment();
          return Status::FailedPrecondition(
              "RankingService: admission queue full");
      }
    }
    segments_.Increment();
    pool_->Submit([this] { RunOneSegment(); });
  }
  state.admitted_ns.store(NowNs(), std::memory_order_relaxed);
  return Status::Ok();
}

void RankingService::SealAndAdmitGroup(
    const std::shared_ptr<const Shard>& shard,
    const std::shared_ptr<CoalesceGroup>& group) const {
  {
    std::lock_guard<std::mutex> lock(shard->coalesce_mu);
    group->sealed = true;
    const bool shared_ride = group->entries.size() > 1;
    for (const CoalesceGroup::Entry& entry : group->entries) {
      entry.state->coalesced = shared_ride;
    }
  }
  group->sealed_cv.notify_all();

  Segment seg;
  seg.shard = shard;
  seg.group = group;
  // Blocking, deadline-free admission: riders already paid their admission
  // deadline check on entry, and an expired rider is dropped at dequeue.
  const QueuePushResult pushed = queue_.Push(std::move(seg), group->lane);
  if (pushed == QueuePushResult::kOk) {
    const std::int64_t now_ns = NowNs();
    for (const CoalesceGroup::Entry& entry : group->entries) {
      entry.state->admitted_ns.store(now_ns, std::memory_order_relaxed);
      // Every rider gets the gather window on its own timeline: group open
      // to sealed-and-admitted, the price paid for the shared ride.
      if (entry.state->trace_id != 0 && group->opened_ns > 0) {
        obs::EmitSpan(entry.state->trace_id, "serve.coalesce",
                      group->opened_ns, now_ns);
      }
    }
    segments_.Increment();
    pool_->Submit([this] { RunOneSegment(); });
    return;
  }
  // kClosed (a blocking push only fails on shutdown): fail every rider.
  rejected_.Increment();
  for (const CoalesceGroup::Entry& entry : group->entries) {
    entry.state->shutdown.store(true, std::memory_order_relaxed);
    entry.state->Finish();
  }
}

Status RankingService::AdmitCoalesced(const std::shared_ptr<const Shard>& shard,
                                      const Matrix& raw_rows,
                                      double* scores_out, int lane,
                                      BatchState& state) const {
  state.remaining = 1;
  std::shared_ptr<CoalesceGroup> group;
  bool leader = false;
  bool sealer = false;
  {
    std::lock_guard<std::mutex> lock(shard->coalesce_mu);
    if (shard->open_group == nullptr) {
      group = std::make_shared<CoalesceGroup>();
      const Clock::time_point opened = Clock::now();
      group->flush_at = opened + options_.max_coalesce_delay;
      group->opened_ns = TpNs(opened);
      group->lane = lane;
      shard->open_group = group;
      leader = true;
    } else {
      group = shard->open_group;
      group->lane = std::min(group->lane, lane);
    }
    group->entries.push_back({&raw_rows, scores_out, raw_rows.rows(), &state});
    group->total_rows += raw_rows.rows();
    if (!leader && group->total_rows >= options_.coalesce_flush_rows) {
      shard->open_group = nullptr;  // claim: this thread seals the group
      sealer = true;
    }
  }
  if (leader) {
    // The leader donates its own latency budget (at most
    // max_coalesce_delay) waiting for co-riders, then flushes whatever
    // gathered. A rider that filled the group meanwhile seals it instead;
    // clearing the shard's open slot under the mutex is the claim, so
    // exactly one thread admits each group.
    std::unique_lock<std::mutex> lock(shard->coalesce_mu);
    group->sealed_cv.wait_until(lock, group->flush_at,
                                [&] { return group->sealed; });
    if (!group->sealed && shard->open_group == group) {
      shard->open_group = nullptr;
      sealer = true;
    }
  }
  if (sealer) SealAndAdmitGroup(shard, group);
  return Status::Ok();
}

Result<RankedBatch> RankingService::QueryImpl(const std::string& dataset_id,
                                              const Matrix& raw_rows,
                                              const QueryOptions& options) const {
  const Clock::time_point start = Clock::now();
  const bool has_deadline = options.deadline != Clock::time_point::max();
  // Deadline check #1, at admission: an already-expired query never touches
  // the queue (or even the shard map).
  if (has_deadline && start >= options.deadline) {
    deadline_expired_.Increment();
    return Status::DeadlineExceeded(
        "RankingService: deadline expired before admission");
  }

  const std::shared_ptr<const Shard> shard = FindShard(dataset_id);
  if (shard == nullptr) {
    return Status::NotFound(
        StrFormat("RankingService: no dataset '%s'", dataset_id.c_str()));
  }
  const int d = shard->curve->dimension();
  if (raw_rows.cols() != d && raw_rows.rows() > 0) {
    return Status::InvalidArgument(
        StrFormat("RankingService: query has %d columns, dataset '%s' has "
                  "dimension %d",
                  raw_rows.cols(), dataset_id.c_str(), d));
  }

  RankedBatch batch;
  const int n = raw_rows.rows();
  batch.scores = Vector(n);
  if (n == 0) return batch;

  const int lane =
      static_cast<int>(options.priority.value_or(shard->default_priority));

  // Trace-context: thread the caller's id through, or mint one while
  // auto-tracing is runtime-enabled (NewTraceId returns 0 otherwise, which
  // turns every span site on this query's path into a no-op).
  const obs::TraceId trace_id =
      options.trace_id != 0 ? options.trace_id : obs::NewTraceId();
  batch.trace.trace_id = trace_id;

  BatchState state;
  state.deadline = options.deadline;
  state.has_deadline = has_deadline;
  state.trace_id = trace_id;

  double* scores_out = batch.scores.data().data();
  // Small blocking queries ride a shared group when coalescing is on;
  // kReject queries never coalesce (a group is admitted as one blocking
  // push, which cannot honour per-rider rejection).
  const bool coalesce = options_.max_coalesce_delay.count() > 0 &&
                        options.allow_coalesce &&
                        options.admission == AdmissionPolicy::kBlock &&
                        n <= options_.coalesce_max_rows;
  if (coalesce) {
    batch.trace.segments = 1;
    RPC_RETURN_IF_ERROR(
        AdmitCoalesced(shard, raw_rows, scores_out, lane, state));
  } else {
    RPC_RETURN_IF_ERROR(AdmitSegmented(shard, raw_rows, scores_out, lane,
                                       options, state, batch.trace));
  }
  state.Wait();

  if (state.shutdown.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("RankingService: shutting down");
  }
  if (state.expired.load(std::memory_order_relaxed)) {
    // Deadline checks #2 (dequeue) and #3 (between rows) funnel here: some
    // worker observed the deadline pass before the result was complete.
    deadline_expired_.Increment();
    return Status::DeadlineExceeded(
        "RankingService: deadline expired during execution");
  }

  const Clock::time_point done = Clock::now();
  const std::int64_t admitted_ns =
      state.admitted_ns.load(std::memory_order_relaxed);
  Clock::time_point admitted =
      admitted_ns > 0
          ? Clock::time_point(std::chrono::nanoseconds(admitted_ns))
          : start;
  admitted = std::clamp(admitted, start, done);
  batch.trace.admission_wait = admitted - start;
  batch.trace.execution_time = done - admitted;
  batch.trace.coalesced = state.coalesced;

  // Caller-side spans reuse the timestamps QueryTrace already measured —
  // no extra clock reads on the serving hot path.
  if (trace_id != 0) {
    obs::EmitSpan(trace_id, "serve.admission", TpNs(start), TpNs(admitted));
    obs::EmitSpan(trace_id, "serve.query", TpNs(start), TpNs(done));
  }

  // Ranks within the batch, with RankingList's deterministic tie-break.
  const rank::RankingList list(batch.scores, /*higher_is_better=*/true);
  batch.ranks.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    batch.ranks[static_cast<size_t>(i)] = list.PositionOf(i);
  }

  queries_.Increment();
  rows_.Add(n);
  if (state.coalesced) coalesced_queries_.Increment();
  RecordLatency(done - start);
  admission_wait_us_.Record(
      static_cast<double>(batch.trace.admission_wait.count() / 1000));

  const std::chrono::nanoseconds slow_threshold =
      options.slow_query_threshold.value_or(options_.slow_query_threshold);
  if (options_.telemetry_sink != nullptr && slow_threshold.count() > 0 &&
      done - start >= slow_threshold) {
    EmitSlowQuery(dataset_id, batch.trace, n, done - start);
  }
  return batch;
}

void RankingService::RecordLatency(std::chrono::nanoseconds total) const {
  latency_us_.Record(static_cast<double>(total.count() / 1000));
}

void RankingService::EmitSlowQuery(const std::string& dataset_id,
                                   const QueryTrace& trace, int rows,
                                   std::chrono::nanoseconds total) const {
  std::string payload = "{\"dataset\":\"";
  obs::AppendJsonEscaped(&payload, dataset_id);
  payload += StrFormat(
      "\",\"rows\":%d,\"total_us\":%.3f,\"admission_wait_us\":%.3f,"
      "\"execution_us\":%.3f,\"segments\":%d,\"coalesced\":%s,"
      "\"trace_id\":\"%llu\",\"spans\":",
      rows, static_cast<double>(total.count()) / 1e3,
      static_cast<double>(trace.admission_wait.count()) / 1e3,
      static_cast<double>(trace.execution_time.count()) / 1e3, trace.segments,
      trace.coalesced ? "true" : "false",
      static_cast<unsigned long long>(trace.trace_id));
  payload += obs::SpansToJson(obs::CollectTrace(trace.trace_id));
  payload += '}';
  options_.telemetry_sink->Emit("slow_query", payload);
}

Result<RankedBatch> RankingService::Query(const std::string& dataset_id,
                                          const Matrix& raw_rows,
                                          const QueryOptions& options) const {
  return QueryImpl(dataset_id, raw_rows, options);
}

ServiceStats RankingService::stats() const {
  // Assembled from the same registry cells the exporters publish — the
  // legacy struct is a view, not a second set of books.
  ServiceStats stats;
  stats.queries = queries_.Value();
  stats.rows = rows_.Value();
  stats.segments = segments_.Value();
  stats.rejected = rejected_.Value();
  stats.registrations = registrations_.Value();
  stats.deadline_expired = deadline_expired_.Value();
  stats.expired_segments = expired_segments_.Value();
  stats.coalesced_queries = coalesced_queries_.Value();
  for (int p = 0; p < kNumPriorities; ++p) {
    stats.shed_by_priority[static_cast<size_t>(p)] =
        shed_by_priority_[static_cast<size_t>(p)].Value();
  }
  const obs::HistogramSnapshot latency = latency_us_.Merge();
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    stats.latency.buckets[static_cast<size_t>(b)] =
        latency.counts[static_cast<size_t>(b)];
  }
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    stats.datasets = static_cast<int>(shards_.size());
  }
  stats.peak_queue_depth = queue_.peak_size();
  return stats;
}

}  // namespace rpc::serve
