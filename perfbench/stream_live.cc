// stream_live: writes and reads on the streaming tier at once. One thread
// appends drifting d=4 rows open-loop at 20k rows/s into a durable
// StreamingRanker (started from 20k rows, default DriftPolicy) and retires
// the oldest row after each append, so the live set stays at 20k objects
// and every second of the run costs the same; a standby
// StreamingRanker in follower mode is pumped over the in-process
// replica::Link; a reader issues closed-loop 8-row interactive queries on
// the streamed dataset while versions swap. At the end the primary's
// durable directory is copied as a crash image and recovered. stream,
// durable and replica do nearly all their work here and none in the other
// workloads; the serve layer sees RegisterDataset swaps under reads, so a
// serving gain that costs the write path shows here.
//
// The primary operation is the durable append: latency runs from the
// append's due time until the primary's wal_synced_seq() covers it. The
// append -> WAL sequence map comes from the standby, which applies records
// one by one: after each pump, (durable_seq, appended + retired) is an
// exact pair, and append k is ingestion event 2k-1.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "order/orientation.h"
#include "replica/replication.h"
#include "replica/transport.h"
#include "serve/ranking_service.h"
#include "stream/streaming_ranker.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using rpc::linalg::Matrix;
using rpc::obs::SpanRecord;
using rpc::serve::RankingService;
using rpc::stream::StreamingRanker;

constexpr int kDim = 4;
constexpr int kInitialRows = 20000;
constexpr double kAppendRate = 20000.0;
constexpr int kSetups = 5;
constexpr int kReadRows = 8;
/// The reader's think time between queries: a closed loop of one user,
/// not a spin that would claim a core of its own.
constexpr std::int64_t kReadThinkNs = 1'000'000;
/// Total upward drift of every coordinate over the streamed rows, so the
/// live min-max bounds keep moving and the normalizer-drift trigger fires.
constexpr double kDrift = 0.5;
/// Sampling strides of the traced pass.
constexpr int kTraceEveryRead = 64;
constexpr int kTraceEveryAppend = 1024;
constexpr int kTraceEveryPump = 256;
constexpr const char* kDatasetId = "live";
const char* const kWorkRoot = ".perfbench_work";

rpc::stream::StreamingRankerOptions RankerOptions(const std::string& dir,
                                                  std::uint64_t seed) {
  rpc::stream::StreamingRankerOptions options;
  // One thread per refit: with the default policy a refresh is always in
  // flight, and a wider refit would claim every spare core of a small box.
  options.learner.num_threads = 1;
  // Caps the cold Start() fit as serve_mixed caps its set-up fits: a rare
  // fit runs to the 300-iteration cap and would make set-up time a matter
  // of seed.
  options.learner.max_iterations = 50;
  options.learner.seed = seed;
  options.durability.dir = dir;
  // A milestone snapshot rewrites the whole row store; every 16k events
  // is about two a second at this event rate. Retaining 256k log records
  // (about six seconds) lets a standby that fell behind resume from the
  // log tail instead of a snapshot re-ship.
  options.durability.snapshot_every_events = 16384;
  options.durability.wal_keep_events = 1 << 18;
  return options;
}

RankingService::Options ServiceOptions() {
  RankingService::Options options;
  options.num_threads = 3;  // two pool workers, as in serve_mixed
  return options;
}

// Label sets of every series of `name` in the global registry.
std::set<std::string> SeriesLabels(const std::string& name) {
  std::set<std::string> out;
  for (const auto& sample : rpc::obs::Registry::Global().Snapshot()) {
    if (sample.name != name) continue;
    std::string key;
    for (const auto& [k, v] : sample.labels) key += k + "=" + v + ",";
    out.insert(key);
  }
  return out;
}

rpc::obs::HistogramSnapshot HistogramOf(const std::string& name,
                                        const std::set<std::string>& labels) {
  rpc::obs::HistogramSnapshot merged;
  for (const auto& sample : rpc::obs::Registry::Global().Snapshot()) {
    if (sample.name != name) continue;
    std::string key;
    for (const auto& [k, v] : sample.labels) key += k + "=" + v + ",";
    if (labels.count(key) == 0) continue;
    const auto& h = sample.histogram;
    if (merged.counts.empty()) {
      merged.upper_bounds = h.upper_bounds;
      merged.counts.assign(h.counts.size(), 0);
    }
    for (size_t i = 0; i < h.counts.size() && i < merged.counts.size(); ++i) {
      merged.counts[i] += h.counts[i];
    }
    merged.sum += h.sum;
    merged.count += h.count;
  }
  return merged;
}

rpc::obs::HistogramSnapshot Delta(const rpc::obs::HistogramSnapshot& after,
                                  const rpc::obs::HistogramSnapshot& before) {
  rpc::obs::HistogramSnapshot d = after;
  for (size_t i = 0; i < d.counts.size() && i < before.counts.size(); ++i) {
    d.counts[i] -= before.counts[i];
  }
  d.sum -= before.sum;
  d.count -= before.count;
  return d;
}

bool SameState(const StreamingRanker::Snapshot& a,
               const StreamingRanker::Snapshot& b) {
  auto same = [](const rpc::linalg::Vector& x, const rpc::linalg::Vector& y) {
    return x.data() == y.data();  // element-wise ==, exact
  };
  return a.version == b.version &&
         a.model.Serialize() == b.model.Serialize() && same(a.scores, b.scores) &&
         a.row_ids == b.row_ids && same(a.live_mins, b.live_mins) &&
         same(a.live_maxs, b.live_maxs);
}

/// Primary + standby + the replication session between them.
struct Rig {
  std::string dir;
  std::int64_t start_ns = 0;  // Start() began: the data cut of version 1
  std::set<std::string> primary_log_labels;
  std::atomic<std::int64_t> source_errors{0};
  std::unique_ptr<RankingService> service;
  std::unique_ptr<StreamingRanker> primary;
  rpc::replica::LinkPair link;
  std::unique_ptr<rpc::replica::ReplicationSource> source;
  std::thread source_thread;
  std::unique_ptr<RankingService> standby_service;
  std::unique_ptr<StreamingRanker> standby;
  std::unique_ptr<rpc::replica::ReplicaApplier> applier;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { Teardown(); }

  void Teardown() {
    if (link.standby != nullptr) link.standby->Close();
    if (source_thread.joinable()) source_thread.join();
    applier.reset();
    if (standby != nullptr) standby->Stop();
    standby.reset();
    standby_service.reset();
    source.reset();
    if (primary != nullptr) primary->Stop();
    primary.reset();
    service.reset();
    link = {};
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
      dir.clear();
    }
  }
};

bool BuildRig(const std::string& dir, std::uint64_t seed,
              const Matrix& initial, Rig* rig, PassResult* out) {
  const auto alpha = rpc::order::Orientation::AllBenefit(kDim);
  rig->dir = dir;
  rig->source_errors = 0;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir + "/primary", ec);
  fs::create_directories(dir + "/standby", ec);
  rig->service = std::make_unique<RankingService>(ServiceOptions());
  rig->primary = std::make_unique<StreamingRanker>(
      rig->service.get(), kDatasetId, RankerOptions(dir + "/primary", seed));
  const std::set<std::string> logs_before =
      SeriesLabels("rpc_durable_fsync_us");
  rig->start_ns = NowNs();
  const auto started = rig->primary->Start(initial, alpha);
  if (!started.ok()) {
    out->Fail("primary Start: " + started.ToString());
    return false;
  }
  for (const std::string& labels : SeriesLabels("rpc_durable_fsync_us")) {
    if (logs_before.count(labels) == 0) rig->primary_log_labels.insert(labels);
  }

  rig->link = rpc::replica::MakeLoopbackPair();
  rpc::replica::ReplicationSourceOptions source_options;
  source_options.dir = dir + "/primary";
  source_options.d = kDim;
  StreamingRanker* primary = rig->primary.get();
  rig->source = std::make_unique<rpc::replica::ReplicationSource>(
      rig->link.primary.get(), [primary] { return primary->wal_synced_seq(); },
      source_options);
  rpc::replica::ReplicationSource* source = rig->source.get();
  std::atomic<std::int64_t>* source_errors = &rig->source_errors;
  rig->source_thread = std::thread([source, source_errors] {
    // Serve() gives up on the first read error; a shipper keeps serving
    // (the standby re-requests), and the benchmark counts the error.
    while (true) {
      const auto status = source->HandleOne(/*timeout_seconds=*/0.05);
      if (status.ok() ||
          status.code() == rpc::StatusCode::kDeadlineExceeded) {
        continue;
      }
      if (status.code() == rpc::StatusCode::kUnavailable ||
          status.code() == rpc::StatusCode::kAborted) {
        return;  // link closed or fenced
      }
      source_errors->fetch_add(1);
      std::fprintf(stderr, "perfbench: replication source: %s\n",
                   status.ToString().c_str());
    }
  });

  rig->standby_service = std::make_unique<RankingService>(ServiceOptions());
  rig->standby = std::make_unique<StreamingRanker>(
      rig->standby_service.get(), kDatasetId,
      RankerOptions(dir + "/standby", seed));
  rpc::replica::ReplicaApplierOptions applier_options;
  applier_options.dir = dir + "/standby";
  applier_options.d = kDim;
  rig->applier = std::make_unique<rpc::replica::ReplicaApplier>(
      rig->standby.get(), rig->link.standby.get(), applier_options);
  auto status = rig->applier->Init();
  for (int i = 0; status.ok() && !rig->applier->has_state() && i < 100; ++i) {
    status = rig->applier->PumpOnce();
  }
  if (!status.ok() || !rig->applier->has_state()) {
    out->Fail("standby bootstrap: " + status.ToString());
    return false;
  }
  return true;
}

// The drifting stream: latent-curve rows shifted up in proportion to their
// position, so the bounds move as the run goes on.
Matrix StreamRows(std::uint64_t seed, int n) {
  Matrix rows = rpc::data::GenerateLatentCurveData(
                    rpc::order::Orientation::AllBenefit(kDim),
                    {.n = n, .noise_sigma = 0.04, .control_margin = 0.1,
                     .seed = seed})
                    .data;
  for (int i = kInitialRows; i < n; ++i) {
    const double shift =
        kDrift * static_cast<double>(i - kInitialRows) / (n - kInitialRows);
    for (int j = 0; j < kDim; ++j) rows(i, j) += shift;
  }
  return rows;
}

struct StandbySample {
  std::int64_t t = 0;
  std::uint64_t durable_seq = 0;
  std::int64_t events = 0;  // appended + retired on the standby
};

struct SyncedSample {
  std::int64_t t = 0;
  std::uint64_t synced_seq = 0;
};

// Ingestion events whose WAL sequence is <= seq, from the standby's exact
// (durable_seq, events) pairs: inside one pumped batch every record is an
// event except the rare publish or bounds record, so the count is exact up
// to those and never over-counts past the batch's end.
std::int64_t EventsCovered(const std::vector<StandbySample>& standby,
                           std::uint64_t seq) {
  const auto it = std::lower_bound(
      standby.begin(), standby.end(), seq,
      [](const StandbySample& s, std::uint64_t v) { return s.durable_seq < v; });
  if (it == standby.end()) return standby.empty() ? 0 : standby.back().events;
  const std::int64_t upper =
      it->events - static_cast<std::int64_t>(it->durable_seq - seq);
  const std::int64_t lower = it == standby.begin() ? 0 : (it - 1)->events;
  return std::max(lower, upper);
}

std::int64_t Events(const rpc::stream::StreamStats& stats) {
  return stats.appended + stats.retired;
}

struct TracedRefresh {
  SpanRecord root;
  std::vector<SpanRecord> children;
};

}  // namespace

PassResult RunStreamLive(const Args& args, double seconds, bool traced) {
  PassResult out;
  const auto alpha = rpc::order::Orientation::AllBenefit(kDim);
  const int planned = static_cast<int>(kAppendRate * seconds);
  const Matrix rows = StreamRows(args.seed, kInitialRows + planned);
  Matrix initial(kInitialRows, kDim);
  for (int i = 0; i < kInitialRows; ++i) {
    std::copy(rows.RowPtr(i), rows.RowPtr(i) + kDim, initial.RowPtr(i));
  }
  const std::string base = std::string(kWorkRoot) + "/stream-" +
                           std::to_string(::getpid());

  Rig rig;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    rig.Teardown();
    const std::int64_t setup_start = NowNs();
    if (!BuildRig(base + "-" + std::to_string(i), args.seed, initial, &rig,
                  &out)) {
      return out;
    }
    setup_s.push_back(SecondsSince(setup_start));
  }
  out.setup_s = Median(setup_s);
  StreamingRanker& primary = *rig.primary;
  StreamingRanker& standby = *rig.standby;
  rpc::replica::ReplicaApplier& applier = *rig.applier;
  const rpc::obs::HistogramSnapshot fsync_before =
      HistogramOf("rpc_durable_fsync_us", rig.primary_log_labels);
  const rpc::obs::HistogramSnapshot batch_before =
      HistogramOf("rpc_durable_commit_batch_records", rig.primary_log_labels);

  // ---- the measured window ------------------------------------------------
  const std::int64_t t0 = NowNs() + 2'000'000;
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t interval_ns = static_cast<std::int64_t>(1e9 / kAppendRate);
  std::atomic<bool> reads_stop{false};
  std::atomic<std::uint64_t> pump_target{0};  // 0 = keep pumping

  // Appender.
  std::vector<std::int64_t> due_ns;
  std::vector<std::pair<std::int64_t, std::int64_t>> append_calls;  // sampled
  std::vector<SyncedSample> synced;
  std::int64_t write_failed = 0;
  std::thread appender([&] {
    TightenTimerSlack();
    due_ns.reserve(static_cast<size_t>(planned));
    std::int64_t last_sample = 0;
    for (int k = 0; k < planned; ++k) {
      const std::int64_t due = t0 + k * interval_ns;
      if (due >= t_end) break;
      SleepUntilNs(due);
      const std::int64_t send = NowNs();
      const auto id = primary.Append(rows.Row(kInitialRows + k));
      const std::int64_t done = NowNs();
      due_ns.push_back(due);
      if (!id.ok()) ++write_failed;
      // Initial rows carry ids 0..kInitialRows-1 and appends follow on, so
      // id k is the oldest live row.
      if (!primary.Retire(k).ok()) ++write_failed;
      if (traced && k % kTraceEveryAppend == kTraceEveryAppend / 2) {
        append_calls.emplace_back(send, done);
      }
      if (done - last_sample > 100'000) {
        synced.push_back({done, primary.wal_synced_seq()});
        last_sample = done;
      }
    }
  });

  // Reader.
  std::vector<double> read_us, read_admission_us, read_execution_us;
  std::vector<std::pair<std::int64_t, std::uint64_t>> reads;  // (done, version)
  std::map<std::uint64_t, std::int64_t> first_seen;
  std::vector<SpanBook::Span> read_roots;
  std::vector<std::vector<SpanRecord>> read_spans;
  std::int64_t read_failed = 0;
  std::thread reader([&] {
    TightenTimerSlack();
    rpc::Rng rng(args.seed * 7 + 3);
    Matrix batch(kReadRows, kDim);
    rpc::serve::QueryOptions options;
    options.priority = rpc::serve::QueryPriority::kInteractive;
    SleepUntilNs(t0);
    for (std::int64_t n = 0; !reads_stop.load(); ++n) {
      for (int r = 0; r < kReadRows; ++r) {
        const int src = static_cast<int>(rng.UniformInt(kInitialRows));
        std::copy(rows.RowPtr(src), rows.RowPtr(src) + kDim, batch.RowPtr(r));
      }
      const auto version = rig.service->DatasetVersion(kDatasetId);
      const std::int64_t send = NowNs();
      if (version.ok()) first_seen.emplace(*version, send);
      const bool sampled = traced && n % kTraceEveryRead == kTraceEveryRead / 2;
      options.trace_id = sampled ? rpc::obs::NewTraceId() : 0;
      const auto result = rig.service->Query(kDatasetId, batch, options);
      const std::int64_t done = NowNs();
      if (!result.ok() || !version.ok()) {
        ++read_failed;
        continue;
      }
      read_us.push_back(static_cast<double>(done - send) * 1e-3);
      read_admission_us.push_back(
          static_cast<double>(result->trace.admission_wait.count()) * 1e-3);
      read_execution_us.push_back(
          static_cast<double>(result->trace.execution_time.count()) * 1e-3);
      reads.emplace_back(done, *version);
      if (sampled) {
        read_roots.push_back({"bench.query", send, done});
        read_spans.push_back(rpc::obs::CollectTrace(options.trace_id));
      }
      SleepUntilNs(done + kReadThinkNs);
    }
  });

  // Standby pump.
  std::vector<StandbySample> standby_samples;
  standby_samples.push_back({NowNs(), applier.durable_seq(),
                             Events(standby.stats())});
  std::vector<double> pump_us, lag;
  std::vector<SyncedSample> pump_synced;
  std::vector<std::pair<SpanBook::Span, std::vector<SpanRecord>>> pump_trees;
  std::int64_t pumps = 0, pump_errors = 0, pump_timeouts = 0;
  bool pump_stalled = false;
  std::thread pump([&] {
    TightenTimerSlack();
    std::int64_t last_progress = NowNs();
    while (true) {
      const std::uint64_t target = pump_target.load();
      if (target != 0 && applier.durable_seq() >= target) break;
      if (NowNs() - last_progress > 20'000'000'000LL) {
        pump_stalled = true;  // no progress for 20 s: give up, count it
        break;
      }
      const std::uint64_t before = applier.durable_seq();
      const std::int64_t start = NowNs();
      const auto status = applier.PumpOnce();
      const std::int64_t end = NowNs();
      ++pumps;
      pump_us.push_back(static_cast<double>(end - start) * 1e-3);
      if (!status.ok()) {
        ++pump_errors;
        if (status.code() == rpc::StatusCode::kDeadlineExceeded) {
          ++pump_timeouts;
        }
      }
      if (traced && pumps % kTraceEveryPump == kTraceEveryPump / 2) {
        std::vector<SpanRecord> inside;
        for (const SpanRecord& s : rpc::obs::CollectSpans()) {
          if (std::string(s.name) == "replica.pump" && s.start_ns >= start &&
              s.end_ns <= end) {
            inside.push_back(s);
          }
        }
        pump_trees.push_back({{"bench.pump", start, end}, std::move(inside)});
      }
      const std::uint64_t durable = applier.durable_seq();
      const std::uint64_t primary_synced = primary.wal_synced_seq();
      standby_samples.push_back({end, durable, Events(standby.stats())});
      pump_synced.push_back({end, primary_synced});
      lag.push_back(primary_synced > durable
                        ? static_cast<double>(primary_synced - durable)
                        : 0.0);
      if (durable == before) {
        // Nothing new was synced: poll again shortly rather than spin.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else {
        last_progress = end;
      }
    }
  });

  // Monitor: backlog peak, and refresh spans before their ring laps.
  std::int64_t pending_peak = 0;
  std::map<std::uint64_t, TracedRefresh> refreshes;
  std::int64_t last_collect = NowNs();
  auto collect_refreshes = [&] {
    std::map<std::uint64_t, std::vector<SpanRecord>> by_trace;
    for (const SpanRecord& s : rpc::obs::CollectSpans()) {
      const std::string name = s.name;
      if (name.rfind("stream.", 0) == 0 || name.rfind("fit.", 0) == 0) {
        by_trace[s.trace_id].push_back(s);
      }
    }
    for (auto& [trace, spans] : by_trace) {
      if (refreshes.count(trace) != 0) continue;
      TracedRefresh tree;
      bool complete = false;
      for (const SpanRecord& s : spans) {
        if (std::string(s.name) == "stream.refresh") {
          tree.root = s;
          complete = true;
        } else {
          tree.children.push_back(s);
        }
      }
      if (complete) refreshes.emplace(trace, std::move(tree));
    }
  };
  while (NowNs() < t_end) {
    pending_peak = std::max<std::int64_t>(pending_peak, primary.stats().pending);
    if (traced && NowNs() - last_collect > 250'000'000) {
      collect_refreshes();
      last_collect = NowNs();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  appender.join();
  reads_stop.store(true);
  reader.join();
  const auto flushed = primary.Flush();
  if (!flushed.ok()) out.Fail("primary Flush: " + flushed.ToString());
  if (traced) collect_refreshes();
  pump_target.store(std::max<std::uint64_t>(primary.wal_synced_seq(), 1));
  pump.join();
  const double window_s = SecondsSince(t0);

  // ---- acknowledgements -----------------------------------------------------
  // The appender and the pump both sampled the primary's synced seq.
  synced.insert(synced.end(), pump_synced.begin(), pump_synced.end());
  std::sort(synced.begin(), synced.end(),
            [](const SyncedSample& a, const SyncedSample& b) { return a.t < b.t; });
  const std::int64_t appends = static_cast<std::int64_t>(due_ns.size());
  std::vector<std::int64_t> durable_at(static_cast<size_t>(appends), 0);
  std::vector<std::int64_t> replica_at(static_cast<size_t>(appends), 0);
  {
    // Append k (0-based) is ingestion event 2k+1 (1-based): acked once
    // that many events are covered.
    std::int64_t covered = 0, next = 0;
    for (const SyncedSample& s : synced) {
      covered = std::max(covered, EventsCovered(standby_samples, s.synced_seq));
      for (; next < appends && 2 * next + 1 <= covered; ++next) {
        durable_at[static_cast<size_t>(next)] = s.t;
      }
    }
    next = 0;
    for (const StandbySample& s : standby_samples) {
      for (; next < appends && 2 * next + 1 <= s.events; ++next) {
        replica_at[static_cast<size_t>(next)] = s.t;
      }
    }
  }
  std::vector<double> durable_ms, replica_ms;
  std::vector<std::int64_t> acked_due;
  std::int64_t unacked = 0;
  for (size_t k = 0; k < static_cast<size_t>(appends); ++k) {
    if (durable_at[k] == 0 || replica_at[k] == 0) {
      ++unacked;
      continue;
    }
    acked_due.push_back(due_ns[k]);
    durable_ms.push_back(static_cast<double>(durable_at[k] - due_ns[k]) * 1e-6);
    replica_ms.push_back(static_cast<double>(replica_at[k] - due_ns[k]) * 1e-6);
  }
  // One-second chunks by due time.
  const int chunks = std::max(1, static_cast<int>(seconds));
  out.op_chunks_ms = ChunkByTime(acked_due, durable_ms, t0, seconds, chunks);
  const auto replica_chunks =
      ChunkByTime(acked_due, replica_ms, t0, seconds, chunks);

  // ---- staleness ----------------------------------------------------------
  const std::vector<double> refresh_s = primary.RefreshSecondsHistory();
  std::vector<double> staleness_ms;
  for (const auto& [done, version] : reads) {
    std::int64_t cut = rig.start_ns;
    if (version >= 2) {
      const size_t index = static_cast<size_t>(version - 2);
      const auto seen = first_seen.find(version);
      if (index >= refresh_s.size() || seen == first_seen.end()) continue;
      cut = seen->second - static_cast<std::int64_t>(refresh_s[index] * 1e9);
    }
    staleness_ms.push_back(static_cast<double>(done - cut) * 1e-6);
  }

  // ---- output checks --------------------------------------------------------
  const StreamingRanker::Snapshot truth = primary.snapshot();
  if (!SameState(standby.snapshot(), truth)) {
    out.Fail("standby at the acked offset differs from the primary");
  }
  {
    Matrix probe(16, kDim);
    for (int r = 0; r < probe.rows(); ++r) {
      std::copy(rows.RowPtr(r * 1009), rows.RowPtr(r * 1009) + kDim,
                probe.RowPtr(r));
    }
    const auto served = rig.service->Query(kDatasetId, probe);
    for (int r = 0; served.ok() && r < probe.rows(); ++r) {
      const auto expected = truth.model.Score(probe.Row(r));
      if (!expected.ok() || served->scores[r] != *expected) {
        out.Fail("served stream score differs from PortableRpcModel::Score");
        break;
      }
    }
    if (!served.ok()) out.Fail("probe query: " + served.status().ToString());
  }
  // Crash image: copy the primary's durable directory as it stands and
  // recover a fresh ranker from the copy. A copy that races a background
  // snapshot rotation is retried.
  double recover_s = 0.0;
  std::uint64_t replayed = 0;
  bool recovered = false;
  for (int attempt = 0; attempt < 3 && !recovered; ++attempt) {
    const std::string crash = rig.dir + "/crash";
    std::error_code ec;
    fs::remove_all(crash, ec);
    fs::create_directories(crash, ec);
    for (const auto& entry : fs::directory_iterator(rig.dir + "/primary", ec)) {
      fs::copy_file(entry.path(), crash + "/" + entry.path().filename().string(),
                    ec);
      if (ec) break;
    }
    if (ec) continue;
    RankingService recovered_service(ServiceOptions());
    StreamingRanker fresh(&recovered_service, kDatasetId,
                          RankerOptions(crash, args.seed));
    const std::int64_t start = NowNs();
    const auto status = fresh.Recover();
    recover_s = SecondsSince(start);
    if (!status.ok()) continue;
    replayed = fresh.recovery_info().replayed_records;
    if (!SameState(fresh.snapshot(), truth)) {
      out.Fail("recovered ranker differs from the primary");
    }
    recovered = true;
    fresh.Stop();
  }
  if (!recovered) out.Fail("crash image did not recover");

  // ---- accounting -------------------------------------------------------------
  const rpc::stream::StreamStats stats = primary.stats();
  const rpc::stream::StreamStats standby_stats = standby.stats();
  out.attempted = 2 * appends + static_cast<std::int64_t>(read_us.size()) +
                  read_failed + pumps + stats.refreshes +
                  stats.skipped_refreshes + stats.failed_refreshes + 1;
  out.failed = write_failed + stats.retire_misses + unacked + read_failed +
               pump_errors + rig.source_errors.load() + (pump_stalled ? 1 : 0) +
               stats.skipped_refreshes + stats.failed_refreshes +
               stats.publish_failures + stats.durable_errors +
               standby_stats.durable_errors + (recovered ? 0 : 1);

  out.layer["read_p99_us"] = Quantile(read_us, 0.99);
  out.layer["durable_ack_p99_ms"] = ChunkedQuantile(out.op_chunks_ms, 0.99);
  out.layer["replica_ack_p99_ms"] = ChunkedQuantile(replica_chunks, 0.99);
  out.layer["staleness_p50_ms"] = Median(staleness_ms);
  out.layer["staleness_p90_ms"] = Quantile(staleness_ms, 0.9);
  out.layer["recover_s"] = recover_s;
  std::vector<double> refresh_ms;
  for (double s : refresh_s) refresh_ms.push_back(s * 1e3);
  out.layer["stream.refresh_ms_p50"] = Median(refresh_ms);
  out.layer["stream.refresh_ms_p90"] = Quantile(refresh_ms, 0.9);
  out.layer["stream.pending_peak"] = static_cast<double>(pending_peak);
  out.layer["stream.refreshes"] = static_cast<double>(stats.refreshes);
  out.layer["stream.skipped_refreshes"] =
      static_cast<double>(stats.skipped_refreshes);
  out.layer["stream.failed_refreshes"] =
      static_cast<double>(stats.failed_refreshes);
  // The serve layer as the reader sees it: the same figures serve_mixed
  // takes from its point queries.
  const rpc::serve::ServiceStats served = rig.service->stats();
  out.layer["serve.registrations"] = static_cast<double>(served.registrations);
  out.layer["serve.admission_wait_us"] = Median(read_admission_us);
  out.layer["serve.execution_us"] = Median(read_execution_us);
  out.layer["serve.queue_depth_peak"] = served.peak_queue_depth;
  out.layer["serve.coalesced_ratio"] =
      served.queries > 0 ? static_cast<double>(served.coalesced_queries) /
                               static_cast<double>(served.queries)
                         : 0.0;
  out.layer["serve.shed"] = static_cast<double>(served.rejected);
  out.layer["serve.deadline_expired"] =
      static_cast<double>(served.deadline_expired);
  const rpc::obs::HistogramSnapshot fsync = Delta(
      HistogramOf("rpc_durable_fsync_us", rig.primary_log_labels), fsync_before);
  const rpc::obs::HistogramSnapshot batch =
      Delta(HistogramOf("rpc_durable_commit_batch_records",
                        rig.primary_log_labels),
            batch_before);
  out.layer["durable.fsync_us_p50"] = fsync.QuantileUpperBound(0.5);
  out.layer["durable.fsync_us_p99"] = fsync.QuantileUpperBound(0.99);
  out.layer["durable.commit_batch_records"] =
      batch.count > 0 ? batch.sum / static_cast<double>(batch.count) : 0.0;
  out.layer["durable.replay_records"] = static_cast<double>(replayed);
  out.layer["replica.pump_us"] = Median(pump_us);
  out.layer["replica.lag_records_p90"] = Quantile(lag, 0.9);
  double pump_busy_s = 0.0;
  for (double us : pump_us) pump_busy_s += us * 1e-6;
  out.layer["replica.apply_records_per_s"] =
      pump_busy_s > 0.0
          ? static_cast<double>(standby_samples.back().durable_seq -
                                standby_samples.front().durable_seq) /
                pump_busy_s
          : 0.0;
  out.layer["replica.retries"] = static_cast<double>(pump_errors);
  out.layer["replica.timeouts"] = static_cast<double>(pump_timeouts);
  std::fprintf(stderr,
               "perfbench: stream %lld appends in %.1f s, %lld reads, %lld "
               "refreshes, %lld pumps; durable ack p50 %.2f ms p99 %.2f ms, "
               "replica ack p99 %.2f ms, staleness p50 %.1f ms\n",
               static_cast<long long>(appends), window_s,
               static_cast<long long>(read_us.size()),
               static_cast<long long>(stats.refreshes),
               static_cast<long long>(pumps), Median(durable_ms),
               Quantile(durable_ms, 0.99), Quantile(replica_ms, 0.99),
               Median(staleness_ms));

  // Layer probes on the final served model over the initial rows.
  auto curve = truth.model.BuildCurve();
  auto normalizer =
      rpc::data::Normalizer::FromBounds(truth.model.mins, truth.model.maxs);
  if (curve.ok() && normalizer.ok()) {
    ProbeLayers(initial, normalizer->Transform(initial), curve->bezier(),
                &out.layer);
  }

  if (traced) {
    SpanBook book;
    for (size_t i = 0; i < append_calls.size(); ++i) {
      // Sampled appends: k = i * stride + stride / 2.
      const size_t k = i * kTraceEveryAppend + kTraceEveryAppend / 2;
      if (k >= durable_at.size() || durable_at[k] == 0) continue;
      const auto [send, done] = append_calls[i];
      book.AddTree({"bench.ack", due_ns[k], durable_at[k]},
                   {{"bench.append", send, done},
                    {"bench.ack_wait", done, std::max(done, durable_at[k])}},
                   {}, durable_at[k] - due_ns[k], /*primary=*/true);
    }
    for (size_t i = 0; i < read_roots.size(); ++i) {
      const SpanBook::Span& root = read_roots[i];
      book.AddTree(root, {}, read_spans[i], root.end_ns - root.start_ns, false);
    }
    for (const auto& [root, spans] : pump_trees) {
      book.AddTree(root, {}, spans, root.end_ns - root.start_ns, false);
    }
    for (const auto& [trace, tree] : refreshes) {
      book.AddTree({"stream.refresh", tree.root.start_ns, tree.root.end_ns}, {},
                   tree.children, tree.root.end_ns - tree.root.start_ns, false);
    }
    book.Summarize(&out.layer);
    out.layer["core.refit_ms"] = Median(book.DurationsMs("stream.refit"));
    out.layer["stream.renormalize_ms"] =
        Median(book.DurationsMs("stream.renormalize"));
    out.layer["stream.publish_ms"] = Median(book.DurationsMs("stream.publish"));
    out.layer["serve.queued_us"] = Median(book.DurationsMs("serve.queued")) * 1e3;
  }
  rig.Teardown();
  std::error_code ec;
  fs::remove(kWorkRoot, ec);  // only when empty
  return out;
}

}  // namespace perfbench
