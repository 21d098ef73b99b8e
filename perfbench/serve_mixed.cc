// serve_mixed: open-loop online ranking against one RankingService — the
// read-heavy half of the system. Interactive 1-row point queries pick the
// dataset zipf(1.1) over 16 registered models and the object zipf(1.1)
// over a fixed 100k-object population, so keys repeat (a future rank
// index or result cache shows its gain here). Batch-priority bulk queries
// re-score unique 1024-row batches at 100/s, so they bypass any such cache
// and contend for the pool (QoS changes show on point p99). Arrivals are
// Poisson; every latency is timed from the request's due time, so a stall
// is charged to every request it delays.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/rpc_ranker.h"
#include "data/normalizer.h"
#include "data/generators.h"
#include "obs/trace.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rpc::linalg::Matrix;
using rpc::serve::QueryOptions;
using rpc::serve::QueryPriority;
using rpc::serve::RankingService;

constexpr int kDatasets = 16;
constexpr int kDim = 8;
constexpr int kPopulation = 100000;
constexpr int kFitRows = 4000;
constexpr int kSetups = 5;
constexpr int kPointSenders = 2;
constexpr int kBulkRows = 1024;
constexpr double kBulkRate = 100.0;
/// 5k qps rather than 20k: each sender blocks in Query, so at
/// 10k qps per sender a host stall that doubles the ~40 us handoff puts the
/// sender itself near saturation, and from then on latency measured from
/// the due time is the generator's own queue, not the service.
constexpr double kNominalRate = 5000.0;
/// The serve_max_qps ladder and the point p99 limit a step must meet.
/// The ladder is walked in cycles of short chunks, every rate in every
/// cycle, so a transient host stall spoils a few chunks of each rate rather
/// than one whole rate; the figures are medians over chunks. Within a
/// cycle the nominal rate (the first rung) gets 40% of the time, the
/// others 20% each.
constexpr double kLadder[] = {5000.0, 10000.0, 20000.0, 40000.0};
constexpr double kLadderShare[] = {0.4, 0.2, 0.2, 0.2};
constexpr double kCycleSeconds = 2.5;
/// 500 us rather than 250: a 1024-row bulk segment holds one of the two
/// workers for ~1.5 ms, so point p99 sits near 250 us even at the nominal
/// rate and a tighter limit would flip the ladder between runs.
constexpr double kP99LimitUs = 500.0;
/// Unmeasured warm-up at the nominal rate before any step (first-touch of
/// the population, thread start-up).
constexpr double kWarmupSeconds = 0.5;
/// Failed requests enter the latency sample at this value, so they miss
/// any latency limit.
constexpr double kFailedLatencyUs = 1e6;
/// One sampled trace per this many point requests per sender.
constexpr int kTraceEvery = 1000;

std::string DatasetId(int i) { return "ds" + std::to_string(i); }

// The ids, built once so senders do not allocate per request.
const std::vector<std::string>& DatasetIds() {
  static const std::vector<std::string> ids = [] {
    std::vector<std::string> out;
    for (int i = 0; i < kDatasets; ++i) out.push_back(DatasetId(i));
    return out;
  }();
  return ids;
}

struct Fleet {
  std::unique_ptr<RankingService> service;
  std::vector<rpc::core::PortableRpcModel> models;
  Matrix population;
  std::vector<double> fit_s;
  std::vector<double> ev;
};

// Fits and registers the 16 models and draws the query population.
bool BuildFleet(std::uint64_t seed, Fleet* fleet, PassResult* out) {
  RankingService::Options options;
  // Two pool workers: common::ThreadPool counts the calling thread, and
  // Query never lends its caller to the pool, so 3 here means 2 workers.
  options.num_threads = 3;
  // Bulk queries split into RowBlock-sized segments: the priority lanes
  // act only between segments, so with 1024-row segments a point query
  // that finds both workers on bulk waits out a whole multi-ms segment.
  options.segment_rows = 64;
  fleet->service = std::make_unique<RankingService>(options);
  fleet->population =
      rpc::data::GenerateLatentCurveData(
          rpc::order::Orientation::AllBenefit(kDim),
          {.n = kPopulation, .noise_sigma = 0.04, .control_margin = 0.1,
           .seed = seed * 31 + 7})
          .data;
  fleet->models.clear();
  for (int i = 0; i < kDatasets; ++i) {
    std::vector<int> signs(kDim, +1);
    for (int j = 0; j < 4; ++j) signs[static_cast<size_t>(j)] = (i >> j) & 1 ? -1 : +1;
    const auto alpha = *rpc::order::Orientation::FromSigns(signs);
    const Matrix data =
        rpc::data::GenerateLatentCurveData(
            alpha, {.n = kFitRows, .noise_sigma = 0.04, .control_margin = 0.1,
                    .seed = seed * 131 + static_cast<std::uint64_t>(i)})
            .data;
    rpc::core::RpcLearnOptions learn;
    learn.num_threads = 1;
    // A rare fit runs to the 300-iteration cap (the loop stops only at the
    // first J increase); capping at 50 keeps set-up time a property of the
    // program, not of which seeds hit such a fit.
    learn.max_iterations = 50;
    learn.seed = seed + static_cast<std::uint64_t>(i);
    const std::int64_t fit_start = NowNs();
    auto fit = rpc::core::RpcRanker::Fit(data, alpha, learn);
    fleet->fit_s.push_back(SecondsSince(fit_start));
    if (!fit.ok()) {
      out->Fail("fit " + DatasetId(i) + ": " + fit.status().ToString());
      return false;
    }
    fleet->ev.push_back(fit->fit_result().explained_variance);
    fleet->models.push_back(fit->ToPortableModel());
    const auto status =
        fleet->service->RegisterDataset(DatasetId(i), fleet->models.back());
    if (!status.ok()) {
      out->Fail("register " + DatasetId(i) + ": " + status.ToString());
      return false;
    }
  }
  return true;
}

// Served scores must be bit-identical to PortableRpcModel::Score.
void CheckServedScores(const Fleet& fleet, PassResult* out) {
  Matrix probe(64, kDim);
  for (int r = 0; r < probe.rows(); ++r) {
    probe.SetRow(r, fleet.population.Row(r * 997));
  }
  for (int i = 0; i < kDatasets; ++i) {
    auto served = fleet.service->Query(DatasetId(i), probe);
    if (!served.ok()) {
      out->Fail("probe query " + DatasetId(i) + ": " +
                served.status().ToString());
      return;
    }
    for (int r = 0; r < probe.rows(); ++r) {
      auto expected = fleet.models[static_cast<size_t>(i)].Score(probe.Row(r));
      if (!expected.ok() || served->scores[r] != *expected) {
        out->Fail("served score " + DatasetId(i) + " row " +
                  std::to_string(r) + " differs from PortableRpcModel::Score");
        return;
      }
    }
  }
}

struct Request {
  std::int64_t due_offset_ns = 0;
  int dataset = 0;
  int object = 0;
};

// Poisson arrivals at `rate` over `seconds`, keys drawn zipf(1.1).
std::vector<Request> Schedule(rpc::Rng& rng, double rate, double seconds,
                              const Zipf& datasets, const Zipf& objects) {
  std::vector<Request> requests;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    requests.push_back({static_cast<std::int64_t>(t * 1e9),
                        datasets.Sample(rng), objects.Sample(rng)});
  }
  return requests;
}

struct SenderLog {
  std::vector<double> latency_us;  // from due time; failures at the sentinel
  std::vector<double> late_us;     // send time minus due time
  std::vector<double> admission_us, execution_us;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  struct Sampled {
    SpanBook::Span root;
    std::vector<rpc::obs::SpanRecord> spans;
    std::int64_t e2e_ns = 0;
  };
  std::vector<Sampled> sampled;
};

struct StepResult {
  std::vector<double> point_us;
  std::vector<double> bulk_us;
  std::vector<double> admission_us, execution_us;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double completed_per_s = 0.0;
  double late_p99_us = 0.0;
  bool late_grows = false;
  std::vector<SenderLog::Sampled> sampled;
};

void RunPointSender(const RankingService& service, const Matrix& population,
                    const std::vector<Request>& requests, std::int64_t t0,
                    bool traced, SenderLog* log) {
  TightenTimerSlack();
  Matrix row(1, kDim);
  QueryOptions options;
  options.priority = QueryPriority::kInteractive;
  log->latency_us.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const std::int64_t due = t0 + r.due_offset_ns;
    SleepUntilNs(due);
    const std::int64_t send = NowNs();
    ++log->attempted;
    std::copy(population.RowPtr(r.object), population.RowPtr(r.object) + kDim,
              row.RowPtr(0));
    const bool sampled = traced && i % kTraceEvery == kTraceEvery / 2;
    options.trace_id = sampled ? rpc::obs::NewTraceId() : 0;
    auto result = service.Query(DatasetIds()[static_cast<size_t>(r.dataset)],
                                row, options);
    const std::int64_t done = NowNs();
    log->late_us.push_back(static_cast<double>(send - due) * 1e-3);
    if (!result.ok()) {
      ++log->failed;
      log->latency_us.push_back(kFailedLatencyUs);
      continue;
    }
    log->latency_us.push_back(static_cast<double>(done - due) * 1e-3);
    log->admission_us.push_back(
        static_cast<double>(result->trace.admission_wait.count()) * 1e-3);
    log->execution_us.push_back(
        static_cast<double>(result->trace.execution_time.count()) * 1e-3);
    if (sampled) {
      log->sampled.push_back({{"bench.query", send, done},
                              rpc::obs::CollectTrace(options.trace_id),
                              done - due});
    }
  }
}

void RunBulkSender(const RankingService& service, rpc::Rng rng,
                   double seconds, std::int64_t t0,
                   std::vector<double>* latency_us, std::int64_t* attempted,
                   std::int64_t* failed) {
  TightenTimerSlack();
  Matrix batch(kBulkRows, kDim);
  QueryOptions options;
  options.priority = QueryPriority::kBatch;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / kBulkRate;
    if (t >= seconds) break;
    // Fresh rows every batch: bulk traffic never repeats a key.
    for (int r = 0; r < kBulkRows; ++r) {
      for (int j = 0; j < kDim; ++j) batch(r, j) = rng.Uniform();
    }
    const std::int64_t due = t0 + static_cast<std::int64_t>(t * 1e9);
    SleepUntilNs(due);
    ++*attempted;
    auto result = service.Query(DatasetIds()[rng.UniformInt(kDatasets)],
                                batch, options);
    const std::int64_t done = NowNs();
    if (!result.ok()) {
      ++*failed;
      latency_us->push_back(kFailedLatencyUs);
      continue;
    }
    latency_us->push_back(static_cast<double>(done - due) * 1e-3);
  }
}

StepResult RunStep(const Fleet& fleet, std::uint64_t seed, int step_index,
                   double rate, double seconds, bool traced) {
  const Zipf datasets(kDatasets, 1.1);
  const Zipf objects(kPopulation, 1.1);
  std::vector<std::vector<Request>> schedules;
  for (int s = 0; s < kPointSenders; ++s) {
    rpc::Rng rng(seed * 7919 + static_cast<std::uint64_t>(step_index * 16 + s));
    schedules.push_back(
        Schedule(rng, rate / kPointSenders, seconds, datasets, objects));
  }
  std::vector<SenderLog> logs(kPointSenders);
  std::vector<double> bulk_us;
  std::int64_t bulk_attempted = 0, bulk_failed = 0;
  const std::int64_t t0 = NowNs() + 2'000'000;
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < kPointSenders; ++s) {
      threads.emplace_back(RunPointSender, std::cref(*fleet.service),
                           std::cref(fleet.population),
                           std::cref(schedules[static_cast<size_t>(s)]), t0,
                           traced, &logs[static_cast<size_t>(s)]);
    }
    threads.emplace_back(RunBulkSender, std::cref(*fleet.service),
                         rpc::Rng(seed * 104729 + step_index), seconds, t0,
                         &bulk_us, &bulk_attempted, &bulk_failed);
    for (std::thread& t : threads) t.join();
  }
  const double elapsed = SecondsSince(t0);

  StepResult step;
  step.bulk_us = std::move(bulk_us);
  step.attempted = bulk_attempted;
  step.failed = bulk_failed;
  std::int64_t completed = 0;
  for (SenderLog& log : logs) {
    step.attempted += log.attempted;
    step.failed += log.failed;
    completed += log.attempted - log.failed;
    step.point_us.insert(step.point_us.end(), log.latency_us.begin(),
                         log.latency_us.end());
    step.admission_us.insert(step.admission_us.end(), log.admission_us.begin(),
                             log.admission_us.end());
    step.execution_us.insert(step.execution_us.end(), log.execution_us.begin(),
                             log.execution_us.end());
    for (auto& s : log.sampled) step.sampled.push_back(std::move(s));
    // Lateness growth: the last quarter of the schedule running later
    // than the first by more than the latency limit means the generator
    // (and with it the backlog) fell behind for good.
    const size_t q = log.late_us.size() / 4;
    if (q > 0) {
      double first = 0.0, last = 0.0;
      for (size_t i = 0; i < q; ++i) {
        first += log.late_us[i];
        last += log.late_us[log.late_us.size() - 1 - i];
      }
      if ((last - first) / static_cast<double>(q) > kP99LimitUs) {
        step.late_grows = true;
      }
    }
    step.late_p99_us = std::max(step.late_p99_us, Quantile(log.late_us, 0.99));
  }
  step.completed_per_s = elapsed > 0.0 ? completed / elapsed : 0.0;
  return step;
}

}  // namespace

PassResult RunServeMixed(const Args& args, double seconds, bool traced) {
  PassResult out;
  Fleet fleet;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t setup_start = NowNs();
    fleet = Fleet();
    if (!BuildFleet(args.seed, &fleet, &out)) return out;
    setup_s.push_back(SecondsSince(setup_start));
  }
  out.setup_s = Median(setup_s);
  CheckServedScores(fleet, &out);
  if (!out.correct) return out;

  // The traced pass runs the nominal rate only; the untraced pass walks
  // the whole ladder, nominal rate included.
  (void)RunStep(fleet, args.seed, 9999, kNominalRate, kWarmupSeconds, false);
  const rpc::serve::ServiceStats before = fleet.service->stats();
  std::map<double, std::vector<StepResult>> by_rate;
  const int cycles =
      std::max(1, static_cast<int>(std::lround(seconds / kCycleSeconds)));
  for (int c = 0; c < cycles; ++c) {
    for (size_t i = 0; i < std::size(kLadder); ++i) {
      if (traced && kLadder[i] != kNominalRate) continue;
      const double share = traced ? 1.0 : kLadderShare[i];
      by_rate[kLadder[i]].push_back(
          RunStep(fleet, args.seed, c * 8 + static_cast<int>(i), kLadder[i],
                  seconds / cycles * share, traced));
    }
  }
  const rpc::serve::ServiceStats after = fleet.service->stats();

  // A rate is met when no query failed, its chunks' median p99 is within
  // the limit, and lateness grew in fewer than half of its chunks. The
  // ladder is cut at the first unmet rate.
  double max_qps = 0.0;
  bool ladder_broken = false;
  for (const auto& [rate, chunks] : by_rate) {
    std::int64_t failed = 0;
    int growing = 0;
    std::vector<std::vector<double>> point_chunks;
    std::vector<double> completed;
    for (const StepResult& chunk : chunks) {
      out.attempted += chunk.attempted;
      out.failed += chunk.failed;
      failed += chunk.failed;
      growing += chunk.late_grows ? 1 : 0;
      point_chunks.push_back(chunk.point_us);
      completed.push_back(chunk.completed_per_s);
    }
    const double p99 = ChunkedQuantile(point_chunks, 0.99);
    const bool met = failed == 0 && p99 <= kP99LimitUs &&
                     2 * growing < static_cast<int>(chunks.size());
    std::fprintf(stderr,
                 "perfbench: serve %.0f qps x%zu chunks: p50 %.1f us p75 %.1f us "
                 "p90 %.1f us p99 %.1f us completed %.0f/s failed %lld %s\n",
                 rate, chunks.size(), ChunkedQuantile(point_chunks, 0.5),
                 ChunkedQuantile(point_chunks, 0.75),
                 ChunkedQuantile(point_chunks, 0.9), p99, Median(completed),
                 static_cast<long long>(failed), met ? "met" : "unmet");
    if (met && !ladder_broken) {
      max_qps = Median(completed);
    } else {
      ladder_broken = true;
    }
  }
  const std::vector<StepResult>& nominal = by_rate[kNominalRate];
  std::vector<std::vector<double>> point_us;
  std::vector<double> bulk_us, admission_us, execution_us, late_p99_us;
  for (const StepResult& chunk : nominal) {
    point_us.push_back(chunk.point_us);
    std::vector<double> ms;
    for (double us : chunk.point_us) ms.push_back(us * 1e-3);
    out.op_chunks_ms.push_back(std::move(ms));
    bulk_us.insert(bulk_us.end(), chunk.bulk_us.begin(), chunk.bulk_us.end());
    admission_us.insert(admission_us.end(), chunk.admission_us.begin(),
                        chunk.admission_us.end());
    execution_us.insert(execution_us.end(), chunk.execution_us.begin(),
                        chunk.execution_us.end());
    late_p99_us.push_back(chunk.late_p99_us);
  }
  out.layer["point_p50_us"] = ChunkedQuantile(point_us, 0.5);
  out.layer["point_p99_us"] = ChunkedQuantile(point_us, 0.99);
  out.layer["generator_late_p99_us"] = Median(late_p99_us);
  if (!traced) out.layer["serve_max_qps"] = max_qps;
  const double bulk_median_s = Median(bulk_us) * 1e-6;
  out.layer["bulk_rows_per_s"] =
      bulk_median_s > 0.0 ? kBulkRows / bulk_median_s : 0.0;
  out.layer["serve.admission_wait_us"] = Median(admission_us);
  out.layer["serve.execution_us"] = Median(execution_us);
  out.layer["serve.queue_depth_peak"] = after.peak_queue_depth;
  const double queries = static_cast<double>(after.queries - before.queries);
  out.layer["serve.coalesced_ratio"] =
      queries > 0.0
          ? static_cast<double>(after.coalesced_queries -
                                before.coalesced_queries) /
                queries
          : 0.0;
  out.layer["serve.shed"] = static_cast<double>(after.rejected - before.rejected);
  out.layer["serve.deadline_expired"] =
      static_cast<double>(after.deadline_expired - before.deadline_expired);
  out.layer["serve.registrations"] = static_cast<double>(after.registrations);
  out.layer["fit_s"] = Median(fleet.fit_s);
  out.layer["fit_explained_variance"] = Median(fleet.ev);

  // Layer probes on dataset 0: its model's curve over the population.
  auto curve = fleet.models[0].BuildCurve();
  auto normalizer = rpc::data::Normalizer::FromBounds(fleet.models[0].mins,
                                                      fleet.models[0].maxs);
  if (curve.ok() && normalizer.ok()) {
    ProbeLayers(fleet.population, normalizer->Transform(fleet.population),
                curve->bezier(), &out.layer);
  }
  if (traced) {
    SpanBook book;
    for (const StepResult& chunk : nominal) {
      for (const auto& s : chunk.sampled) {
        book.AddTree(s.root, {}, s.spans, s.e2e_ns, /*primary=*/true);
      }
    }
    book.Summarize(&out.layer);
    out.layer["serve.queued_us"] = Median(book.DurationsMs("serve.queued")) * 1e3;
  }
  return out;
}

}  // namespace perfbench
