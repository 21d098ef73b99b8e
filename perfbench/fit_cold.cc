// fit_cold: Algorithm 1 at production n. Each fit gets its own data set,
// drawn from a sub-seed of --seed, and the pass fits until its time is up.
// Projection (opt/curve) dominates, the Eq. 26 update (core/linalg) is a
// small share, and serve/stream/durable/replica do nothing here — so a
// serving-only change must predict no change on this workload.
#include <cstdio>
#include <optional>
#include <vector>

#include "core/rpc_ranker.h"
#include "data/generators.h"
#include "obs/trace.h"
#include "opt/batch_projection.h"
#include "order/orientation.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kRows = 200000;
constexpr int kDim = 8;
constexpr double kNoise = 0.04;
constexpr int kMinFits = 3;
/// Explained variance every fit must reach. Fits of this generator land
/// at 0.96-0.98; a broken learner or a wrong projection falls far below.
constexpr double kQualityFloor = 0.9;

}  // namespace

PassResult RunFitCold(const Args& args, double seconds, bool traced) {
  PassResult out;
  SpanBook book;
  const auto alpha = rpc::order::Orientation::AllBenefit(kDim);
  std::vector<double> setup_s, fit_ms, iterations, update_s, projection_s,
      ev;
  rpc::linalg::Matrix last_data;
  std::optional<rpc::core::RpcRanker> last_fit;

  // Fits until the next one would end past the pass's time, judged by the
  // last fit's length.
  const std::int64_t start = NowNs();
  for (int k = 0; k < kMinFits ||
                  SecondsSince(start) + (fit_ms.empty() ? 0.0 : fit_ms.back() * 1e-3) <
                      seconds;
       ++k) {
    const std::uint64_t data_seed = args.seed * 1000003ULL + k;
    const std::int64_t setup_start = NowNs();
    rpc::linalg::Matrix data =
        rpc::data::GenerateLatentCurveData(
            alpha, {.n = kRows, .noise_sigma = kNoise, .control_margin = 0.1,
                    .seed = data_seed})
            .data;
    setup_s.push_back(SecondsSince(setup_start));

    rpc::core::RpcLearnOptions options;
    options.restarts = 4;
    options.reprojection = rpc::core::ReprojectionMode::kWarmStart;
    options.num_threads = 2;
    options.seed = data_seed ^ 0x5eedULL;
    options.trace_id = traced ? rpc::obs::NewTraceId() : 0;

    ++out.attempted;
    const std::int64_t fit_start = NowNs();
    auto fit = rpc::core::RpcRanker::Fit(data, alpha, options);
    const std::int64_t fit_end = NowNs();
    if (!fit.ok()) {
      ++out.failed;
      out.Fail("fit " + std::to_string(k) + ": " + fit.status().ToString());
      continue;
    }
    const rpc::core::RpcFitResult& result = fit->fit_result();
    if (!(result.explained_variance >= kQualityFloor)) {
      ++out.failed;
      out.Fail("fit " + std::to_string(k) + " explained variance " +
               std::to_string(result.explained_variance) + " below floor");
    }
    fit_ms.push_back(static_cast<double>(fit_end - fit_start) * 1e-6);
    iterations.push_back(result.iterations);
    update_s.push_back(result.update_seconds);
    projection_s.push_back(result.projection_seconds);
    ev.push_back(result.explained_variance);
    if (traced) {
      book.AddTree({"bench.fit", fit_start, fit_end}, {},
                   rpc::obs::CollectTrace(options.trace_id),
                   fit_end - fit_start, /*primary=*/true);
    }
    last_data = std::move(data);
    last_fit.emplace(std::move(fit).value());
  }
  out.setup_s = Median(setup_s);
  // The fits are the chunks' unit already: one chunk holds them all.
  out.op_chunks_ms.push_back(fit_ms);
  if (!last_fit.has_value()) return out;

  // Output check: re-projecting the training rows onto the fitted curve
  // must reproduce the fit's own scores bit for bit.
  const rpc::linalg::Matrix normalized =
      last_fit->normalizer().Transform(last_data);
  const rpc::linalg::Vector rescored = rpc::opt::ProjectRowsBatch(
      last_fit->curve().bezier(), normalized, rpc::opt::ProjectionOptions(),
      nullptr);
  const rpc::linalg::Vector& fitted = last_fit->fit_result().scores;
  for (int i = 0; i < rescored.size(); ++i) {
    if (rescored[i] != fitted[i]) {
      out.Fail("re-projected score " + std::to_string(i) +
               " differs from the fit's score");
      break;
    }
  }

  ProbeLayers(last_data, normalized, last_fit->curve().bezier(), &out.layer);
  out.layer["fit_s"] = Median(fit_ms) * 1e-3;
  out.layer["fit_explained_variance"] = Median(ev);
  out.layer["core.fit_iterations"] = Median(iterations);
  out.layer["core.update_s"] = Median(update_s);
  out.layer["opt.projection_s"] = Median(projection_s);
  if (traced) book.Summarize(&out.layer);
  return out;
}

}  // namespace perfbench
