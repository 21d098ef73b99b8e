#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

namespace perfbench {

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double ChunkedQuantile(const std::vector<std::vector<double>>& chunks,
                       double q) {
  std::vector<double> per_chunk;
  for (const std::vector<double>& chunk : chunks) {
    if (!chunk.empty()) per_chunk.push_back(Quantile(chunk, q));
  }
  return Median(per_chunk);
}

std::vector<std::vector<double>> ChunkByTime(
    const std::vector<std::int64_t>& t_ns, const std::vector<double>& values,
    std::int64_t t0_ns, double seconds, int chunks) {
  std::vector<std::vector<double>> out(static_cast<size_t>(chunks));
  const double width = seconds * 1e9 / chunks;
  for (size_t i = 0; i < values.size() && i < t_ns.size(); ++i) {
    const int c = std::clamp(
        static_cast<int>(static_cast<double>(t_ns[i] - t0_ns) / width), 0,
        chunks - 1);
    out[static_cast<size_t>(c)].push_back(values[i]);
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PassResult::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

Zipf::Zipf(int n, double s) : cdf_(static_cast<size_t>(n)) {
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Sample(rpc::Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? static_cast<int>(cdf_.size()) - 1
                          : static_cast<int>(it - cdf_.begin());
}

void TightenTimerSlack() { (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void SleepUntilNs(std::int64_t due_ns) {
  const std::int64_t wait = due_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

namespace {

// Layer (module under src/) a span name belongs to; "" for none.
std::string LayerOf(const std::string& name) {
  // Benchmark spans name the public call they wrap; their self time is
  // the part of that call no finer span explains, charged to the called
  // layer. bench.ack_wait is the wait between an Append returning and the
  // group commit covering it, which is durable-tier work.
  if (name == "bench.fit" || name == "fit.update" || name == "stream.refit") {
    return "core";
  }
  if (name == "fit.projection" || name == "fit.convergence") return "opt";
  if (name == "bench.query" || name.rfind("serve.", 0) == 0) return "serve";
  if (name == "bench.append" || name.rfind("stream.", 0) == 0) return "stream";
  if (name == "bench.ack_wait" || name == "bench.recover") return "durable";
  if (name == "bench.pump" || name.rfind("replica.", 0) == 0) return "replica";
  return "";
}

}  // namespace

void SpanBook::AddTree(const Span& root,
                       const std::vector<Span>& bench_children,
                       const std::vector<rpc::obs::SpanRecord>& program,
                       std::int64_t e2e_ns, bool primary) {
  // Every span here hangs off `root`: the benchmark's own children by
  // construction, the program's because they carry the trace id the root's
  // call was given. Self time is taken along the blocking path: at each
  // instant the innermost active span (the one that started last) is the
  // step the result is waiting on, and the root counts only where no child
  // is active. On one thread this is exactly each span's duration minus
  // its children; for work that fans out over threads (parallel restarts)
  // it counts each instant once.
  std::vector<Span> children = bench_children;
  for (const rpc::obs::SpanRecord& s : program) {
    children.push_back({s.name, s.start_ns, s.end_ns});
    durations_ms_[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  std::vector<std::int64_t> edges = {root.start_ns, root.end_ns};
  for (const Span& c : children) {
    edges.push_back(std::clamp(c.start_ns, root.start_ns, root.end_ns));
    edges.push_back(std::clamp(c.end_ns, root.start_ns, root.end_ns));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  double attributed = 0.0;
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    const std::int64_t lo = edges[i], hi = edges[i + 1];
    const Span* blocking = &root;
    for (const Span& c : children) {
      if (c.start_ns <= lo && c.end_ns >= hi &&
          (blocking == &root || c.start_ns > blocking->start_ns ||
           (c.start_ns == blocking->start_ns && c.end_ns < blocking->end_ns))) {
        blocking = &c;
      }
    }
    const std::string layer = LayerOf(blocking->name);
    if (layer.empty()) continue;
    layer_self_ns_[layer] += static_cast<double>(hi - lo);
    attributed += static_cast<double>(hi - lo);
  }
  e2e_all_ns_ += static_cast<double>(e2e_ns);
  if (primary && e2e_ns > 0) {
    primary_coverage_.push_back(attributed / static_cast<double>(e2e_ns));
  }
  ++trees_;
}

void SpanBook::Summarize(std::map<std::string, double>* out) const {
  for (const char* layer :
       {"core", "opt", "serve", "stream", "durable", "replica"}) {
    const auto it = layer_self_ns_.find(layer);
    const double self = it == layer_self_ns_.end() ? 0.0 : it->second;
    (*out)[std::string("self_share.") + layer] =
        e2e_all_ns_ > 0.0 ? self / e2e_all_ns_ : 0.0;
  }
  (*out)["trace.coverage"] = Median(primary_coverage_);
  (*out)["trace.trees"] = static_cast<double>(trees_);
}

std::vector<double> SpanBook::DurationsMs(const std::string& name) const {
  const auto it = durations_ms_.find(name);
  return it == durations_ms_.end() ? std::vector<double>() : it->second;
}

}  // namespace perfbench
