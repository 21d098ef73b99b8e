// Shared plumbing of the repo benchmark: arguments, the result report,
// sample statistics, the seeded input helpers, the open-loop pacer and the
// benchmark's own span book (parent links + per-layer self time).
#ifndef RPC_PERFBENCH_HARNESS_H_
#define RPC_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Steady-clock nanoseconds (the obs span time base).
inline std::int64_t NowNs() { return rpc::obs::TraceNowNs(); }

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Median of a sample (0 when empty).
double Median(std::vector<double> values);
/// Quantile q in [0, 1] by nearest rank (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Median over chunks of each chunk's q-quantile (0 when all are empty).
double ChunkedQuantile(const std::vector<std::vector<double>>& chunks,
                       double q);

/// Splits samples into `chunks` groups by their time stamp, over the span
/// [t0_ns, t0_ns + seconds).
std::vector<std::vector<double>> ChunkByTime(
    const std::vector<std::int64_t>& t_ns, const std::vector<double>& values,
    std::int64_t t0_ns, double seconds, int chunks);

/// Peak resident set of the process, in MB.
double PeakRssMb();

/// One workload pass: the end-to-end figures of its primary operation plus
/// every per-layer figure it can produce, and its failure accounting.
struct PassResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double setup_s = 0.0;
  /// Latency samples (ms) of the workload's primary user operation,
  /// grouped into consecutive time chunks of the pass. The printed figures
  /// are medians over chunks of each chunk's quantile, so a host stall that
  /// spoils one chunk does not move them.
  std::vector<std::vector<double>> op_chunks_ms;
  /// Per-layer metric values by BENCHMARK.json name.
  std::map<std::string, double> layer;

  void Fail(const std::string& why);
};

/// Zipf(s) sampler over ranks [0, n): rank r drawn with weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  int Sample(rpc::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Lowers this thread's timer slack to 1 ns so short open-loop sleeps wake
/// on time instead of up to 50 us late.
void TightenTimerSlack();

/// Sleeps until the steady-clock instant `due_ns` (returns at once when it
/// has passed).
void SleepUntilNs(std::int64_t due_ns);

/// Span book: the benchmark's own spans around each call into a layer,
/// with the program's spans of the same trace attached beneath them (the
/// program's SpanRecord has no parent field; the trace id the benchmark
/// passed is the link). A span's self time is its duration minus the part
/// its children cover, taken along the blocking path when children run
/// in parallel.
class SpanBook {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Adds one tree. `root` is a benchmark span covering the call, with
  /// `bench_children` inside it; `program` are the spans obs recorded
  /// under the call's trace id. `e2e_ns` is the operation's end-to-end
  /// time (from its due time for open-loop requests); `primary` marks the
  /// workload's primary operation, whose trees define trace coverage.
  void AddTree(const Span& root, const std::vector<Span>& bench_children,
               const std::vector<rpc::obs::SpanRecord>& program,
               std::int64_t e2e_ns, bool primary);

  /// Writes self_share.<layer> (layer self time over the end-to-end time
  /// of every tree), trace.coverage (median over primary trees of the self
  /// time attributed to a layer over the end-to-end time; the rest is time
  /// before the call, such as open-loop lateness) and trace.trees.
  void Summarize(std::map<std::string, double>* out) const;

  /// Durations (ms) of every attached program span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

 private:
  std::map<std::string, double> layer_self_ns_;
  std::map<std::string, std::vector<double>> durations_ms_;
  double e2e_all_ns_ = 0.0;
  std::vector<double> primary_coverage_;
  std::int64_t trees_ = 0;
};

}  // namespace perfbench

#endif  // RPC_PERFBENCH_HARNESS_H_
