// Shared plumbing of the end-to-end benchmark harness: run configuration,
// host timing under trace spans, per-round metric records, output digests
// and the JSON report the harness prints as its last line.
//
// A run is: one cold set-up (timed from process start), then whole rounds
// of the workload's operations until the measurement time is used up, then
// the output checks. Every round of one run executes the same operations
// on the same inputs, so per-round counts and simulated times repeat
// exactly and host times are reported as the median over rounds.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "core/engine_options.h"
#include "core/run_result.h"
#include "graph/csr.h"
#include "graph/partition.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 0;  // 0: the workload's own host thread count
  // Reduced input sizes (the determinism self-test).
  bool small = false;
  // > 0: run exactly this many rounds instead of filling `seconds` (the
  // determinism self-test).
  int rounds = 0;
  // Non-empty: traced run; one Chrome trace per session lands here.
  std::string trace_dir;
  // Set-up time is measured from this instant (process start).
  Clock::time_point start = Clock::now();
};

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Runs `f` inside a benchmark trace span named `span` (static storage) and
// returns its host wall time in ms.
template <typename F>
double TimedMs(const char* span, F&& f) {
  const Clock::time_point t0 = Clock::now();
  {
    GUM_TRACE_SCOPE(span);
    f();
  }
  return MsSince(t0);
}

// Every workload runs on 8 simulated devices (the paper's DGX-1 cube mesh)
// with a random partition and default engine options.
inline constexpr int kDevices = 8;

template <typename T>
T Take(gum::Result<T> result, const char* what) {
  GUM_CHECK(result.ok()) << what << ": " << result.status().ToString();
  return std::move(result).value();
}

gum::core::EngineOptions BenchOptions(const Config& cfg);
gum::graph::Partition RandomPartition(const gum::graph::CsrGraph& g);
// The vertex of largest out-degree (lowest id on ties): a source that
// reaches most of a skewed graph.
gum::graph::VertexId MaxOutDegreeVertex(const gum::graph::CsrGraph& g);

// splitmix64: the benchmark's own input stream, seeded by --seed.
inline uint64_t NextRandom(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// FNV-1a over output bytes: two runs agree on every output value iff
// their digests agree (up to hash collisions).
class Digest {
 public:
  void Add(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void Add(const std::vector<T>& v) {
    Add(v.data(), v.size() * sizeof(T));
  }
  void Add(double x) { Add(&x, sizeof(x)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// What one round did: summed per-layer quantities (keyed by metric name),
// the operations it attempted, and a digest of every output value and
// simulated time.
struct Round {
  std::map<std::string, double> m;
  int64_t operations = 0;
  Digest digest;

  void Add(const std::string& name, double v) { m[name] += v; }
  // Times one operation under `span`, adding its host ms to `metric` and
  // its seconds to run_s; returns the ms.
  template <typename F>
  double Timed(const std::string& metric, const char* span, F&& f) {
    const double ms = TimedMs(span, std::forward<F>(f));
    Add(metric, ms);
    Add("run_s", ms / 1000.0);
    return ms;
  }
  // Folds one engine run into the round: simulated makespan and buckets,
  // payload, stealing, solver and async counters, and the output digest's
  // simulated-time component.
  void AddRun(const gum::core::RunResult& r);
};

// The yardstick for host time: a serial binary-heap Dijkstra over the
// benchmark's own copy of a graph, run once per round beside the engine
// operations. The host shares its cores with other tenants, and its speed
// changes by a third or more within seconds; both sides of
// run_vs_dijkstra (a round's run_s over this baseline's time in the same
// round) see the same machine state. Nothing of gum runs inside it.
class SerialBaseline {
 public:
  // Dijkstra from each of `sources` in turn, `repeats` times over.
  SerialBaseline(const gum::graph::CsrGraph& g,
                 std::vector<gum::graph::VertexId> sources, int repeats);
  // Runs the baseline under span bench.baseline, adding its host ms to
  // baseline.dijkstra.ms and its distances to the round's digest.
  void Run(Round& r);

 private:
  std::vector<uint64_t> offsets_;
  std::vector<gum::graph::VertexId> targets_;
  std::vector<float> weights_;
  std::vector<gum::graph::VertexId> sources_;
  int repeats_;
  // Kept across runs and the heap reserved up front, so that rounds after
  // the first allocate nothing.
  std::vector<float> dist_;
  std::vector<std::pair<float, gum::graph::VertexId>> heap_;
};

// The report of one harness run: the metrics this workload has layers
// for, by name. perfbench/run.py adds the units from BENCHMARK.json and
// reports 0 for the metrics a workload does not have.
class Report {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  // Records a failed output check; the run reports correct = false.
  void Fail(const std::string& why);
  // Records `error` (empty = pass) of an output check named `what`.
  void Check(const std::string& what, const std::string& error);
  // Checker self-test: `error` is the verdict on a deliberately corrupted
  // output and must be non-empty.
  void ExpectReject(const std::string& what, const std::string& error);

  bool correct() const { return failures_.empty(); }
  int64_t attempted = 0;
  int64_t failed = 0;
  int rounds = 0;
  int threads = 0;
  uint64_t digest = 0;  // digest of the first round's outputs

  void PrintJson(std::ostream& os) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

// Records one Chrome trace per session into a directory: the set-up
// session, then one per round. A recorder with an empty directory does
// nothing, so the untraced run pays one branch per session.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::string dir);
  ~TraceRecorder();
  void Begin();
  void End(const std::string& label);

 private:
  std::string dir_;
  std::unique_ptr<gum::obs::TraceSession> session_;
};

// Runs whole rounds of `round_fn` for about cfg.seconds of wall time (at
// least one round), or exactly cfg.rounds rounds when set. Later rounds
// must reproduce the first round's digest and simulated makespan; any
// mismatch is reported as a failed check. Medians of the per-round
// quantities (round 1, the warm-up, left out when there are more) land in
// `report`, together with the peak resident set, read before any output
// check runs, and run_vs_dijkstra: the mean over the same rounds of each
// round's run_s over its baseline time, the highest and lowest tenth of
// the ratios left out.
void RunRounds(const Config& cfg, TraceRecorder& trace, Report* report,
               const std::function<void(int round, Round& r)>& round_fn);

// Host costs of the set-up stages, in ms, and the edges each stage handled.
struct SetupCosts {
  double gen_ms = 0.0;
  double gen_edges = 0.0;
  double csr_ms = 0.0;
  double csr_edges = 0.0;  // input edges over every CSR build
  double partition_ms = 0.0;
  double context_ms = 0.0;
  double edge_cut = 0.0;
};

// Ends the set-up phase: records setup_s (process start to now) and the
// per-stage costs, and closes the set-up trace session.
void EndSetup(const Config& cfg, const SetupCosts& costs,
              TraceRecorder& trace, Report* report);

double PeakRssMb();

// Workloads; each runs set-up, rounds and output checks into `report`.
void RunRmatAnalytics(const Config& cfg, Report* report);
void RunRoadLt(const Config& cfg, Report* report);
void RunWebServeMutate(const Config& cfg, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
