#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <functional>
#include <limits>
#include <utility>

#include "common/json.h"
#include "common/logging.h"

namespace perfbench {

namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Mean of `v` without its highest and lowest tenth (rounded down).
double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

}  // namespace

void Round::AddRun(const gum::core::RunResult& r) {
  Add("sim_makespan_ms", r.total_ms);
  Add("sim.compute_ms", r.ComputeMs());
  Add("sim.comm_ms", r.CommunicationMs());
  Add("sim.serialization_ms", r.SerializationMs());
  Add("sim.overhead_ms", r.OverheadMs());
  Add("sim.payload_mb", r.TotalPayloadBytes() / 1e6);
  Add("steal.stolen_edges", r.stolen_edges_total);
  Add("steal.osteal_shrinks", r.osteal_shrink_events);
  Add("engine.iterations", r.iterations);
  Add("engine.edges", static_cast<double>(r.edges_processed));
  Add("engine.messages", static_cast<double>(r.messages_sent));
  Add("steal.decision_ms",
      r.fsteal_decision_host_ms_total + r.osteal_decision_host_ms_total);
  Add("solver.lp_iterations", static_cast<double>(
                                  r.fsteal_lp_iterations_total +
                                  r.osteal_lp_iterations_total));
  Add("solver.milp_nodes", static_cast<double>(r.fsteal_milp_nodes_total +
                                               r.osteal_milp_nodes_total));
  if (r.async_active) {
    Add("async.batches", static_cast<double>(r.async_batches));
    Add("async.stale_skips", static_cast<double>(r.async_stale_skips));
    Add("async.range_steals", static_cast<double>(r.async_range_steals));
    Add("async.quiescence_rounds", r.quiescence_rounds);
  }
  digest.Add(r.total_ms);
  ++operations;
}

SerialBaseline::SerialBaseline(const gum::graph::CsrGraph& g,
                               std::vector<gum::graph::VertexId> sources,
                               int repeats)
    : sources_(std::move(sources)), repeats_(repeats) {
  const gum::graph::VertexId n = g.num_vertices();
  offsets_.reserve(n + 1);
  targets_.reserve(g.num_edges());
  weights_.reserve(g.num_edges());
  // One push per improving relaxation, at most one per edge, plus the
  // source.
  heap_.reserve(g.num_edges() + 1);
  offsets_.push_back(0);
  for (gum::graph::VertexId u = 0; u < n; ++u) {
    const auto targets = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t e = 0; e < targets.size(); ++e) {
      targets_.push_back(targets[e]);
      weights_.push_back(weights.empty() ? 1.0f : weights[e]);
    }
    offsets_.push_back(targets_.size());
  }
}

void SerialBaseline::Run(Round& r) {
  const auto later = std::greater<>();  // min-heap on (distance, vertex)
  const double ms = TimedMs("bench.baseline", [&] {
    for (int k = 0; k < repeats_; ++k) {
      for (const gum::graph::VertexId source : sources_) {
        dist_.assign(offsets_.size() - 1, std::numeric_limits<float>::max());
        dist_[source] = 0.0f;
        heap_.assign(1, {0.0f, source});
        while (!heap_.empty()) {
          std::pop_heap(heap_.begin(), heap_.end(), later);
          const auto [d, u] = heap_.back();
          heap_.pop_back();
          if (d > dist_[u]) continue;
          for (uint64_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
            const float cand = d + weights_[e];
            if (cand < dist_[targets_[e]]) {
              dist_[targets_[e]] = cand;
              heap_.emplace_back(cand, targets_[e]);
              std::push_heap(heap_.begin(), heap_.end(), later);
            }
          }
        }
      }
    }
  });
  r.Add("baseline.dijkstra.ms", ms);
  r.digest.Add(dist_);
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  return values_.at(name);
}

void Report::Fail(const std::string& why) {
  std::cerr << "perfbench: FAILED " << why << "\n";
  failures_.push_back(why);
}

void Report::Check(const std::string& what, const std::string& error) {
  if (!error.empty()) Fail(what + ": " + error);
}

void Report::ExpectReject(const std::string& what, const std::string& error) {
  if (error.empty()) Fail("checker self-test: corrupted " + what + " passed");
}

void Report::PrintJson(std::ostream& os) const {
  gum::JsonWriter w(os);
  w.BeginObject();
  w.Key("correct").Value(correct());
  w.Key("attempted").Value(attempted);
  w.Key("failed").Value(failed);
  w.Key("rounds").Value(rounds);
  w.Key("threads").Value(threads);
  w.Key("digest").Value(std::to_string(digest));
  w.Key("metrics").BeginObject();
  for (const auto& [name, value] : values_) w.Key(name).Value(value);
  w.EndObject();
  w.EndObject();
  os << "\n";
}

TraceRecorder::TraceRecorder(std::string dir) : dir_(std::move(dir)) {}

TraceRecorder::~TraceRecorder() {
  if (session_ != nullptr && session_->recording()) session_->Stop();
}

void TraceRecorder::Begin() {
  if (dir_.empty()) return;
  session_ = std::make_unique<gum::obs::TraceSession>();
  session_->Start();
}

void TraceRecorder::End(const std::string& label) {
  if (session_ == nullptr) return;
  session_->Stop();
  std::ofstream out(dir_ + "/" + label + ".json");
  session_->WriteChromeTrace(out);
  GUM_CHECK(out.good()) << "cannot write trace " << dir_ << "/" << label;
  session_.reset();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

gum::core::EngineOptions BenchOptions(const Config& cfg) {
  gum::core::EngineOptions options;
  options.num_host_threads = cfg.threads;
  return options;
}

gum::graph::Partition RandomPartition(const gum::graph::CsrGraph& g) {
  return Take(gum::graph::PartitionGraph(g, kDevices), "partition");
}

gum::graph::VertexId MaxOutDegreeVertex(const gum::graph::CsrGraph& g) {
  gum::graph::VertexId best = 0;
  for (gum::graph::VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(best)) best = v;
  }
  return best;
}

void EndSetup(const Config& cfg, const SetupCosts& costs,
              TraceRecorder& trace, Report* report) {
  report->Set("setup_s", MsSince(cfg.start) / 1000.0);
  report->Set("graph.gen.ms", costs.gen_ms);
  report->Set("graph.gen.medges_per_s", costs.gen_edges / costs.gen_ms / 1e3);
  report->Set("graph.csr.ms", costs.csr_ms);
  report->Set("graph.csr.medges_per_s", costs.csr_edges / costs.csr_ms / 1e3);
  report->Set("graph.partition.ms", costs.partition_ms);
  report->Set("core.context.ms", costs.context_ms);
  report->Set("graph.partition.edge_cut", costs.edge_cut);
  report->threads = cfg.threads;
  trace.End("setup");
}

void RunRounds(const Config& cfg, TraceRecorder& trace, Report* report,
               const std::function<void(int round, Round& r)>& round_fn) {
  std::vector<Round> rounds;
  const Clock::time_point t0 = Clock::now();
  double last_round_ms = 0.0;
  // A round starts only if it is expected to end within cfg.seconds (the
  // last round's length is the estimate), so a run lasts about cfg.seconds
  // whatever the round length.
  while (cfg.rounds > 0 ? static_cast<int>(rounds.size()) < cfg.rounds
                        : rounds.empty() || MsSince(t0) + last_round_ms <=
                                                cfg.seconds * 1000) {
    const Clock::time_point round_start = Clock::now();
    Round& r = rounds.emplace_back();
    trace.Begin();
    round_fn(static_cast<int>(rounds.size()), r);
    trace.End("round-" + std::to_string(rounds.size()));
    last_round_ms = MsSince(round_start);
    std::cerr << "perfbench: " << cfg.workload << " round " << rounds.size()
              << " run_s " << r.m["run_s"] << "\n";
  }
  report->Set("peak_rss_mb", PeakRssMb());

  const Round& first = rounds.front();
  for (size_t i = 1; i < rounds.size(); ++i) {
    if (rounds[i].digest.value() != first.digest.value() ||
        rounds[i].m.at("sim_makespan_ms") != first.m.at("sim_makespan_ms")) {
      report->Fail("round " + std::to_string(i + 1) +
                   " outputs differ from round 1 on identical inputs");
    }
  }
  // Round 1 warms caches, allocators and the thread pool; when there are
  // more rounds, the medians leave it out.
  const size_t warm = rounds.size() > 1 ? 1 : 0;
  std::vector<double> ratios;
  for (size_t i = warm; i < rounds.size(); ++i) {
    ratios.push_back(rounds[i].m.at("run_s") * 1000.0 /
                     rounds[i].m.at("baseline.dijkstra.ms"));
  }
  report->Set("run_vs_dijkstra", TrimmedMean(ratios));
  for (const auto& [name, value] : first.m) {
    std::vector<double> per_round;
    for (size_t i = warm; i < rounds.size(); ++i) {
      per_round.push_back(rounds[i].m.at(name));
    }
    report->Set(name, Median(per_round));
  }
  report->rounds = static_cast<int>(rounds.size());
  report->attempted = first.operations * static_cast<int64_t>(rounds.size());
  report->digest = first.digest.value();
}

}  // namespace perfbench
