// web-serve-mutate: point queries served beside writes on a web-crawl
// analog (scale 15, weighted). One EpochedGraphContext carries the graph
// through 4 mutation epochs of 64 seeded random inserts and deletes.
// Before every epoch barrier (and after the last), one client serves a
// 64-wide ServeSession wave, BFS and SSSP in turn, and waits for it (a
// closed loop of one client). After every barrier, a
// standing SSSP query is brought up to date by IncrementalSession. Each
// round starts again from the epoch-0 graph, so every round repeats the
// same operations. Multi-source expand/merge, context rebuild and the
// incremental/fallback replay do most of the work here.

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "algos/apps.h"
#include "algos/incremental.h"
#include "bench.h"
#include "checks.h"
#include "core/epoch_context.h"
#include "graph/generators.h"
#include "graph/mutation.h"
#include "serve/serving.h"
#include "sim/topology.h"

namespace perfbench {

namespace gc = gum::core;
namespace ga = gum::algos;
namespace gs = gum::serve;

namespace {

constexpr int kWaveWidth = 64;
constexpr int kBaselineRepeats = 16;

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

// The highest of p90/p99/p99.9 with at least ten samples beyond it.
double TailPercentile(const std::vector<double>& sorted) {
  double tail = Percentile(sorted, 0.5);
  for (const double q : {0.9, 0.99, 0.999}) {
    if ((1.0 - q) * sorted.size() >= 10.0) tail = Percentile(sorted, q);
  }
  return tail;
}

}  // namespace

void RunWebServeMutate(const Config& cfg, Report* report) {
  TraceRecorder trace(cfg.trace_dir);
  trace.Begin();

  SetupCosts costs;
  gum::graph::WebCrawlOptions gen;
  gen.scale = cfg.small ? 11 : 15;
  gen.weighted = true;
  gen.seed = cfg.seed;
  gum::graph::EdgeList edges;
  costs.gen_ms =
      TimedMs("bench.graph.gen", [&] { edges = gum::graph::WebCrawl(gen); });
  costs.gen_edges = static_cast<double>(edges.edges.size());

  CsrGraph g;
  costs.csr_ms = TimedMs("bench.graph.csr", [&] {
    g = Take(CsrGraph::FromEdgeList(edges), "csr");
  });
  costs.csr_edges = static_cast<double>(edges.edges.size());
  edges = {};

  gum::graph::Partition part;
  costs.partition_ms =
      TimedMs("bench.graph.partition", [&] { part = RandomPartition(g); });
  costs.edge_cut = static_cast<double>(part.edge_cut);

  const auto topology =
      Take(gum::sim::Topology::HybridCubeMeshSubset(kDevices), "topology");
  const auto fresh_context = [&] {
    return std::make_unique<gc::EpochedGraphContext>(
        g, part, topology, BenchOptions(cfg), /*symmetric=*/false);
  };
  std::unique_ptr<gc::EpochedGraphContext> ectx;
  costs.context_ms =
      TimedMs("bench.core.context", [&] { ectx = fresh_context(); });

  const auto plan = Take(gum::graph::MutationPlan::Parse(
                             cfg.small ? "rand:4x16" : "rand:4x64"),
                         "mutation plan");
  const auto stream =
      Take(gum::graph::MutationStream::Create(plan, g, cfg.seed), "stream");
  const int epochs = stream.num_epochs();
  // Sources of the wave served in each of the epochs + 1 segments, drawn
  // from the crawl's core (the generator's first ids; tendril chains take
  // the rest). A wave runs until its deepest lane is done, so one source
  // at the end of a long chain would set the cost of the whole wave.
  const auto core = static_cast<VertexId>((1.0 - gen.tendril_fraction) *
                                          g.num_vertices());
  std::vector<std::vector<VertexId>> sources(epochs + 1);
  uint64_t rng = cfg.seed;
  for (auto& wave : sources) {
    for (int i = 0; i < kWaveWidth; ++i) {
      wave.push_back(static_cast<VertexId>(NextRandom(rng) % core));
    }
  }
  ga::SsspApp standing;
  standing.source = MaxOutDegreeVertex(g);
  EndSetup(cfg, costs, trace, report);
  // The baseline runs on the epoch-0 graph from the standing query's
  // source, which reaches the crawl's core whatever the seed.
  SerialBaseline baseline(g, {standing.source}, kBaselineRepeats);

  RunRounds(cfg, trace, report, [&](int round, Round& r) {
    if (round > 1) {
      // Back to the epoch-0 graph; the old epoch is dropped first so two
      // contexts never coexist.
      ectx.reset();
      ectx = fresh_context();
    }
    const bool check = round == 1;
    gs::ServeSession<gs::BfsServeTraits> bfs_session(&ectx->ctx());
    gs::ServeSession<gs::SsspServeTraits> sssp_session(&ectx->ctx());
    ga::IncrementalSession<ga::SsspApp> incremental;
    std::vector<double> latencies;
    int waves = 0;

    // Serves one wave; in round 1, checks every lane against the current
    // graph.
    const auto serve = [&](auto& session, const char* span,
                           const std::vector<VertexId>& wave, auto kind,
                           auto&& check_lane) {
      gs::QueryQueue queue;
      for (int i = 0; i < kWaveWidth; ++i) {
        queue.Admit(gs::Query{i, decltype(kind)::kKind, wave[i]});
      }
      gs::ServeOptions options;
      options.batch_width = kWaveWidth;
      decltype(session.ServeAll(queue, options)) out;
      r.Timed("serve.batch.ms", span,
              [&] { out = session.ServeAll(queue, options); });
      ++waves;
      r.operations += out.stats.queries;
      r.Add("serve.queries", out.stats.queries);
      r.Add("sim_makespan_ms", out.stats.makespan_ms);
      r.digest.Add(out.stats.makespan_ms);
      for (size_t i = 0; i < out.values.size(); ++i) {
        latencies.push_back(out.stats.query_results[i].latency_ms);
        r.digest.Add(out.values[i]);
        if (check) {
          const VertexId src = wave[out.stats.query_results[i].id];
          report->Check(span, check_lane(src, out.values[i]));
        }
      }
      return out;
    };
    // Segment s serves one wave: BFS when s is even, SSSP when odd.
    const auto serve_segment = [&](int segment) {
      if (segment % 2 == 0) {
        serve(bfs_session, "bench.engine.serve_bfs", sources[segment],
              gs::BfsServeTraits{}, [&](VertexId src, const auto& depth) {
                return CheckBfs(ectx->graph(), src, depth);
              });
        return;
      }
      const auto wave = serve(sssp_session, "bench.engine.serve_sssp",
                              sources[segment], gs::SsspServeTraits{},
                              [&](VertexId src, const auto& dist) {
                                return CheckSssp(ectx->graph(), src, dist);
                              });
      if (check && segment + 1 == epochs) {
        // Checker self-test on the first lane of the last SSSP wave whose
        // source reaches another vertex.
        size_t lane = 0;
        std::vector<float> bumped;
        VertexId src = 0;
        for (; lane < wave.values.size(); ++lane) {
          src = sources[segment][wave.stats.query_results[lane].id];
          bumped = BumpOne<float>(wave.values[lane], src, FLT_MAX);
          if (bumped != wave.values[lane]) break;
        }
        report->ExpectReject("served distance",
                             lane == wave.values.size()
                                 ? ""
                                 : CheckSssp(ectx->graph(), src, bumped));
      }
    };

    gc::RunResult initial;
    r.Timed("engine.sssp_bsp.ms", "bench.engine.sssp_bsp", [&] {
      initial = incremental.RunInitial(ectx->ctx(), standing);
    });
    r.AddRun(initial);
    r.digest.Add(incremental.values());
    if (check) {
      report->Check("standing sssp",
                    CheckSssp(ectx->graph(), standing.source,
                              incremental.values()));
    }

    for (int epoch = 1; epoch <= epochs; ++epoch) {
      serve_segment(epoch - 1);

      // The check models this epoch from the previous epoch's flat graph,
      // itself checked against the batches before it (epoch 0 is `g`).
      CsrGraph before;
      if (check) before = ectx->graph();
      gc::EpochAdvanceStats adv;
      r.Timed("mutation.advance.ms", "bench.mutation.advance", [&] {
        adv = ectx->AdvanceEpoch(stream.BatchAt(epoch), /*compact_every=*/0);
        bfs_session.Rebind(&ectx->ctx());
        sssp_session.Rebind(&ectx->ctx());
      });
      ++r.operations;
      r.Add("sim_makespan_ms", adv.apply_ms + adv.compact_ms);
      r.Add("mutation.events", adv.inserted + adv.deleted);
      r.Add("mutation.delta_kb", adv.delta_bytes / 1024.0);
      r.digest.Add(adv.apply_ms + adv.compact_ms);

      ga::IncrementalSession<ga::SsspApp>::EpochRunStats er;
      r.Timed("incremental.epoch.ms", "bench.engine.incremental", [&] {
        er = incremental.RunEpoch(ectx->ctx(), adv.effective);
      });
      r.AddRun(er.result);
      r.Add("sim_makespan_ms", er.restore_ms);
      r.Add("incremental.iterations", er.result.iterations);
      r.Add("incremental.fallbacks",
            er.kind == ga::EpochPlanKind::kFallback ? 1 : 0);
      r.digest.Add(incremental.values());

      if (check) {
        const EpochEdits edits = ApplyBatch(before, stream.BatchAt(epoch));
        report->Check("epoch " + std::to_string(epoch) + " edges",
                      CheckEpoch(before, edits, ectx->graph(), adv.inserted,
                                 adv.deleted));
        report->Check("incremental sssp",
                      CheckSssp(ectx->graph(), standing.source,
                                incremental.values()));
        if (epoch == epochs) {
          // Checker self-test on this epoch's outputs. First, a plane
          // that silently loses one update and leaves it out of its counts.
          const EpochEdits lossy =
              ApplyBatch(before, DropOneEdit(before, stream.BatchAt(epoch)));
          report->ExpectReject("dropped mutation event",
                               CheckEpoch(before, lossy, ectx->graph(),
                                          lossy.inserted, lossy.deleted));
          report->ExpectReject(
              "incremental distance",
              CheckSssp(ectx->graph(), standing.source,
                        BumpOne<float>(incremental.values(), standing.source,
                                       FLT_MAX)));
        }
      }
    }
    serve_segment(epochs);
    baseline.Run(r);

    std::sort(latencies.begin(), latencies.end());
    r.Add("serve.sim_latency_p50_ms", Percentile(latencies, 0.5));
    r.Add("serve.sim_latency_tail_ms", TailPercentile(latencies));
    r.m["serve.batch.ms"] /= waves;
    r.m["mutation.advance.ms"] /= epochs;
    r.m["incremental.epoch.ms"] /= epochs;
  });
}

}  // namespace perfbench
