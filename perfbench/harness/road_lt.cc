// road-lt: shortest paths on a long-diameter road-network analog, the
// paper's low-traffic (LT) regime where ownership stealing's group
// shrinking pays off. A 512 x 512 weighted road grid is ingested once;
// every round then runs two corner-to-opposite-corner trips (one per
// diagonal), each as SSSP in BSP mode (~1,050 supersteps), the same SSSP
// on the async engine, and async A* toward the opposite corner with the
// admissible Manhattan heuristic. BSP time goes to the per-iteration
// census and the steal decisions; async time goes to the sequential event
// loop. Ingest is a small share of the run.

#include <cfloat>
#include <utility>

#include "algos/apps.h"
#include "algos/astar.h"
#include "bench.h"
#include "checks.h"
#include "core/engine.h"
#include "core/graph_context.h"
#include "graph/generators.h"
#include "sim/topology.h"

namespace perfbench {

namespace gc = gum::core;
namespace ga = gum::algos;

void RunRoadLt(const Config& cfg, Report* report) {
  TraceRecorder trace(cfg.trace_dir);
  trace.Begin();

  SetupCosts costs;
  gum::graph::RoadGridOptions gen;
  gen.rows = gen.cols = cfg.small ? 64 : 512;
  gen.seed = cfg.seed;
  gum::graph::EdgeList edges;
  costs.gen_ms =
      TimedMs("bench.graph.gen", [&] { edges = gum::graph::RoadGrid(gen); });
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

  std::unique_ptr<gc::GraphContext> ctx;
  costs.context_ms = TimedMs("bench.core.context", [&] {
    ctx = std::make_unique<gc::GraphContext>(
        &g, std::move(part),
        Take(gum::sim::Topology::HybridCubeMeshSubset(kDevices), "topology"),
        BenchOptions(cfg));
  });
  gc::EngineOptions async_options = ctx->options();
  async_options.mode = gc::EngineMode::kAsync;

  // Two corner-to-opposite-corner trips, one along each diagonal: a round
  // depends less on the seeded weights of any one trip, and stays short
  // enough for a run to take the median over many rounds.
  const VertexId n = g.num_vertices();
  const VertexId cols = gen.cols;
  const std::vector<std::pair<VertexId, VertexId>> trips = {
      {0, n - 1}, {cols - 1, n - cols}};
  std::vector<ga::AStarApp> astars(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    astars[i].source = trips[i].first;
    astars[i].target = trips[i].second;
    astars[i].heuristic =
        ga::GridManhattanHeuristic(g, gen.rows, gen.cols, trips[i].second);
  }
  EndSetup(cfg, costs, trace, report);
  SerialBaseline baseline(g, {trips[0].first, trips[1].first}, 2);

  std::vector<std::vector<float>> bsp(trips.size());
  std::vector<std::vector<float>> async(trips.size());
  std::vector<std::vector<float>> best_first(trips.size());
  RunRounds(cfg, trace, report, [&](int, Round& r) {
    double async_ms = 0.0;
    for (size_t i = 0; i < trips.size(); ++i) {
      gc::RunResult res;
      ga::SsspApp sssp;
      sssp.source = trips[i].first;
      r.Timed("engine.sssp_bsp.ms", "bench.engine.sssp_bsp", [&] {
        res = gc::GumEngine<ga::SsspApp>(ctx.get()).Run(sssp, &bsp[i]);
      });
      r.AddRun(res);
      r.digest.Add(bsp[i]);

      async_ms += r.Timed(
          "engine.sssp_async.ms", "bench.engine.sssp_async", [&] {
            gc::RunContext<ga::SsspApp> rc;
            res = gc::GumEngine<ga::SsspApp>(ctx.get()).Run(
                sssp, rc, &async[i], &async_options);
          });
      r.AddRun(res);
      r.digest.Add(async[i]);

      async_ms += r.Timed(
          "engine.astar_async.ms", "bench.engine.astar_async", [&] {
            gc::RunContext<ga::AStarApp> rc;
            res = gc::GumEngine<ga::AStarApp>(ctx.get()).Run(
                astars[i], rc, &best_first[i], &async_options);
          });
      r.AddRun(res);
      r.digest.Add(best_first[i]);
    }
    r.Add("async.batches_per_s", r.m.at("async.batches") / (async_ms / 1e3));
    baseline.Run(r);
  });

  for (size_t i = 0; i < trips.size(); ++i) {
    const auto [source, target] = trips[i];
    report->Check("sssp bsp", CheckSssp(g, source, bsp[i]));
    report->Check("sssp async", CheckSssp(g, source, async[i]));
    report->Check("astar async", CheckAStar(best_first[i], target, bsp[i]));
  }

  const auto [source, target] = trips.front();
  report->ExpectReject(
      "sssp distance",
      CheckSssp(g, source, BumpOne<float>(bsp.front(), source, FLT_MAX)));
  std::vector<float> off = best_first.front();
  off[target] += 1.0f;
  report->ExpectReject("astar target distance",
                       CheckAStar(off, target, bsp.front()));
}

}  // namespace perfbench
