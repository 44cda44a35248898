// rmat-analytics: one-shot analytics on a skewed social-network analog,
// the paper's load-imbalance (DLB) regime where frontier stealing pays
// off. A weighted RMAT graph (scale 18, ~4 M edges) is ingested once;
// every round then runs BFS, SSSP and 20-round PageRank on it and WCC on
// its symmetrized copy, each as a fresh one-shot engine run against the
// shared GraphContext. Ingest is most of the wall time here, and dense
// PageRank stresses expand, merge and the per-iteration census.

#include <cfloat>

#include "algos/apps.h"
#include "bench.h"
#include "checks.h"
#include "core/engine.h"
#include "core/graph_context.h"
#include "graph/generators.h"
#include "sim/topology.h"

namespace perfbench {

namespace gc = gum::core;
namespace ga = gum::algos;

void RunRmatAnalytics(const Config& cfg, Report* report) {
  TraceRecorder trace(cfg.trace_dir);
  trace.Begin();

  SetupCosts costs;
  gum::graph::RmatOptions gen;
  gen.scale = cfg.small ? 12 : 18;
  gen.edge_factor = 16;
  gen.weighted = true;
  gen.seed = cfg.seed;
  gum::graph::EdgeList edges;
  costs.gen_ms =
      TimedMs("bench.graph.gen", [&] { edges = gum::graph::Rmat(gen); });
  costs.gen_edges = static_cast<double>(edges.edges.size());

  CsrGraph g;
  CsrGraph sym;
  costs.csr_ms = TimedMs("bench.graph.csr", [&] {
    g = Take(CsrGraph::FromEdgeList(edges), "csr");
    gum::graph::CsrBuildOptions symmetric;
    symmetric.symmetrize = true;
    sym = Take(CsrGraph::FromEdgeList(edges, symmetric), "symmetric csr");
  });
  costs.csr_edges = 2.0 * static_cast<double>(edges.edges.size());
  edges = {};

  gum::graph::Partition part;
  gum::graph::Partition sym_part;
  costs.partition_ms = TimedMs("bench.graph.partition", [&] {
    part = RandomPartition(g);
    sym_part = RandomPartition(sym);
  });
  costs.edge_cut = static_cast<double>(part.edge_cut);

  std::unique_ptr<gc::GraphContext> ctx;
  std::unique_ptr<gc::GraphContext> sym_ctx;
  costs.context_ms = TimedMs("bench.core.context", [&] {
    const auto topology = Take(
        gum::sim::Topology::HybridCubeMeshSubset(kDevices), "topology");
    ctx = std::make_unique<gc::GraphContext>(&g, std::move(part), topology,
                                             BenchOptions(cfg));
    sym_ctx = std::make_unique<gc::GraphContext>(
        &sym, std::move(sym_part), topology, BenchOptions(cfg));
  });
  const VertexId source = MaxOutDegreeVertex(g);
  ga::PageRankApp pagerank;
  pagerank.num_vertices = g.num_vertices();
  pagerank.rounds = 20;
  EndSetup(cfg, costs, trace, report);
  SerialBaseline baseline(g, {source}, 1);

  std::vector<uint32_t> bfs;
  std::vector<float> sssp;
  std::vector<double> rank;
  std::vector<uint32_t> wcc;
  RunRounds(cfg, trace, report, [&](int, Round& r) {
    gc::RunResult res;
    r.Timed("engine.bfs.ms", "bench.engine.bfs", [&] {
      ga::BfsApp app;
      app.source = source;
      res = gc::GumEngine<ga::BfsApp>(ctx.get()).Run(app, &bfs);
    });
    r.AddRun(res);
    r.digest.Add(bfs);

    r.Timed("engine.sssp_bsp.ms", "bench.engine.sssp_bsp", [&] {
      ga::SsspApp app;
      app.source = source;
      res = gc::GumEngine<ga::SsspApp>(ctx.get()).Run(app, &sssp);
    });
    r.AddRun(res);
    r.digest.Add(sssp);

    r.Timed("engine.pr.ms", "bench.engine.pr", [&] {
      res = gc::GumEngine<ga::PageRankApp>(ctx.get()).Run(pagerank, &rank);
    });
    r.AddRun(res);
    r.digest.Add(rank);

    r.Timed("engine.wcc.ms", "bench.engine.wcc", [&] {
      ga::WccApp app;
      res = gc::GumEngine<ga::WccApp>(sym_ctx.get()).Run(app, &wcc);
    });
    r.AddRun(res);
    r.digest.Add(wcc);
    baseline.Run(r);
  });

  report->Check("bfs", CheckBfs(g, source, bfs));
  report->Check("sssp", CheckSssp(g, source, sssp));
  const uint64_t components = CountComponents(sym);
  report->Check("wcc", CheckWcc(sym, wcc, components));
  const std::vector<double> expected =
      PowerIteration(g, pagerank.rounds, pagerank.damping);
  report->Check("pagerank", CheckPageRank(rank, expected));

  report->ExpectReject("bfs depth",
                       CheckBfs(g, source, BumpOne<uint32_t>(bfs, source,
                                                             UINT32_MAX)));
  report->ExpectReject(
      "sssp distance",
      CheckSssp(g, source, BumpOne<float>(sssp, source, FLT_MAX)));
  report->ExpectReject("wcc component",
                       CheckWcc(sym, SplitComponent(sym, wcc), components));
  std::vector<double> perturbed = rank;
  perturbed[source] *= 1.0 + 1e-6;
  report->ExpectReject("pagerank rank", CheckPageRank(perturbed, expected));
}

}  // namespace perfbench
