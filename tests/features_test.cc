#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "common/bitmap.h"
#include "common/random.h"
#include "graph/frontier_features.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "sim/kernel_cost.h"

namespace gum {
namespace {

using graph::CsrGraph;
using graph::ExtractFrontierFeatures;
using graph::FrontierFeatures;
using graph::VertexId;

CsrGraph Social() {
  auto g = CsrGraph::FromEdgeList(
      graph::Rmat({.scale = 10, .edge_factor = 8, .seed = 2}));
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(FeatureTest, EmptyFrontierIsZero) {
  const CsrGraph g = Social();
  const FrontierFeatures f = ExtractFrontierFeatures(g, {});
  for (double x : f.ToArray()) EXPECT_EQ(x, 0.0);
}

TEST(FeatureTest, SingleVertexFrontier) {
  const CsrGraph g = Social();
  const VertexId v = 7;
  const std::vector<VertexId> frontier = {v};
  const FrontierFeatures f = ExtractFrontierFeatures(g, frontier);
  EXPECT_DOUBLE_EQ(f.avg_out_degree, g.OutDegree(v));
  EXPECT_DOUBLE_EQ(f.avg_in_degree, g.InDegree(v));
  EXPECT_DOUBLE_EQ(f.out_degree_range, 0.0);
  EXPECT_DOUBLE_EQ(f.in_degree_range, 0.0);
  EXPECT_DOUBLE_EQ(f.gini, 0.0);
}

TEST(FeatureTest, WholeGraphAverageMatchesStats) {
  const CsrGraph g = Social();
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  const FrontierFeatures f = ExtractFrontierFeatures(g, all);
  EXPECT_NEAR(f.avg_out_degree * g.num_vertices(),
              static_cast<double>(g.num_edges()), 1e-6);
  EXPECT_GT(f.gini, 0.3) << "RMAT frontier should be skewed";
  EXPECT_GT(f.entropy, 0.0);
  EXPECT_LE(f.entropy, 1.0);
}

TEST(FeatureTest, HubFrontierMoreSkewedThanUniform) {
  const CsrGraph g = Social();
  // Top-degree frontier vs bottom-degree frontier: ranges differ.
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  std::sort(all.begin(), all.end(), [&](VertexId a, VertexId b) {
    return g.OutDegree(a) > g.OutDegree(b);
  });
  const std::vector<VertexId> hubs(all.begin(), all.begin() + 32);
  const std::vector<VertexId> tails(all.end() - 32, all.end());
  const FrontierFeatures fh = ExtractFrontierFeatures(g, hubs);
  const FrontierFeatures ft = ExtractFrontierFeatures(g, tails);
  EXPECT_GT(fh.avg_out_degree, ft.avg_out_degree);
}

TEST(FeatureTest, ToArrayOrderStable) {
  FrontierFeatures f;
  f.avg_in_degree = 1;
  f.avg_out_degree = 2;
  f.in_degree_range = 3;
  f.out_degree_range = 4;
  f.gini = 5;
  f.entropy = 6;
  const auto arr = f.ToArray();
  EXPECT_EQ(arr, (std::array<double, 6>{1, 2, 3, 4, 5, 6}));
}

// --- exactness against the sort-based algorithm ---

// The feature extraction as it was before the single-pass rewrite: degrees
// copied into doubles, Gini over a sorted copy, one std::log per vertex.
// The production code must reproduce it bit for bit.
FrontierFeatures OracleFeatures(const CsrGraph& g,
                                std::span<const VertexId> frontier) {
  FrontierFeatures f;
  if (frontier.empty()) return f;
  double in_sum = 0, out_sum = 0;
  uint32_t in_min = std::numeric_limits<uint32_t>::max(), in_max = 0;
  uint32_t out_min = std::numeric_limits<uint32_t>::max(), out_max = 0;
  std::vector<double> out_degrees;
  const bool has_in = g.has_in_csr();
  for (const VertexId v : frontier) {
    const uint32_t od = g.OutDegree(v);
    const uint32_t id = has_in ? g.InDegree(v) : od;
    out_sum += od;
    in_sum += id;
    out_min = std::min(out_min, od);
    out_max = std::max(out_max, od);
    in_min = std::min(in_min, id);
    in_max = std::max(in_max, id);
    out_degrees.push_back(od);
  }
  const double n = static_cast<double>(frontier.size());
  f.avg_in_degree = in_sum / n;
  f.avg_out_degree = out_sum / n;
  f.in_degree_range = static_cast<double>(in_max - in_min);
  f.out_degree_range = static_cast<double>(out_max - out_min);
  f.gini = graph::GiniCoefficient(out_degrees);
  f.entropy = graph::DegreeEntropy(out_degrees);
  return f;
}

void ExpectBitEqual(const CsrGraph& g, std::span<const VertexId> frontier,
                    const std::string& what) {
  const auto got = ExtractFrontierFeatures(g, frontier).ToArray();
  const auto want = OracleFeatures(g, frontier).ToArray();
  EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(got)), 0)
      << what << ": got gini=" << got[4] << " entropy=" << got[5]
      << ", want gini=" << want[4] << " entropy=" << want[5];
}

CsrGraph Build(const graph::EdgeList& list, bool in_csr) {
  graph::CsrBuildOptions options;
  options.build_in_csr = in_csr;
  auto g = CsrGraph::FromEdgeList(list, options);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// Seeded frontiers of many shapes over one graph: every size class, sampled
// with replacement (so vertices repeat), sorted runs, zero-degree-only and
// single-vertex frontiers.
void CheckSeededFrontiers(const CsrGraph& g, uint64_t seed,
                          const std::string& name) {
  Rng rng(seed);
  const VertexId nv = g.num_vertices();
  ExpectBitEqual(g, {}, name + " empty");
  for (const size_t size : {1, 2, 3, 7, 64, 500, 4096, 20000}) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<VertexId> frontier(size);
      for (auto& v : frontier) v = static_cast<VertexId>(rng.NextBounded(nv));
      if (rep == 1) std::sort(frontier.begin(), frontier.end());
      ExpectBitEqual(g, frontier,
                     name + " size " + std::to_string(size) + " rep " +
                         std::to_string(rep));
    }
  }
  std::vector<VertexId> all(nv);
  std::iota(all.begin(), all.end(), VertexId{0});
  ExpectBitEqual(g, all, name + " all vertices");

  std::vector<VertexId> zero_degree;
  for (VertexId v = 0; v < nv && zero_degree.size() < 50; ++v) {
    if (g.OutDegree(v) == 0) zero_degree.push_back(v);
  }
  ExpectBitEqual(g, zero_degree, name + " zero-degree only");
  if (!zero_degree.empty()) {
    std::vector<VertexId> mixed = zero_degree;
    for (int k = 0; k < 50; ++k) {
      mixed.push_back(static_cast<VertexId>(rng.NextBounded(nv)));
    }
    ExpectBitEqual(g, mixed, name + " zero-degree mixed");
  }
  const std::vector<VertexId> repeated(100, all[rng.NextBounded(nv)]);
  ExpectBitEqual(g, repeated, name + " one vertex repeated");
}

TEST(FeatureExactnessTest, RoadGraphsMatchSortOracle) {
  const auto list = graph::RoadGrid({.rows = 96, .cols = 96, .seed = 4});
  CheckSeededFrontiers(Build(list, true), 11, "road in-csr");
  CheckSeededFrontiers(Build(list, false), 12, "road no-in-csr");
}

TEST(FeatureExactnessTest, WebGraphsMatchSortOracle) {
  const auto list = graph::WebCrawl({.scale = 13, .seed = 5});
  CheckSeededFrontiers(Build(list, true), 21, "web in-csr");
  CheckSeededFrontiers(Build(list, false), 22, "web no-in-csr");
}

TEST(FeatureExactnessTest, RmatGraphsMatchSortOracle) {
  const auto list =
      graph::Rmat({.scale = 13, .edge_factor = 16, .seed = 6});
  CheckSeededFrontiers(Build(list, true), 31, "rmat in-csr");
  CheckSeededFrontiers(Build(list, false), 32, "rmat no-in-csr");
}

TEST(FeatureExactnessTest, WideDegreeRangeTakesSortFallback) {
  // A star: vertex 0 has 6000 out-edges, the leaves one each. A frontier
  // of the hub plus a few leaves spans a degree range far wider than the
  // frontier, which the histogram path leaves to the sort fallback.
  graph::EdgeList list;
  list.num_vertices = 6001;
  for (VertexId v = 1; v <= 6000; ++v) {
    list.edges.push_back({0, v, 1.0f});
    list.edges.push_back({v, v % 6000 + 1, 1.0f});
  }
  for (const bool in_csr : {true, false}) {
    const CsrGraph g = Build(list, in_csr);
    ASSERT_EQ(g.OutDegree(0), 6000u);
    ExpectBitEqual(g, std::vector<VertexId>{0, 1}, "hub + leaf");
    ExpectBitEqual(g, std::vector<VertexId>{5, 0, 9, 0, 17},
                   "hub repeated among leaves");
    std::vector<VertexId> hub_and_many(4000);
    std::iota(hub_and_many.begin(), hub_and_many.end(), VertexId{0});
    ExpectBitEqual(g, hub_and_many, "hub + 3999 leaves");
  }
}

TEST(FeatureExactnessTest, CensusSumsMatchPerVertexLoop) {
  const CsrGraph g = Social();
  Bitmap hubs(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InDegree(v) > 24) hubs.Set(v);
  }
  Rng rng(41);
  for (const size_t size : {0, 1, 9, 300, 3000}) {
    std::vector<VertexId> frontier(size);
    for (auto& v : frontier) {
      v = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    }
    double load = 0, hub_load = 0;
    for (const VertexId v : frontier) {
      load += g.OutDegree(v);
      if (hubs.Test(v)) hub_load += g.OutDegree(v);
    }
    const graph::FrontierCensus c = graph::CensusFrontier(g, frontier, &hubs);
    EXPECT_EQ(std::memcmp(&c.out_edges, &load, sizeof(double)), 0) << size;
    EXPECT_EQ(std::memcmp(&c.hub_out_edges, &hub_load, sizeof(double)), 0)
        << size;
    const auto got = c.features.ToArray();
    const auto want = OracleFeatures(g, frontier).ToArray();
    EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(got)), 0) << size;
    const graph::FrontierCensus no_hubs =
        graph::CensusFrontier(g, frontier, nullptr);
    EXPECT_EQ(no_hubs.hub_out_edges, 0.0);
  }
}

TEST(KernelCostTest, PositiveAndFinite) {
  const sim::DeviceParams dev;
  FrontierFeatures f;
  EXPECT_GT(sim::TrueEdgeCostNs(f, dev), 0.0);
  f.avg_out_degree = 1e6;
  f.gini = 0.99;
  f.out_degree_range = 1e7;
  f.avg_in_degree = 1e6;
  const double cost = sim::TrueEdgeCostNs(f, dev);
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 1e4) << "cost should stay in a sane ns range";
}

TEST(KernelCostTest, SkewIncreasesCost) {
  const sim::DeviceParams dev;
  FrontierFeatures regular;
  regular.avg_out_degree = 8;
  regular.avg_in_degree = 8;
  regular.entropy = 1.0;
  FrontierFeatures skewed = regular;
  skewed.gini = 0.8;
  skewed.out_degree_range = 5000;
  EXPECT_GT(sim::TrueEdgeCostNs(skewed, dev),
            sim::TrueEdgeCostNs(regular, dev));
}

TEST(KernelCostTest, HubTargetsIncreaseAtomicCost) {
  const sim::DeviceParams dev;
  FrontierFeatures base;
  base.avg_out_degree = 8;
  base.entropy = 0.9;
  FrontierFeatures hubby = base;
  hubby.avg_in_degree = 4096;
  EXPECT_GT(sim::TrueEdgeCostNs(hubby, dev), sim::TrueEdgeCostNs(base, dev));
}

TEST(KernelCostTest, ScalesWithDeviceBaseRate) {
  sim::DeviceParams fast;
  sim::DeviceParams slow;
  slow.base_edge_ns = fast.base_edge_ns * 3;
  FrontierFeatures f;
  f.avg_out_degree = 10;
  f.entropy = 0.8;
  EXPECT_GT(sim::TrueEdgeCostNs(f, slow), sim::TrueEdgeCostNs(f, fast));
}

}  // namespace
}  // namespace gum
