// Concurrent callers of graph::ExtractFrontierFeatures: its scratch is
// per-thread, so threads extracting features at once (the async engine and
// baselines call it from pool threads) must neither race nor perturb each
// other's results. Runs in the ThreadSanitizer suite.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "graph/frontier_features.h"
#include "graph/generators.h"

namespace gum {
namespace {

using graph::CsrGraph;
using graph::VertexId;

TEST(FeatureConcurrencyTest, ConcurrentCallersMatchSerialResults) {
  auto g_or = CsrGraph::FromEdgeList(
      graph::Rmat({.scale = 11, .edge_factor = 8, .seed = 3}));
  ASSERT_TRUE(g_or.ok());
  const CsrGraph g = std::move(g_or).value();

  // Frontiers of alternating sizes, so each thread's scratch grows and
  // shrinks between calls.
  Rng rng(7);
  std::vector<std::vector<VertexId>> frontiers;
  for (const size_t size : {5000, 3, 800, 1, 2000, 40, 0, 1500}) {
    std::vector<VertexId> f(size);
    for (auto& v : f) {
      v = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    }
    frontiers.push_back(std::move(f));
  }
  std::vector<graph::FrontierFeatures> serial;
  for (const auto& f : frontiers) {
    serial.push_back(graph::ExtractFrontierFeatures(g, f));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t k = 0; k < frontiers.size(); ++k) {
          // Each thread walks the frontiers from a different offset.
          const size_t idx = (k + t) % frontiers.size();
          const auto got =
              graph::ExtractFrontierFeatures(g, frontiers[idx]).ToArray();
          const auto want = serial[idx].ToArray();
          if (std::memcmp(got.data(), want.data(), sizeof(got)) != 0) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace gum
