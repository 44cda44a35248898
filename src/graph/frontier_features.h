// Per-frontier characteristics (paper Table I).
//
// These six metric variables describe the computational and data-access
// behaviour of processing the current frontier of a fragment:
//   avg in/out degree  — how many neighbors each frontier vertex touches
//   in/out degree range — diversity of edges (intra-kernel imbalance)
//   Gini coefficient    — skew of the frontier's degree distribution
//   entropy             — spread of the frontier's degree distribution
// They are the inputs of both the substrate's ground-truth kernel cost
// function (src/sim/kernel_cost.*) and the learned cost model (src/ml/*).

#ifndef GUM_GRAPH_FRONTIER_FEATURES_H_
#define GUM_GRAPH_FRONTIER_FEATURES_H_

#include <array>
#include <span>
#include <vector>

#include "common/bitmap.h"
#include "graph/csr.h"

namespace gum::graph {

struct FrontierFeatures {
  static constexpr int kNumFeatures = 6;

  double avg_in_degree = 0;
  double avg_out_degree = 0;
  double in_degree_range = 0;
  double out_degree_range = 0;
  double gini = 0;
  double entropy = 0;

  std::array<double, kNumFeatures> ToArray() const {
    return {avg_in_degree, avg_out_degree, in_degree_range, out_degree_range,
            gini, entropy};
  }
};

// Extracts Table-I features for the given frontier (a set of vertex ids of
// g). Cost: one scan over the frontier (paper §VI-C: "features can be
// collected with a scan over active vertices rather than edges"), plus a
// degree histogram (or a sort, when the degree range dwarfs the frontier)
// for the Gini coefficient. Allocation-free once warm: the scratch is
// per-thread and reused, so concurrent callers are safe.
FrontierFeatures ExtractFrontierFeatures(const CsrGraph& g,
                                         std::span<const VertexId> frontier);

// The engine's per-fragment census (Step 1): the features plus the
// frontier's out-edge load, all from the same scan.
struct FrontierCensus {
  FrontierFeatures features;
  double out_edges = 0;      // sum of frontier out-degrees, frontier order
  double hub_out_edges = 0;  // the part of out_edges on vertices in `hubs`
};

// `hubs` (may be null) marks the hub-cached vertices.
FrontierCensus CensusFrontier(const CsrGraph& g,
                              std::span<const VertexId> frontier,
                              const Bitmap* hubs);

}  // namespace gum::graph

#endif  // GUM_GRAPH_FRONTIER_FEATURES_H_
