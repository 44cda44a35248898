// Output checks computed apart from the engine. Each returns an empty
// string when the output passes and a one-line reason when it does not;
// none of them calls into the engine or its reference implementations.
//
//  * BFS / SSSP — an optimality certificate against the graph the query
//    ran on: the source is 0, no edge can relax further, and every other
//    reached vertex has a tight in-edge. Together these force every value
//    to equal the minimum path sum (in the engine's own float arithmetic),
//    so the certificate accepts exactly one output.
//  * WCC — labels agree across every edge, label[label[v]] == label[v] <=
//    v, and the number of components matches a union-find count.
//  * PageRank — matches a 20-round power iteration within a relative
//    tolerance of kPageRankTolerance, and the ranks sum to at most 1.
//  * A* — dist[target] equals the certificate-checked SSSP distance.
//  * Mutations — the benchmark applies each epoch's batch to the previous
//    epoch's flat graph itself, with the mutation plane's documented set
//    semantics; the new flat graph must hold exactly the resulting edges
//    and weights, its edge count must be the previous count + inserted -
//    deleted (counted here), and the plane must report those counts.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/mutation.h"

namespace perfbench {

using gum::graph::CsrGraph;
using gum::graph::VertexId;

inline constexpr double kPageRankTolerance = 1e-9;

std::string CheckBfs(const CsrGraph& g, VertexId source,
                     std::span<const uint32_t> depth);
std::string CheckSssp(const CsrGraph& g, VertexId source,
                      std::span<const float> dist);

// Components of `sym` (a symmetrized graph) by union-find.
uint64_t CountComponents(const CsrGraph& sym);
std::string CheckWcc(const CsrGraph& sym, std::span<const uint32_t> label,
                     uint64_t components);

// `rounds` rounds of synchronous power iteration from 1/n, dangling mass
// dropped.
std::vector<double> PowerIteration(const CsrGraph& g, int rounds,
                                   double damping);
std::string CheckPageRank(std::span<const double> rank,
                          std::span<const double> expected);

std::string CheckAStar(std::span<const float> astar, VertexId target,
                       std::span<const float> sssp);

// One epoch's batch applied to a flat graph: the final state of every
// edge the batch touched (a weight, or nullopt for absent), the effective
// inserts and deletes.
struct EpochEdits {
  std::map<std::pair<VertexId, VertexId>, std::optional<float>> edges;
  int inserted = 0;
  int deleted = 0;
};
// Events apply in order; inserting a present edge or a self loop and
// deleting an absent edge are no-ops (edge inserts and deletes only).
EpochEdits ApplyBatch(const CsrGraph& before,
                      std::span<const gum::graph::MutationEvent> batch);
std::string CheckEpoch(const CsrGraph& before, const EpochEdits& edits,
                       const CsrGraph& after, int reported_inserted,
                       int reported_deleted);

// Corruptions for the checker self-test: each returns a copy of `values`
// that a sound check must reject.
// A reached non-source vertex's value, increased by one.
template <typename T>
std::vector<T> BumpOne(std::span<const T> values, VertexId source,
                       T unreached) {
  std::vector<T> out(values.begin(), values.end());
  for (size_t v = out.size(); v-- > 0;) {
    if (v != source && out[v] != unreached) {
      out[v] = static_cast<T>(out[v] + 1);
      break;
    }
  }
  return out;
}
// `batch` without any event on the first edge whose presence the batch
// changes, as if the mutation plane had lost that update.
std::vector<gum::graph::MutationEvent> DropOneEdit(
    const CsrGraph& before, std::span<const gum::graph::MutationEvent> batch);
// One non-root vertex relabelled as its own component root.
std::vector<uint32_t> SplitComponent(const CsrGraph& sym,
                                     std::span<const uint32_t> label);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
