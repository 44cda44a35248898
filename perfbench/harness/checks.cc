#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/logging.h"

namespace perfbench {

namespace {

// Shared BFS/SSSP certificate; `step(d, w)` is the value an edge of weight
// w carries from a tail at d, computed exactly as the apps do.
template <typename T, typename Step>
std::string CheckPaths(const CsrGraph& g, VertexId source,
                       std::span<const T> dist, T unreached, Step step) {
  const VertexId n = g.num_vertices();
  if (dist.size() != n) return "value count differs from vertex count";
  if (source >= n || dist[source] != T{0}) return "source value is not 0";
  std::vector<bool> tight(n, false);
  for (VertexId u = 0; u < n; ++u) {
    if (dist[u] == unreached) continue;
    const auto targets = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t e = 0; e < targets.size(); ++e) {
      const VertexId v = targets[e];
      const T cand = step(dist[u], weights.empty() ? 1.0f : weights[e]);
      if (cand < dist[v]) {
        std::ostringstream os;
        os << "edge " << u << "->" << v << " relaxes " << dist[v] << " to "
           << cand;
        return os.str();
      }
      if (cand == dist[v]) tight[v] = true;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (v != source && dist[v] != unreached && !tight[v]) {
      return "vertex " + std::to_string(v) + " has no tight in-edge";
    }
  }
  return "";
}

VertexId Find(std::vector<VertexId>& parent, VertexId v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

}  // namespace

std::string CheckBfs(const CsrGraph& g, VertexId source,
                     std::span<const uint32_t> depth) {
  return CheckPaths<uint32_t>(
      g, source, depth, UINT32_MAX,
      [](uint32_t d, float) { return static_cast<uint32_t>(d + 1); });
}

std::string CheckSssp(const CsrGraph& g, VertexId source,
                      std::span<const float> dist) {
  return CheckPaths<float>(g, source, dist, std::numeric_limits<float>::max(),
                           [](float d, float w) { return d + w; });
}

uint64_t CountComponents(const CsrGraph& sym) {
  const VertexId n = sym.num_vertices();
  std::vector<VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), VertexId{0});
  uint64_t components = n;
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : sym.OutNeighbors(u)) {
      const VertexId a = Find(parent, u);
      const VertexId b = Find(parent, v);
      if (a != b) {
        parent[std::max(a, b)] = std::min(a, b);
        --components;
      }
    }
  }
  return components;
}

std::string CheckWcc(const CsrGraph& sym, std::span<const uint32_t> label,
                     uint64_t components) {
  const VertexId n = sym.num_vertices();
  if (label.size() != n) return "label count differs from vertex count";
  uint64_t roots = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (label[v] > v || label[label[v]] != label[v]) {
      return "vertex " + std::to_string(v) + " has a non-root label " +
             std::to_string(label[v]);
    }
    if (label[v] == v) ++roots;
    for (const VertexId u : sym.OutNeighbors(v)) {
      if (label[u] != label[v]) {
        return "edge " + std::to_string(v) + "-" + std::to_string(u) +
               " joins labels " + std::to_string(label[v]) + " and " +
               std::to_string(label[u]);
      }
    }
  }
  if (roots != components) {
    return std::to_string(roots) + " labels for " +
           std::to_string(components) + " components";
  }
  return "";
}

std::vector<double> PowerIteration(const CsrGraph& g, int rounds,
                                   double damping) {
  const VertexId n = g.num_vertices();
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> sum(n);
  for (int r = 0; r < rounds; ++r) {
    std::fill(sum.begin(), sum.end(), 0.0);
    for (VertexId u = 0; u < n; ++u) {
      const auto targets = g.OutNeighbors(u);
      if (targets.empty()) continue;
      const double share = rank[u] / static_cast<double>(targets.size());
      for (const VertexId v : targets) sum[v] += share;
    }
    for (VertexId v = 0; v < n; ++v) {
      rank[v] = (1.0 - damping) / n + damping * sum[v];
    }
  }
  return rank;
}

std::string CheckPageRank(std::span<const double> rank,
                          std::span<const double> expected) {
  if (rank.size() != expected.size()) return "rank count differs";
  double total = 0.0;
  for (size_t v = 0; v < rank.size(); ++v) {
    total += rank[v];
    if (!(std::abs(rank[v] - expected[v]) <=
          kPageRankTolerance * std::abs(expected[v]))) {
      std::ostringstream os;
      os.precision(17);
      os << "vertex " << v << " rank " << rank[v] << ", power iteration "
         << expected[v];
      return os.str();
    }
  }
  if (!(total <= 1.0 + kPageRankTolerance)) {
    return "ranks sum to " + std::to_string(total);
  }
  return "";
}

std::string CheckAStar(std::span<const float> astar, VertexId target,
                       std::span<const float> sssp) {
  if (target >= astar.size() || target >= sssp.size()) {
    return "target out of range";
  }
  if (astar[target] != sssp[target]) {
    std::ostringstream os;
    os << "dist[target] " << astar[target] << ", SSSP " << sssp[target];
    return os.str();
  }
  return "";
}

namespace {

float WeightAt(std::span<const float> weights, size_t i) {
  return weights.empty() ? 1.0f : weights[i];
}

// The weight of edge (u, v) in `g`, or nullopt if there is none.
std::optional<float> FindEdge(const CsrGraph& g, VertexId u, VertexId v) {
  const auto targets = g.OutNeighbors(u);
  const auto it = std::lower_bound(targets.begin(), targets.end(), v);
  if (it == targets.end() || *it != v) return std::nullopt;
  return WeightAt(g.OutWeights(u), static_cast<size_t>(it - targets.begin()));
}

}  // namespace

EpochEdits ApplyBatch(const CsrGraph& before,
                      std::span<const gum::graph::MutationEvent> batch) {
  using gum::graph::MutationKind;
  EpochEdits out;
  for (const auto& ev : batch) {
    GUM_CHECK(ev.kind != MutationKind::kDeleteVertex)
        << "the epoch check models edge events only";
    const std::pair<VertexId, VertexId> key{ev.u, ev.v};
    const auto known = out.edges.find(key);
    const bool present = known != out.edges.end()
                             ? known->second.has_value()
                             : FindEdge(before, ev.u, ev.v).has_value();
    if (ev.kind == MutationKind::kInsertEdge) {
      if (ev.u != ev.v && !present) {
        out.edges[key] = ev.weight;
        ++out.inserted;
      }
    } else if (present) {
      out.edges[key] = std::nullopt;
      ++out.deleted;
    }
  }
  return out;
}

std::string CheckEpoch(const CsrGraph& before, const EpochEdits& edits,
                       const CsrGraph& after, int reported_inserted,
                       int reported_deleted) {
  std::ostringstream os;
  const int64_t expected = static_cast<int64_t>(before.num_edges()) +
                           edits.inserted - edits.deleted;
  if (static_cast<int64_t>(after.num_edges()) != expected) {
    os << after.num_edges() << " edges, expected " << expected;
    return os.str();
  }
  if (reported_inserted != edits.inserted ||
      reported_deleted != edits.deleted) {
    os << "plane reports " << reported_inserted << " inserts and "
       << reported_deleted << " deletes, expected " << edits.inserted
       << " and " << edits.deleted;
    return os.str();
  }
  if (after.num_vertices() != before.num_vertices()) {
    return "vertex count changed";
  }
  auto edit = edits.edges.begin();
  std::vector<std::pair<VertexId, float>> want;
  std::vector<std::pair<VertexId, float>> got;
  const auto lists = [](const CsrGraph& g, VertexId v,
                        std::vector<std::pair<VertexId, float>>* out) {
    const auto targets = g.OutNeighbors(v);
    const auto weights = g.OutWeights(v);
    out->clear();
    for (size_t i = 0; i < targets.size(); ++i) {
      out->emplace_back(targets[i], WeightAt(weights, i));
    }
  };
  for (VertexId u = 0; u < before.num_vertices(); ++u) {
    lists(before, u, &want);
    lists(after, u, &got);
    for (; edit != edits.edges.end() && edit->first.first == u; ++edit) {
      const VertexId v = edit->first.second;
      std::erase_if(want, [v](const auto& e) { return e.first == v; });
      if (edit->second) want.emplace_back(v, *edit->second);
    }
    std::sort(want.begin(), want.end());
    if (want != got) {
      os << "out-edges of vertex " << u << " differ from the batch applied "
         << "to the previous epoch's graph";
      return os.str();
    }
  }
  return "";
}

std::vector<gum::graph::MutationEvent> DropOneEdit(
    const CsrGraph& before, std::span<const gum::graph::MutationEvent> batch) {
  std::vector<gum::graph::MutationEvent> out(batch.begin(), batch.end());
  for (const auto& [edge, state] : ApplyBatch(before, batch).edges) {
    if (state.has_value() !=
        FindEdge(before, edge.first, edge.second).has_value()) {
      std::erase_if(out, [&](const auto& ev) {
        return ev.u == edge.first && ev.v == edge.second;
      });
      break;
    }
  }
  return out;
}

std::vector<uint32_t> SplitComponent(const CsrGraph& sym,
                                     std::span<const uint32_t> label) {
  std::vector<uint32_t> out(label.begin(), label.end());
  for (VertexId v = 0; v < out.size(); ++v) {
    if (out[v] != v && sym.OutDegree(v) > 0) {
      out[v] = v;
      break;
    }
  }
  return out;
}

}  // namespace perfbench
