#include "graph/frontier_features.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gum::graph {

namespace {

// Per-thread buffers kept at their high-water size: the census calls this
// once per fragment per superstep, and callers may run concurrently.
struct FeatureScratch {
  std::vector<uint32_t> degrees;  // frontier out-degrees, frontier order
  std::vector<uint32_t> sorted;   // sort fallback for wide degree ranges
  std::vector<uint32_t> count;    // histogram over [out_min, out_max]
  std::vector<double> p;          // d / total per present degree
  std::vector<double> log_p;      // std::log(p) per present degree
};

thread_local FeatureScratch t_scratch;

// The histogram is walked bucket by bucket, so it beats sorting only while
// the degree range stays within a small multiple of the frontier size.
bool UseHistogram(uint32_t range, size_t frontier_size) {
  return range <= 4 * frontier_size + 256;
}

}  // namespace

// Gini and entropy reproduce graph::GiniCoefficient / graph::DegreeEntropy
// (graph/stats.cc) over the frontier out-degrees operation for operation:
// the histogram walk visits degrees in the ascending order of the sorted
// loop, and the entropy still sums `p * log(p)` in frontier order with the
// same `p`, so every bit matches (tests/features_test.cc).
FrontierCensus CensusFrontier(const CsrGraph& g,
                              std::span<const VertexId> frontier,
                              const Bitmap* hubs) {
  FrontierCensus c;
  if (frontier.empty()) return c;
  FrontierFeatures& f = c.features;
  FeatureScratch& s = t_scratch;

  double in_sum = 0, out_sum = 0, hub_sum = 0;
  uint32_t in_min = std::numeric_limits<uint32_t>::max(), in_max = 0;
  uint32_t out_min = std::numeric_limits<uint32_t>::max(), out_max = 0;
  s.degrees.resize(frontier.size());
  const bool has_in = g.has_in_csr();
  for (size_t k = 0; k < frontier.size(); ++k) {
    const VertexId v = frontier[k];
    const uint32_t od = g.OutDegree(v);
    const uint32_t id = has_in ? g.InDegree(v) : od;
    out_sum += od;
    in_sum += id;
    if (hubs != nullptr && hubs->Test(v)) hub_sum += od;
    out_min = std::min(out_min, od);
    out_max = std::max(out_max, od);
    in_min = std::min(in_min, id);
    in_max = std::max(in_max, id);
    s.degrees[k] = od;
  }
  c.out_edges = out_sum;
  c.hub_out_edges = hub_sum;
  const size_t size = frontier.size();
  const double n = static_cast<double>(size);
  f.avg_in_degree = in_sum / n;
  f.avg_out_degree = out_sum / n;
  f.in_degree_range = static_cast<double>(in_max - in_min);
  f.out_degree_range = static_cast<double>(out_max - out_min);

  // Gini: sum (rank * degree) over the degrees in ascending order.
  double weighted_sum = 0.0, gini_total = 0.0;
  size_t rank = 0;
  const auto add_ranked = [&](uint32_t d) {
    const double x = d;
    weighted_sum += (static_cast<double>(rank) + 1.0) * x;
    gini_total += x;
    ++rank;
  };
  const uint32_t range = out_max - out_min;
  const bool histogram = UseHistogram(range, size);
  if (histogram) {
    s.count.assign(static_cast<size_t>(range) + 1, 0);
    for (const uint32_t d : s.degrees) ++s.count[d - out_min];
    for (uint32_t b = 0; b <= range; ++b) {
      for (uint32_t k = s.count[b]; k > 0; --k) add_ranked(out_min + b);
    }
  } else {
    s.sorted.assign(s.degrees.begin(), s.degrees.end());
    std::sort(s.sorted.begin(), s.sorted.end());
    for (const uint32_t d : s.sorted) add_ranked(d);
  }
  if (gini_total > 0.0) {
    f.gini = (2.0 * weighted_sum) / (n * gini_total) - (n + 1.0) / n;
  }

  // Entropy of the normalized degrees, summed in frontier order; the
  // histogram path takes one std::log per distinct degree.
  const double total = out_sum;
  if (size <= 1 || total <= 0.0) return c;
  double h = 0.0;
  if (histogram) {
    s.p.resize(static_cast<size_t>(range) + 1);
    s.log_p.resize(static_cast<size_t>(range) + 1);
    for (uint32_t b = 0; b <= range; ++b) {
      if (s.count[b] == 0 || out_min + b == 0) continue;
      s.p[b] = static_cast<double>(out_min + b) / total;
      s.log_p[b] = std::log(s.p[b]);
    }
    for (const uint32_t d : s.degrees) {
      if (d == 0) continue;
      const double p = s.p[d - out_min];
      const double log_p = s.log_p[d - out_min];
      h -= p * log_p;
    }
  } else {
    for (const uint32_t d : s.degrees) {
      if (d == 0) continue;
      const double p = static_cast<double>(d) / total;
      const double log_p = std::log(p);
      h -= p * log_p;
    }
  }
  f.entropy = h / std::log(n);
  return c;
}

FrontierFeatures ExtractFrontierFeatures(const CsrGraph& g,
                                         std::span<const VertexId> frontier) {
  return CensusFrontier(g, frontier, nullptr).features;
}

}  // namespace gum::graph
