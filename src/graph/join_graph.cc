#include "graph/join_graph.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace autobi {

double JoinGraph::ClampProbability(double p) {
  return std::min(1.0 - 1e-9, std::max(1e-9, p));
}

namespace {

uint64_t HashSourceKey(int src, const std::vector<int>& cols) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h * 0xBF58476D1CE4E5B9ULL;
  };
  uint64_t h = mix(0, uint64_t(uint32_t(src)));
  for (int c : cols) h = mix(h, uint64_t(uint32_t(c)));
  return mix(h, cols.size());
}

}  // namespace

int JoinGraph::InternSourceKey(int src, const std::vector<int>& cols) {
  const uint64_t hash = HashSourceKey(src, cols);
  auto it = std::lower_bound(group_index_.begin(), group_index_.end(),
                             std::make_pair(hash, 0));
  for (; it != group_index_.end() && it->first == hash; ++it) {
    const JoinEdge& opener = edges_[size_t(group_edge_[size_t(it->second)])];
    if (opener.src == src && opener.src_columns == cols) return it->second;
  }
  // `it` is past every entry with this hash, so the index stays sorted.
  const int group = int(group_edge_.size());
  group_edge_.push_back(int(edges_.size()));  // The edge being added.
  group_index_.insert(it, {hash, group});
  return group;
}

int JoinGraph::AddEdge(int src, int dst, std::vector<int> src_columns,
                       std::vector<int> dst_columns, double probability,
                       bool one_to_one, int pair_id) {
  // invariant: graph builders only add edges between existing vertices.
  AUTOBI_CHECK(src >= 0 && src < num_vertices_);
  AUTOBI_CHECK(dst >= 0 && dst < num_vertices_);
  AUTOBI_CHECK(src != dst);
  JoinEdge e;
  e.id = static_cast<int>(edges_.size());
  e.src = src;
  e.dst = dst;
  e.src_columns = std::move(src_columns);
  e.dst_columns = std::move(dst_columns);
  e.probability = ClampProbability(probability);
  e.weight = -std::log(e.probability);
  e.one_to_one = one_to_one;
  e.pair_id = pair_id;
  e.source_key = InternSourceKey(src, e.src_columns);
  edges_.push_back(std::move(e));
  return edges_.back().id;
}

bool JoinGraph::StructurallyEqual(const JoinGraph& other) const {
  if (num_vertices_ != other.num_vertices_) return false;
  if (edges_.size() != other.edges_.size()) return false;
  for (size_t i = 0; i < edges_.size(); ++i) {
    const JoinEdge& a = edges_[i];
    const JoinEdge& b = other.edges_[i];
    if (a.id != b.id || a.src != b.src || a.dst != b.dst ||
        a.src_columns != b.src_columns || a.dst_columns != b.dst_columns ||
        a.probability != b.probability || a.weight != b.weight ||
        a.one_to_one != b.one_to_one || a.pair_id != b.pair_id ||
        a.source_key != b.source_key) {
      return false;
    }
  }
  return true;
}

int JoinGraph::AddOneToOneEdge(int a, int b, std::vector<int> a_columns,
                               std::vector<int> b_columns,
                               double probability) {
  int pair = next_pair_id_++;
  AddEdge(a, b, a_columns, b_columns, probability, /*one_to_one=*/true, pair);
  AddEdge(b, a, std::move(b_columns), std::move(a_columns), probability,
          /*one_to_one=*/true, pair);
  return pair;
}

}  // namespace autobi
