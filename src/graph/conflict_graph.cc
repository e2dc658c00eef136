#include "graph/conflict_graph.h"

#include <algorithm>

namespace prefrep {

std::vector<std::shared_ptr<const DynamicBitset>> ConflictGraph::BuildAdjacency(
    int vertex_count, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::shared_ptr<DynamicBitset>> building;
  building.reserve(vertex_count);
  for (int v = 0; v < vertex_count; ++v) {
    building.push_back(std::make_shared<DynamicBitset>(vertex_count));
  }
  for (auto [u, v] : edges) {
    building[u]->Set(v);
    building[v]->Set(u);
  }
  std::vector<std::shared_ptr<const DynamicBitset>> adjacency(vertex_count);
  for (int v = 0; v < vertex_count; ++v) adjacency[v] = std::move(building[v]);
  return adjacency;
}

ConflictGraph::ConflictGraph(int vertex_count,
                             const std::vector<std::pair<int, int>>& edges)
    : vertex_count_(vertex_count) {
  CHECK_GE(vertex_count, 0);
  std::vector<std::pair<int, int>> canonical;
  canonical.reserve(edges.size());
  for (auto [u, v] : edges) {
    CHECK(u >= 0 && u < vertex_count && v >= 0 && v < vertex_count)
        << "edge (" << u << "," << v << ") out of range";
    CHECK_NE(u, v) << "self-loop at vertex " << u;
    if (u > v) std::swap(u, v);
    canonical.emplace_back(u, v);
  }
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  adjacency_ = BuildAdjacency(vertex_count, canonical);
  edges_ = std::make_shared<const std::vector<std::pair<int, int>>>(
      std::move(canonical));
}

ConflictGraph ConflictGraph::FromSortedUniqueEdges(
    int vertex_count, std::vector<std::pair<int, int>> edges) {
  CHECK_GE(vertex_count, 0);
  ConflictGraph graph;
  graph.vertex_count_ = vertex_count;
  for (size_t i = 0; i < edges.size(); ++i) {
    auto [u, v] = edges[i];
    DCHECK(u >= 0 && u < v && v < vertex_count)
        << "edge (" << u << "," << v << ") not normalized or out of range";
    DCHECK(i == 0 || edges[i - 1] < edges[i])
        << "edges not strictly ascending at index " << i;
  }
  graph.adjacency_ = BuildAdjacency(vertex_count, edges);
  graph.edges_ = std::make_shared<const std::vector<std::pair<int, int>>>(
      std::move(edges));
  return graph;
}

ConflictGraph ConflictGraph::DeriveFrom(const ConflictGraph& parent,
                                        int vertex_count,
                                        std::vector<std::pair<int, int>> edges,
                                        int identity_limit,
                                        const DynamicBitset& dirty) {
  CHECK_GE(vertex_count, 0);
  CHECK_GE(identity_limit, 0);
  if (identity_limit > 0) {
    // Sharing a parent bitset reinterprets it over the new universe
    // (zero-extended or truncated — see the header); the identity region
    // itself must exist in both universes.
    CHECK_LE(identity_limit, vertex_count);
    CHECK_LE(identity_limit, parent.vertex_count_);
    CHECK_EQ(dirty.size(), vertex_count);
  }
  ConflictGraph graph;
  graph.vertex_count_ = vertex_count;
  graph.adjacency_.resize(vertex_count);
  // Fresh (still mutable) bitsets for the dirty region; shared rows for the
  // clean identity region.
  std::vector<std::shared_ptr<DynamicBitset>> fresh(vertex_count);
  for (int v = 0; v < vertex_count; ++v) {
    if (v < identity_limit && !dirty.Test(v)) {
      graph.adjacency_[v] = parent.adjacency_[v];
    } else {
      fresh[v] = std::make_shared<DynamicBitset>(vertex_count);
      graph.adjacency_[v] = fresh[v];
    }
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    auto [u, v] = edges[i];
    DCHECK(u >= 0 && u < v && v < vertex_count)
        << "edge (" << u << "," << v << ") not normalized or out of range";
    DCHECK(i == 0 || edges[i - 1] < edges[i])
        << "edges not strictly ascending at index " << i;
    if (fresh[u] != nullptr) fresh[u]->Set(v);
    if (fresh[v] != nullptr) fresh[v]->Set(u);
  }
  graph.edges_ = std::make_shared<const std::vector<std::pair<int, int>>>(
      std::move(edges));
  return graph;
}

DynamicBitset ConflictGraph::Vicinity(int v) const {
  // Not a plain copy: a ragged row would hand the caller a set over the
  // wrong universe. Normalize to vertex_count() via the ragged-tolerant
  // OR (exact — row bits never reach past min(sizes)).
  DynamicBitset out(vertex_count_);
  out |= *adjacency_[v];
  out.Set(v);
  return out;
}

DynamicBitset ConflictGraph::NeighborsOfSet(const DynamicBitset& s) const {
  DynamicBitset out(vertex_count_);
  NeighborsOfSetInto(s, out);
  return out;
}

void ConflictGraph::NeighborsOfSetInto(const DynamicBitset& s,
                                       DynamicBitset& out) const {
  CHECK_EQ(s.size(), vertex_count_);
  CHECK_EQ(out.size(), vertex_count_);
  out.Clear();
  ForEachSetBit(s, [&](int v) { out |= *adjacency_[v]; });
}

bool ConflictGraph::IsIndependent(const DynamicBitset& s) const {
  CHECK_EQ(s.size(), vertex_count_);
  bool independent = true;
  ForEachSetBit(s, [&](int v) {
    if (independent && adjacency_[v]->Intersects(s)) independent = false;
  });
  return independent;
}

bool ConflictGraph::IsMaximalIndependent(const DynamicBitset& s) const {
  if (!IsIndependent(s)) return false;
  // Every outside vertex must be blocked by (adjacent to) some member.
  DynamicBitset covered = NeighborsOfSet(s) | s;
  return covered.Count() == vertex_count_;
}

}  // namespace prefrep
