#include "priority/priority.h"

#include <algorithm>

#include "graph/components.h"
#include "graph/digraph.h"

namespace prefrep {

namespace {

Status ValidateArcs(const ConflictGraph& graph,
                    const std::vector<std::pair<int, int>>& arcs) {
  int n = graph.vertex_count();
  for (auto [x, y] : arcs) {
    if (x < 0 || x >= n || y < 0 || y >= n) {
      return Status::OutOfRange("priority arc (" + std::to_string(x) + "," +
                                std::to_string(y) + ") out of range");
    }
    if (!graph.HasEdge(x, y)) {
      return Status::InvalidArgument(
          "priority defined on non-conflicting tuples (" + std::to_string(x) +
          "," + std::to_string(y) + ")");
    }
  }
  // `arcs` is sorted (Create sorts it), so each reverse lookup is a
  // binary search and the check stays O(a log a).
  for (auto [x, y] : arcs) {
    if (std::binary_search(arcs.begin(), arcs.end(), std::make_pair(y, x))) {
      return Status::InvalidArgument("conflict edge (" + std::to_string(x) +
                                     "," + std::to_string(y) +
                                     ") oriented in both directions");
    }
  }
  if (!IsAcyclicDigraph(n, arcs)) {
    return Status::InvalidArgument("priority relation is cyclic");
  }
  return Status::Ok();
}

}  // namespace

Priority Priority::Empty(const ConflictGraph& graph) {
  Priority p;
  p.vertex_count_ = graph.vertex_count();
  p.dominators_.assign(p.vertex_count_, DynamicBitset(p.vertex_count_));
  p.dominated_by_.assign(p.vertex_count_, DynamicBitset(p.vertex_count_));
  return p;
}

Result<Priority> Priority::Create(const ConflictGraph& graph,
                                  std::vector<std::pair<int, int>> arcs) {
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  PREFREP_RETURN_IF_ERROR(ValidateArcs(graph, arcs));
  Priority p = Empty(graph);
  p.arcs_ = std::move(arcs);
  for (auto [x, y] : p.arcs_) {
    p.dominators_[y].Set(x);
    p.dominated_by_[x].Set(y);
  }
  return p;
}

Result<Priority> Priority::FromBinaryRelation(
    const ConflictGraph& graph,
    const std::vector<std::pair<int, int>>& arcs) {
  int n = graph.vertex_count();
  for (auto [x, y] : arcs) {
    if (x < 0 || x >= n || y < 0 || y >= n) {
      return Status::OutOfRange("relation pair (" + std::to_string(x) + "," +
                                std::to_string(y) + ") out of range");
    }
  }
  if (!IsAcyclicDigraph(n, arcs)) {
    return Status::InvalidArgument("binary relation is cyclic");
  }
  std::vector<std::pair<int, int>> kept;
  for (auto [x, y] : arcs) {
    if (graph.HasEdge(x, y)) kept.emplace_back(x, y);
  }
  return Create(graph, std::move(kept));
}

Priority Priority::FromRanking(const ConflictGraph& graph,
                               const std::vector<int64_t>& ranks,
                               bool higher_wins) {
  CHECK_EQ(static_cast<int>(ranks.size()), graph.vertex_count());
  std::vector<std::pair<int, int>> arcs;
  for (auto [u, v] : graph.edges()) {
    if (ranks[u] == ranks[v]) continue;
    bool u_wins = higher_wins ? ranks[u] > ranks[v] : ranks[u] < ranks[v];
    if (u_wins) {
      arcs.emplace_back(u, v);
    } else {
      arcs.emplace_back(v, u);
    }
  }
  auto result = Create(graph, std::move(arcs));
  CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

bool Priority::IsTotalFor(const ConflictGraph& graph) const {
  for (auto [u, v] : graph.edges()) {
    if (!Dominates(u, v) && !Dominates(v, u)) return false;
  }
  return true;
}

bool Priority::IsExtendedBy(const Priority& other) const {
  if (other.vertex_count_ != vertex_count_) return false;
  return std::includes(other.arcs_.begin(), other.arcs_.end(), arcs_.begin(),
                       arcs_.end());
}

Result<Priority> Priority::Extend(
    const ConflictGraph& graph,
    const std::vector<std::pair<int, int>>& extra_arcs) const {
  std::vector<std::pair<int, int>> all = arcs_;
  all.insert(all.end(), extra_arcs.begin(), extra_arcs.end());
  return Create(graph, std::move(all));
}

std::string Priority::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < arcs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(arcs_[i].first) + "≻" +
           std::to_string(arcs_[i].second);
  }
  out += "}";
  return out;
}

DynamicBitset Winnow(const Priority& priority, const DynamicBitset& r) {
  DynamicBitset result(r.size());
  WinnowInto(priority, r, result);
  return result;
}

void WinnowInto(const Priority& priority, const DynamicBitset& r,
                DynamicBitset& out) {
  CHECK_EQ(r.size(), priority.vertex_count());
  CHECK(&out != &r);
  out = r;
  ForEachSetBit(r, [&](int t) {
    if (priority.DominatorsOf(t).Intersects(r)) out.Reset(t);
  });
}

std::vector<Priority> ProjectPriorities(
    const ComponentDecomposition& decomposition, const Priority& priority) {
  CHECK_EQ(priority.vertex_count(), decomposition.vertex_count());
  // Bucket the arcs by component in one pass over the arc list.
  size_t component_count = decomposition.components().size();
  std::vector<std::vector<std::pair<int, int>>> arcs(component_count);
  for (auto [x, y] : priority.arcs()) {
    int c = decomposition.ComponentOf(x);
    DCHECK(c == decomposition.ComponentOf(y))
        << "priority arc across components";
    DCHECK(c >= 0) << "priority arc on an isolated vertex";
    arcs[c].emplace_back(decomposition.LocalIndex(x),
                         decomposition.LocalIndex(y));
  }
  std::vector<Priority> projected;
  projected.reserve(component_count);
  for (size_t c = 0; c < component_count; ++c) {
    // Restricting an acyclic conflict-edge orientation to an induced
    // subgraph keeps it valid, so Create cannot fail here.
    auto local = Priority::Create(decomposition.components()[c].graph,
                                  std::move(arcs[c]));
    CHECK(local.ok()) << local.status().ToString();
    projected.push_back(*std::move(local));
  }
  return projected;
}

}  // namespace prefrep
