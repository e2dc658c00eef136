#include "server/snapshot.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace prefrep {

namespace {

std::atomic<uint64_t> g_next_snapshot_id{0};

void SortUnique(std::vector<int>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

std::string SnapshotDeltaInfo::ToString() const {
  std::string out = "delta from #" + std::to_string(parent_id) + ": +" +
                    std::to_string(inserted_tuples) + "/-" +
                    std::to_string(deleted_tuples) + " tuples, " +
                    std::to_string(touched_relations.size()) +
                    (touched_relations.size() == 1 ? " relation" : " relations") +
                    " touched, " + std::to_string(rebuilt_components) + "/" +
                    std::to_string(carried_components + rebuilt_components) +
                    " components rebuilt, domain " +
                    (domain_preserved ? "preserved" : "changed");
  return out;
}

Result<std::shared_ptr<const Snapshot>> Snapshot::Create(
    Database db, std::vector<FunctionalDependency> fds) {
  // Not make_shared: the constructor is private, and an error exit must not
  // leak a half-built snapshot (shared_ptr cleans up either way).
  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->db_ = std::make_unique<Database>(std::move(db));
  PREFREP_ASSIGN_OR_RETURN(
      snapshot->problem_,
      RepairProblem::Create(snapshot->db_.get(), std::move(fds)));
  snapshot->problem_.graph().decomposition();  // built now, not on a query
  PREFREP_ASSIGN_OR_RETURN(
      snapshot->conflict_index_,
      FdConflictIndex::Build(*snapshot->db_, snapshot->problem_.fds()));
  snapshot->census_ = ValueCensus::Of(*snapshot->db_);
  snapshot->id_ = g_next_snapshot_id.fetch_add(1, std::memory_order_relaxed) + 1;
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const Snapshot>> Snapshot::Derive(
    const std::shared_ptr<const Snapshot>& base, const DatabaseDelta& delta,
    ExecutionContext* context) {
  CHECK(base != nullptr);
  if (&delta.base() != &base->db()) {
    return Status::InvalidArgument(
        "delta was staged against a different database than the base "
        "snapshot's");
  }

  // 1. Post-delta database (untouched relations share storage).
  DeltaRemap remap;
  PREFREP_ASSIGN_OR_RETURN(Database new_db, delta.Apply(&remap, context));

  // 2. Active-domain census, folded forward.
  ValueCensus census = base->census_;
  const bool domain_preserved = census.Apply(delta);

  // 3. Conflict edges. Survivor-survivor edges persist (an FD conflict is
  // a property of the two tuples alone); the monotone remap keeps them
  // normalized and sorted. Fresh edges — anything incident to an inserted
  // tuple — come from probing the per-FD LHS index.
  //
  // Alongside, mark which identity-region vertices (id < first_shifted,
  // same tuple and id in parent and child) have a CHANGED neighborhood:
  // an old edge whose other endpoint is at or above first_shifted (deleted
  // or renumbered) rewrites the low endpoint's bitset, as does a fresh
  // edge. Everything unmarked shares its adjacency bitset with the parent
  // graph even when the tuple counts differ: a clean identity row has all
  // neighbors below first_shifted <= min(old_count, new_count), so reading
  // it zero-extended (insert-heavy) or truncated (delete-heavy) over the
  // child universe is exact (see ConflictGraph::DeriveFrom).
  const int adjacency_identity_limit = remap.first_shifted;
  DynamicBitset dirty_adjacency(remap.new_tuple_count);
  std::vector<std::pair<TupleId, TupleId>> surviving_edges;
  surviving_edges.reserve(base->graph().edges().size());
  size_t scanned = 0;
  for (const auto& [u, v] : base->graph().edges()) {
    if ((scanned++ & 4095) == 0 && context != nullptr && context->ShouldStop()) {
      return context->status();
    }
    TupleId nu = remap.old_to_new[u];
    TupleId nv = remap.old_to_new[v];
    if (nu >= 0 && nv >= 0) surviving_edges.emplace_back(nu, nv);
    // u < v, so only u can sit in the identity region when v shifted.
    if (v >= remap.first_shifted && u < remap.first_shifted) {
      dirty_adjacency.Set(u);
    }
  }
  std::vector<std::pair<TupleId, TupleId>> fresh_edges;
  PREFREP_ASSIGN_OR_RETURN(
      FdConflictIndex conflict_index,
      FdConflictIndex::Derive(base->conflict_index_, base->fds(), delta,
                              new_db, remap, &fresh_edges, context));
  // Disjoint by construction: a fresh edge has an inserted endpoint.
  std::vector<std::pair<TupleId, TupleId>> edges;
  edges.resize(surviving_edges.size() + fresh_edges.size());
  std::merge(surviving_edges.begin(), surviving_edges.end(),
             fresh_edges.begin(), fresh_edges.end(), edges.begin());

  // 4. Dirty region of the parent decomposition: components that lost a
  // member or gained/kept an endpoint of a fresh edge; plus, in new ids,
  // the vertices to re-BFS.
  const ComponentDecomposition& parent_decomposition = base->decomposition();
  std::vector<int> dirty_components;
  std::vector<int> dirty_vertices;
  for (TupleId old_id : delta.deletes()) {
    int component = parent_decomposition.ComponentOf(old_id);
    if (component >= 0) dirty_components.push_back(component);
  }
  // new id -> old id for survivors (-1 for inserts), to place fresh-edge
  // endpoints in the parent decomposition.
  std::vector<TupleId> new_to_old(remap.new_tuple_count, -1);
  for (TupleId old_id = 0; old_id < remap.old_tuple_count; ++old_id) {
    TupleId new_id = remap.old_to_new[old_id];
    if (new_id >= 0) new_to_old[new_id] = old_id;
  }
  for (const auto& [u, v] : fresh_edges) {
    for (TupleId endpoint : {u, v}) {
      dirty_vertices.push_back(endpoint);
      if (endpoint < remap.first_shifted) dirty_adjacency.Set(endpoint);
      TupleId old_id = new_to_old[endpoint];
      if (old_id < 0) continue;  // inserted: not in the parent decomposition
      int component = parent_decomposition.ComponentOf(old_id);
      if (component >= 0) dirty_components.push_back(component);
    }
  }
  SortUnique(&dirty_components);
  for (int component : dirty_components) {
    for (int old_vertex :
         parent_decomposition.components()[component].vertices) {
      TupleId new_vertex = remap.old_to_new[old_vertex];
      if (new_vertex >= 0) dirty_vertices.push_back(new_vertex);
    }
  }
  SortUnique(&dirty_vertices);
  if (context != nullptr && context->ShouldStop()) return context->status();

  // 5. Assemble: the successor graph adopts the seeded decomposition
  // before the problem takes it over.
  ConflictGraph graph = ConflictGraph::DeriveFrom(
      base->graph(), remap.new_tuple_count, std::move(edges),
      adjacency_identity_limit, dirty_adjacency);
  DecompositionDeltaSeed seed;
  seed.parent = &parent_decomposition;
  seed.old_to_new = &remap.old_to_new;
  seed.dirty_components = std::move(dirty_components);
  seed.dirty_vertices = std::move(dirty_vertices);
  graph.AdoptDecomposition(
      std::make_unique<ComponentDecomposition>(graph, seed));
  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->db_ = std::make_unique<Database>(std::move(new_db));
  snapshot->problem_ = RepairProblem::FromPrecomputedGraph(
      snapshot->db_.get(), base->fds(), std::move(graph));
  snapshot->conflict_index_ = std::move(conflict_index);
  snapshot->census_ = std::move(census);

  auto info = std::make_unique<SnapshotDeltaInfo>();
  info->parent_id = base->id();
  info->touched_relations = delta.TouchedRelations();
  info->dirty_parent_components = seed.dirty_components;
  info->first_shifted_id = remap.first_shifted;
  info->domain_preserved = domain_preserved;
  info->inserted_tuples = delta.insert_count();
  info->deleted_tuples = delta.delete_count();
  // Direct counts from the seeded decomposition: set arithmetic over
  // parent/child totals undercounts rebuilds when fresh edges merge
  // several dirty parent components into one child component.
  info->rebuilt_components =
      snapshot->decomposition().rebuilt_component_count();
  info->carried_components =
      snapshot->decomposition().carried_component_count();
  snapshot->delta_info_ = std::move(info);
  snapshot->id_ = g_next_snapshot_id.fetch_add(1, std::memory_order_relaxed) + 1;
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

std::string Snapshot::Describe() const {
  const ComponentDecomposition& d = decomposition();
  std::string out = "snapshot #" + std::to_string(id_) + ": " +
                    std::to_string(problem_.tuple_count()) + " tuples, " +
                    std::to_string(problem_.graph().edge_count()) +
                    " conflicts, " + std::to_string(d.components().size()) +
                    " components (" + std::to_string(d.isolated().Count()) +
                    " isolated tuples)";
  if (delta_info_ != nullptr) out += " [" + delta_info_->ToString() + "]";
  return out;
}

}  // namespace prefrep
