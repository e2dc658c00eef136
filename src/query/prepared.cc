#include "query/prepared.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace prefrep {

namespace {

// FNV-1a-style combination of O(1) value hashes; must hash a stored tuple
// and a resolved term buffer identically.
uint64_t HashValues(const Value* values, size_t count) {
  Value::Hash vh;
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < count; ++i) {
    h ^= vh(values[i]);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

// Walks the validated AST once, numbering variables into frame slots
// (lexically scoped: a quantifier shadowing an outer variable gets a fresh
// slot), then derives per-slot types and domains from the compiled nodes.
class PreparedQuery::Compiler {
 public:
  Compiler(const Database& db, const Query& root) : db_(db), root_(root) {}

  Status Run(PreparedQuery& out) {
    PREFREP_RETURN_IF_ERROR(ValidateQuery(db_, root_));
    PREFREP_ASSIGN_OR_RETURN(int root_index, CompileNode(root_));
    CHECK_EQ(root_index, 0);
    InferSlotTypes();
    BuildDomains();
    BuildTupleIndexes();

    out.db_ = &db_;
    out.nodes_ = std::move(nodes_);
    out.domains_ = std::move(domains_);
    out.indexes_ = std::move(indexes_);
    out.frame_.assign(slot_count(), Value());
    // Free variables sorted by name — the answer column order.
    std::vector<std::pair<std::string, int>> free_vars(
        free_slots_by_name_.begin(), free_slots_by_name_.end());
    std::sort(free_vars.begin(), free_vars.end());
    for (auto& [name, slot] : free_vars) {
      out.free_variables_.push_back(name);
      out.free_slots_.push_back(slot);
    }
    return Status::Ok();
  }

 private:
  // Per-slot domain compatibility, narrowed by a static pass (mirrors the
  // reference evaluator: conflicting uses narrow to the empty domain,
  // which is sound).
  struct SlotType {
    bool may_be_name = true;
    bool may_be_number = true;
  };

  int slot_count() const { return static_cast<int>(slot_types_.size()); }

  int NewSlot() {
    slot_types_.emplace_back();
    return slot_count() - 1;
  }

  // Slot of a variable occurrence: innermost binder, or a (shared) free
  // slot when no quantifier binds it.
  int SlotOf(const std::string& name) {
    auto it = scopes_.find(name);
    if (it != scopes_.end() && !it->second.empty()) return it->second.back();
    auto [free_it, inserted] = free_slots_by_name_.try_emplace(name, -1);
    if (inserted) free_it->second = NewSlot();
    return free_it->second;
  }

  CompiledTerm CompileTerm(const Term& t) {
    CompiledTerm ct;
    if (t.is_variable()) {
      ct.slot = SlotOf(t.variable);
    } else {
      ct.constant = t.constant;
    }
    return ct;
  }

  Result<int> CompileNode(const Query& q) {
    int index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    Node node;
    node.kind = q.kind;
    switch (q.kind) {
      case QueryKind::kTrue:
      case QueryKind::kFalse:
        break;
      case QueryKind::kAtom: {
        PREFREP_ASSIGN_OR_RETURN(node.relation,
                                 db_.RelationIndex(q.relation));
        node.terms.reserve(q.terms.size());
        for (const Term& t : q.terms) node.terms.push_back(CompileTerm(t));
        break;
      }
      case QueryKind::kComparison:
        node.op = q.op;
        node.lhs = CompileTerm(q.lhs);
        node.rhs = CompileTerm(q.rhs);
        break;
      case QueryKind::kNot:
      case QueryKind::kAnd:
      case QueryKind::kOr:
        for (const auto& child : q.children) {
          PREFREP_ASSIGN_OR_RETURN(int child_index, CompileNode(*child));
          node.children.push_back(child_index);
        }
        break;
      case QueryKind::kExists:
      case QueryKind::kForAll: {
        node.slots.reserve(q.bound_vars.size());
        for (const std::string& var : q.bound_vars) {
          int slot = NewSlot();
          scopes_[var].push_back(slot);
          node.slots.push_back(slot);
        }
        PREFREP_ASSIGN_OR_RETURN(int child_index,
                                 CompileNode(*q.children[0]));
        node.children.push_back(child_index);
        for (const std::string& var : q.bound_vars) {
          scopes_[var].pop_back();
        }
        break;
      }
    }
    nodes_[index] = std::move(node);
    return index;
  }

  void NarrowToDomainOf(const Value& constant, int slot) {
    if (constant.is_name()) {
      slot_types_[slot].may_be_number = false;
    } else {
      slot_types_[slot].may_be_name = false;
    }
  }

  // Mirrors the reference evaluator's InferTypes, but over compiled slots
  // (so shadowed binders are typed independently).
  void InferSlotTypes() {
    for (const Node& n : nodes_) {
      switch (n.kind) {
        case QueryKind::kAtom: {
          const Schema& schema = db_.relations()[n.relation].schema();
          for (size_t i = 0; i < n.terms.size(); ++i) {
            if (n.terms[i].slot < 0) continue;
            if (schema.attribute(static_cast<int>(i)).type ==
                ValueType::kName) {
              slot_types_[n.terms[i].slot].may_be_number = false;
            } else {
              slot_types_[n.terms[i].slot].may_be_name = false;
            }
          }
          break;
        }
        case QueryKind::kComparison: {
          bool is_order =
              n.op != ComparisonOp::kEq && n.op != ComparisonOp::kNe;
          if (is_order) {
            for (const CompiledTerm* t : {&n.lhs, &n.rhs}) {
              if (t->slot >= 0) slot_types_[t->slot].may_be_name = false;
            }
          } else if (n.op == ComparisonOp::kEq) {
            // Equality with a constant narrows to the constant's domain.
            if (n.lhs.slot >= 0 && n.rhs.slot < 0) {
              NarrowToDomainOf(n.rhs.constant, n.lhs.slot);
            }
            if (n.rhs.slot >= 0 && n.lhs.slot < 0) {
              NarrowToDomainOf(n.lhs.constant, n.rhs.slot);
            }
          }
          break;
        }
        default:
          break;
      }
    }
  }

  // Active domain of the full database plus query constants, split by
  // type; each slot then gets the subset its inferred type allows (names
  // first, mirroring the reference evaluator's enumeration order).
  void BuildDomains() {
    std::unordered_set<Value, Value::Hash> seen;
    std::vector<Value> names;
    std::vector<Value> numbers;
    auto add = [&](const Value& v) {
      if (!seen.insert(v).second) return;
      (v.is_name() ? names : numbers).push_back(v);
    };
    for (const Relation& rel : db_.relations()) {
      for (const Tuple& t : rel.tuples()) {
        for (const Value& v : t.values()) add(v);
      }
    }
    for (const Node& n : nodes_) {
      if (n.kind == QueryKind::kAtom) {
        for (const CompiledTerm& t : n.terms) {
          if (t.slot < 0) add(t.constant);
        }
      } else if (n.kind == QueryKind::kComparison) {
        if (n.lhs.slot < 0) add(n.lhs.constant);
        if (n.rhs.slot < 0) add(n.rhs.constant);
      }
    }
    std::sort(names.begin(), names.end());
    std::sort(numbers.begin(), numbers.end());

    domains_.resize(slot_types_.size());
    for (int slot = 0; slot < slot_count(); ++slot) {
      std::vector<Value>& domain = domains_[slot];
      if (slot_types_[slot].may_be_name) {
        domain.insert(domain.end(), names.begin(), names.end());
      }
      if (slot_types_[slot].may_be_number) {
        domain.insert(domain.end(), numbers.begin(), numbers.end());
      }
    }
  }

  // Exact-tuple indexes for the relations the query actually touches.
  void BuildTupleIndexes() {
    indexes_.resize(db_.relation_count());
    for (const Node& n : nodes_) {
      if (n.kind != QueryKind::kAtom) continue;
      TupleIndex& index = indexes_[n.relation];
      if (index.built) continue;
      index.built = true;
      const Relation& rel = db_.relations()[n.relation];
      index.rows.reserve(static_cast<size_t>(rel.size()));
      for (int row = 0; row < rel.size(); ++row) {
        const std::vector<Value>& values = rel.tuple(row).values();
        index.rows[HashValues(values.data(), values.size())].push_back(row);
      }
    }
  }

  const Database& db_;
  const Query& root_;
  std::vector<Node> nodes_;
  std::vector<SlotType> slot_types_;
  std::vector<std::vector<Value>> domains_;
  std::vector<TupleIndex> indexes_;
  // Innermost-binder-first scope stack per variable name.
  std::unordered_map<std::string, std::vector<int>> scopes_;
  std::unordered_map<std::string, int> free_slots_by_name_;
};

Result<PreparedQuery> PreparedQuery::Compile(const Database& db,
                                             const Query& query) {
  PreparedQuery prepared;
  Compiler compiler(db, query);
  PREFREP_RETURN_IF_ERROR(compiler.Run(prepared));
  return prepared;
}

bool PreparedQuery::EvalNode(int node, const DynamicBitset* mask) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case QueryKind::kTrue:
      return true;
    case QueryKind::kFalse:
      return false;
    case QueryKind::kAtom:
      return EvalAtom(n, mask);
    case QueryKind::kComparison:
      return EvalComparison(n.op, Resolve(n.lhs), Resolve(n.rhs));
    case QueryKind::kNot:
      return !EvalNode(n.children[0], mask);
    case QueryKind::kAnd:
      for (int child : n.children) {
        if (!EvalNode(child, mask)) return false;
      }
      return true;
    case QueryKind::kOr:
      for (int child : n.children) {
        if (EvalNode(child, mask)) return true;
      }
      return false;
    case QueryKind::kExists:
      return EvalQuantifier(n, /*existential=*/true, 0, mask);
    case QueryKind::kForAll:
      return EvalQuantifier(n, /*existential=*/false, 0, mask);
  }
  return false;
}

bool PreparedQuery::EvalAtom(const Node& n, const DynamicBitset* mask) const {
  // Every term is bound here, so the atom is an exact-tuple probe.
  Value wanted[16];
  std::vector<Value> wanted_heap;
  const Value* values;
  size_t count = n.terms.size();
  if (count <= 16) {
    for (size_t i = 0; i < count; ++i) wanted[i] = Resolve(n.terms[i]);
    values = wanted;
  } else {
    wanted_heap.reserve(count);
    for (const CompiledTerm& t : n.terms) wanted_heap.push_back(Resolve(t));
    values = wanted_heap.data();
  }
  const TupleIndex& index = indexes_[n.relation];
  auto it = index.rows.find(HashValues(values, count));
  if (it == index.rows.end()) return false;
  const Relation& rel = db_->relations()[n.relation];
  for (int32_t row : it->second) {
    if (mask != nullptr && !mask->Test(db_->GlobalId(n.relation, row))) {
      continue;
    }
    const Tuple& t = rel.tuple(row);
    bool match = true;
    for (size_t i = 0; i < count && match; ++i) {
      match = t.value(static_cast<int>(i)) == values[i];
    }
    if (match) return true;
  }
  return false;
}

bool PreparedQuery::EvalQuantifier(const Node& n, bool existential,
                                   size_t var_index,
                                   const DynamicBitset* mask) const {
  if (var_index == n.slots.size()) {
    return EvalNode(n.children[0], mask);
  }
  int slot = n.slots[var_index];
  for (const Value& v : domains_[slot]) {
    frame_[slot] = v;
    bool result = EvalQuantifier(n, existential, var_index + 1, mask);
    if (existential && result) return true;
    if (!existential && !result) return false;
  }
  return !existential;
}

Result<bool> PreparedQuery::EvalClosed(const DynamicBitset* mask) const {
  if (!is_closed()) {
    return Status::InvalidArgument("prepared query has free variables");
  }
  if (mask != nullptr && mask->size() != db_->tuple_count()) {
    return Status::InvalidArgument("mask size does not match database");
  }
  return EvalNode(0, mask);
}

Result<OpenAnswer> PreparedQuery::EvalOpen(const DynamicBitset* mask) const {
  if (mask != nullptr && mask->size() != db_->tuple_count()) {
    return Status::InvalidArgument("mask size does not match database");
  }
  OpenAnswer answer;
  answer.variables = free_variables_;
  std::set<Tuple> rows;
  const size_t vars = free_slots_.size();
  if (vars == 0) {
    if (EvalNode(0, mask)) rows.insert(Tuple(std::vector<Value>{}));
    answer.rows.assign(rows.begin(), rows.end());
    return answer;
  }
  // Odometer over the free variables' domains (no recursion closure;
  // this runs once per repair in EnumeratedConsistentAnswers).
  for (size_t i = 0; i < vars; ++i) {
    const std::vector<Value>& domain = domains_[free_slots_[i]];
    if (domain.empty()) return answer;  // no assignments at all
    frame_[free_slots_[i]] = domain[0];
  }
  std::vector<size_t> pos(vars, 0);
  std::vector<Value> assignment(vars);
  for (;;) {
    if (EvalNode(0, mask)) {
      for (size_t i = 0; i < vars; ++i) {
        assignment[i] = frame_[free_slots_[i]];
      }
      rows.insert(Tuple(assignment));
    }
    // Advance the last wheel, carrying leftwards.
    size_t i = vars;
    while (i > 0) {
      --i;
      const std::vector<Value>& domain = domains_[free_slots_[i]];
      if (++pos[i] < domain.size()) {
        frame_[free_slots_[i]] = domain[pos[i]];
        break;
      }
      pos[i] = 0;
      frame_[free_slots_[i]] = domain[0];
      if (i == 0) {
        answer.rows.assign(rows.begin(), rows.end());
        return answer;
      }
    }
  }
}

}  // namespace prefrep
