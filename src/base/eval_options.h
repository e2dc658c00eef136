// EvalOptions: the one options type of every public entry point that
// runs work — the CQA planner (cqa/planner.h), its engines (cqa/cqa.h,
// cqa/aggregation.h), the repair walk (core/families.h) and the server
// facade (server/session.h). Only graph-level primitives (MisEngine,
// ComponentProductEnumerator, MaskedMisSizeRange, ThreadPool::ParallelFor,
// Snapshot::Derive) take a bare ExecutionContext* instead.
//
//   threads           sharding width of the enumeration tier
//   force_tier        planner tier override
//   deadline          per-call wall-clock budget; an ExecutionContext is
//                     materialized on demand to enforce it
//   limits            per-call ExecutionLimits (byte / DNF / repair-list
//                     caps)
//   context           an externally owned ExecutionContext; when set it
//                     supersedes `deadline` and `limits` here (the context
//                     already carries its own)
//   prepared,         resident-server seams: a compiled query and a plan
//   precomputed_plan  the caller already holds for the same inputs
//
// One rule decides governance: every cap is read through
// EffectiveLimits() (the attached context's limits, else `limits`), and
// every entry point resolves the context once through EvalContextScope
// and hands the scope's options() down. A nested scope sees the resolved
// context and adopts it, so one call builds at most one context, and
// ungoverned calls keep taking the zero-overhead paths (context ==
// nullptr all the way down).
//
// This header lives in base/ — below core/ and cqa/ — so that both the
// engine layers and the server facade can name the same struct. CqaTier
// is defined here (rather than cqa/planner.h, which re-exports it) for
// the same layering reason: EvalOptions::force_tier needs the enum.

#ifndef PREFREP_BASE_EVAL_OPTIONS_H_
#define PREFREP_BASE_EVAL_OPTIONS_H_

#include <chrono>
#include <optional>

#include "base/exec_context.h"

namespace prefrep {

class PreparedQuery;
struct CqaPlan;

// The CQA planner's execution tiers (see cqa/planner.h for the routing
// rules; the enum lives here so base-level EvalOptions can carry it).
enum class CqaTier {
  kSingleRepair,    // tier 0: conflict-free database, evaluate once
  kGroundFastPath,  // tier 1: polynomial Rep-only engine
  kEnumeration,     // tier 2: sharded repair-product enumeration
};

struct EvalOptions {
  // Worker threads for the sharded enumeration paths; <= 1 is the serial
  // default. Results are bit-for-bit independent of this knob.
  int threads = 1;

  // Forces a planner tier instead of planning (differential tests and
  // benches). Forcing kSingleRepair on a database with conflicts, or
  // kGroundFastPath on a (plan, query) outside its scope, fails with
  // kInvalidArgument rather than computing an unsound answer; forcing
  // kGroundFastPath past the DNF budget surfaces kResourceExhausted
  // instead of falling back. A forced kEnumeration runs the requested
  // family itself (no P3 normalization): the differential reference.
  std::optional<CqaTier> force_tier = std::nullopt;

  // Per-call wall-clock budget; unset means no deadline. Enforced by a
  // call-scoped ExecutionContext (expiry surfaces as kDeadlineExceeded).
  std::optional<std::chrono::nanoseconds> deadline = std::nullopt;

  // Per-call resource limits (component-list bytes, DNF caps, repair-list
  // cap). Leaving them at their defaults keeps the call on the ungoverned
  // fast path. Read them through EffectiveLimits(), never directly.
  ExecutionLimits limits = {};

  // Externally owned context (cooperative cancel, shared governance).
  // When set, it supersedes `deadline` and `limits` above.
  ExecutionContext* context = nullptr;

  // A PreparedQuery previously compiled against problem.db() for the SAME
  // query: tiers 0 and 2 then skip PreparedQuery::Compile and evaluate
  // private copies of it (the object itself is never mutated, so one
  // cached master can serve concurrent calls). Owned by the caller; must
  // outlive the call.
  const PreparedQuery* prepared = nullptr;

  // A CqaPlan previously returned by ExplainPlan for the SAME (problem,
  // priority, family, query, request, effective DNF caps) inputs:
  // the dispatch then skips re-planning (including the DNF pre-attempt).
  // Ignored when force_tier is set. Owned by the caller.
  const CqaPlan* precomputed_plan = nullptr;

  // True iff the options need a call-scoped context to be honored (some
  // governance requested but no external context supplied).
  bool NeedsOwnContext() const {
    return context == nullptr &&
           (deadline.has_value() || !(limits == ExecutionLimits{}));
  }

  // The limits that govern the call: the attached context's when there is
  // one, else `limits`. Every cap in the library is read through here.
  const ExecutionLimits& EffectiveLimits() const {
    return context != nullptr ? context->limits() : limits;
  }
};

// Resolves the governance of one call: the external context when given, a
// scope-owned one when the options demand governance, none (ungoverned)
// otherwise. Stack-allocate next to the call and pass options() down.
class EvalContextScope {
 public:
  explicit EvalContextScope(const EvalOptions& options) : options_(options) {
    if (options.NeedsOwnContext()) {
      owned_.emplace(options.limits);
      if (options.deadline.has_value()) {
        owned_->SetDeadlineAfter(*options.deadline);
      }
      options_.context = &*owned_;
    }
  }

  EvalContextScope(const EvalContextScope&) = delete;
  EvalContextScope& operator=(const EvalContextScope&) = delete;

  // The caller's options with `context` resolved.
  const EvalOptions& options() const { return options_; }
  // May be nullptr (ungoverned call).
  ExecutionContext* context() const { return options_.context; }

 private:
  std::optional<ExecutionContext> owned_;
  EvalOptions options_;
};

}  // namespace prefrep

#endif  // PREFREP_BASE_EVAL_OPTIONS_H_
