// EvalOptions: the one options type of every CQA entry point
// (cqa/planner.h) and of the server facade (server/session.h).
//
//   threads           sharding width of the enumeration tier
//   force_tier        planner tier override
//   deadline          per-call wall-clock budget; an ExecutionContext is
//                     materialized on demand to enforce it
//   limits            per-call ExecutionLimits (byte / DNF / repair-list
//                     caps); the planner's DNF budget is
//                     limits.max_dnf_disjuncts
//   context           an externally owned ExecutionContext; when set it
//                     wins and `deadline`/`limits` here are ignored (the
//                     context already carries its own)
//   prepared,         resident-server seams: a compiled query and a plan
//   precomputed_plan  the caller already holds for the same inputs
//
// EvalContextScope turns an EvalOptions into the effective per-call
// governance: it owns a fresh ExecutionContext exactly when the options
// demand one (deadline armed or non-default limits, and no external
// context), so ungoverned calls keep taking the zero-overhead paths
// (context == nullptr all the way down). ParallelOptions (threads plus
// that effective context) is the engine-internal form handed to core/
// and graph/.
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
#include "base/thread_pool.h"

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
  // cap). Defaults reproduce the historical constants; leaving them
  // untouched keeps the call on the ungoverned fast path.
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
  // priority, family, query, request, limits.max_dnf_disjuncts) inputs:
  // the dispatch then skips re-planning (including the DNF pre-attempt).
  // Ignored when force_tier is set. Owned by the caller.
  const CqaPlan* precomputed_plan = nullptr;

  // True iff the options need a call-scoped context to be honored (some
  // governance requested but no external context supplied).
  bool NeedsOwnContext() const {
    return context == nullptr &&
           (deadline.has_value() || !(limits == ExecutionLimits{}));
  }

  // The engine-internal view of these options, against `effective` (the
  // external context or an EvalContextScope-owned one).
  ParallelOptions Parallel(ExecutionContext* effective) const {
    ParallelOptions parallel;
    parallel.threads = threads;
    parallel.context = effective;
    return parallel;
  }
};

// Materializes the effective ExecutionContext for one call: the external
// one when given, a scope-owned one when the options demand governance,
// nullptr (ungoverned) otherwise. Stack-allocate next to the call.
class EvalContextScope {
 public:
  explicit EvalContextScope(const EvalOptions& options) {
    if (options.context != nullptr) {
      context_ = options.context;
      return;
    }
    if (options.NeedsOwnContext()) {
      owned_.emplace(options.limits);
      if (options.deadline.has_value()) {
        owned_->SetDeadlineAfter(*options.deadline);
      }
      context_ = &*owned_;
    }
  }

  EvalContextScope(const EvalContextScope&) = delete;
  EvalContextScope& operator=(const EvalContextScope&) = delete;

  // May be nullptr (ungoverned call).
  ExecutionContext* context() { return context_; }

 private:
  std::optional<ExecutionContext> owned_;
  ExecutionContext* context_ = nullptr;
};

}  // namespace prefrep

#endif  // PREFREP_BASE_EVAL_OPTIONS_H_
