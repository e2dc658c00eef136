#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/random.h"
#include "constraints/conflict_index.h"
#include "core/families.h"
#include "cqa/planner.h"
#include "harness.h"
#include "query/parser.h"
#include "query/prepared.h"
#include "server/session.h"
#include "server/snapshot.h"
#include "sql/sql.h"
#include "trace.h"
#include "workload/generators.h"

namespace servebench {
namespace {

using prefrep::ComponentFamilyLists;
using prefrep::CqaPlan;
using prefrep::CqaPlannerOptions;
using prefrep::CqaRequest;
using prefrep::CqaTier;
using prefrep::CqaVerdict;
using prefrep::Database;
using prefrep::DatabaseDelta;
using prefrep::DeltaRemap;
using prefrep::FdConflictIndex;
using prefrep::GeneratedInstance;
using prefrep::OpenAnswer;
using prefrep::PreparedQuery;
using prefrep::Priority;
using prefrep::Query;
using prefrep::RepairFamily;
using prefrep::Result;
using prefrep::Rng;
using prefrep::Session;
using prefrep::SessionCacheStats;
using prefrep::SessionRequest;
using prefrep::SessionResponse;
using prefrep::Snapshot;
using prefrep::Status;
using prefrep::StatusCode;
using prefrep::TupleId;
using prefrep::ValueCensus;

// Set-ups per run; setup_s is their median. warm_reads sets up for
// seconds (its warm-up answers 256 cold requests), so it repeats less.
constexpr int kSetupRepeats = 9;
constexpr int kWarmSetupRepeats = 3;
// Client threads of the read workloads (the host has four cores).
constexpr int kClients = 3;
// The read-only workloads spend this share of --seconds publishing
// versions of their instance after the read window, so that every
// workload reports the update metrics.
constexpr double kRollShare = 0.2;

constexpr RepairFamily kPreferredFamilies[] = {
    RepairFamily::kGlobal, RepairFamily::kCommon, RepairFamily::kSemiGlobal};
constexpr RepairFamily kServedFamilies[] = {
    RepairFamily::kAll, RepairFamily::kGlobal, RepairFamily::kCommon,
    RepairFamily::kSemiGlobal};

// ---- requests and answers -------------------------------------------------

// One read as a client sends it.
struct ReadSpec {
  std::string text;
  bool sql = false;  // `text` is SQL (ParseSql / ParseSqlBoolean)
  CqaRequest kind = CqaRequest::kVerdict;
  RepairFamily family = RepairFamily::kAll;
};

struct Answer {
  CqaRequest kind = CqaRequest::kVerdict;
  CqaVerdict verdict = CqaVerdict::kUndetermined;
  OpenAnswer answers;

  friend bool operator==(const Answer& a, const Answer& b) {
    if (a.kind != b.kind) return false;
    if (a.kind == CqaRequest::kVerdict) return a.verdict == b.verdict;
    return a.answers.variables == b.answers.variables &&
           a.answers.rows == b.answers.rows;
  }
};

// Everything one run shares across its threads.
struct Context {
  explicit Context(const RunConfig& run_config) : config(run_config) {}

  const RunConfig& config;
  Tracer tracer;
  std::atomic<uint64_t> next_request{1};
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> errors{0};   // calls that returned an error
  std::atomic<uint64_t> refused{0};  // async submits refused by admission
  std::atomic<uint64_t> wrong{0};    // answers that failed a check
  std::vector<std::string> log;
};

Result<std::unique_ptr<Query>> ParseText(const Database& db,
                                         const ReadSpec& spec) {
  if (!spec.sql) return prefrep::ParseQuery(spec.text);
  return spec.kind == CqaRequest::kVerdict
             ? prefrep::ParseSqlBoolean(db, spec.text)
             : prefrep::ParseSql(db, spec.text);
}

Result<std::unique_ptr<Query>> ParseRead(Tracer& tracer, const Database& db,
                                         const ReadSpec& spec) {
  ScopedSpan span(tracer, spec.sql ? "sql.parse" : "query.parse");
  return ParseText(db, spec);
}

Result<Answer> SyncRead(Tracer& tracer, Session& session, const Query& query,
                        const Priority& priority, const ReadSpec& spec,
                        CqaPlan* plan) {
  ScopedSpan span(tracer, "server.ask");
  bool hit = false;
  Answer out;
  out.kind = spec.kind;
  Status status;
  if (spec.kind == CqaRequest::kVerdict) {
    Result<CqaVerdict> verdict =
        session.Ask(query, priority, spec.family, {}, plan, &hit);
    if (verdict.ok()) out.verdict = *verdict;
    status = verdict.status();
  } else {
    Result<OpenAnswer> answers =
        session.Answers(query, priority, spec.family, {}, plan, &hit);
    if (answers.ok()) out.answers = *std::move(answers);
    status = answers.status();
  }
  span.set_name(hit ? "server.ask_hit" : "server.ask_miss");
  if (!status.ok()) return status;
  return out;
}

// Submit + Wait on the session's dispatcher. `refused` reports an
// admission-control rejection.
Result<Answer> AsyncRead(Tracer& tracer, Session& session,
                         std::unique_ptr<Query> query, const Priority& priority,
                         const ReadSpec& spec, CqaPlan* plan, bool* refused) {
  tracer.Count("server.queue_depth",
               static_cast<double>(session.pending_requests()));
  const auto start = Clock::now();
  SessionRequest request;
  request.kind = spec.kind;
  request.query = std::move(query);
  request.priority = priority;
  request.family = spec.family;
  uint64_t id = 0;
  {
    ScopedSpan span(tracer, "server.submit");
    Result<uint64_t> submitted = session.Submit(std::move(request));
    if (!submitted.ok()) {
      *refused = submitted.status().code() == StatusCode::kResourceExhausted;
      return submitted.status();
    }
    id = *submitted;
  }
  Result<SessionResponse> response = [&] {
    ScopedSpan span(tracer, "server.wait");
    return session.Wait(id);
  }();
  if (!response.ok()) return response.status();
  tracer.Count(response->cache_hit ? "server.ask_hit_us" : "server.ask_miss_us",
               MicrosSince(start));
  *plan = response->executed;
  Answer out;
  out.kind = spec.kind;
  if (spec.kind == CqaRequest::kVerdict) {
    if (!response->verdict.ok()) return response->verdict.status();
    out.verdict = *response->verdict;
  } else {
    if (!response->answers.ok()) return response->answers.status();
    out.answers = *response->answers;
  }
  return out;
}

// The free-function path, uncached: the reference answer.
Result<Answer> ReferenceAnswer(const Snapshot& snapshot,
                               const Priority& priority, const ReadSpec& spec) {
  PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> query,
                           ParseText(snapshot.db(), spec));
  Answer out;
  out.kind = spec.kind;
  if (spec.kind == CqaRequest::kVerdict) {
    PREFREP_ASSIGN_OR_RETURN(
        out.verdict,
        prefrep::PlannedConsistentAnswer(snapshot.problem(), priority,
                                         spec.family, *query,
                                         prefrep::EvalOptions()));
  } else {
    PREFREP_ASSIGN_OR_RETURN(
        out.answers,
        prefrep::PlannedConsistentAnswers(snapshot.problem(), priority,
                                          spec.family, *query,
                                          prefrep::EvalOptions()));
  }
  return out;
}

// A tracer that is never enabled, for calls that check answers and must
// not show up in the layer metrics.
Tracer& Untraced() {
  static Tracer tracer;
  return tracer;
}

// Records the tier the served request ran in (traced run).
void CountTier(Tracer& tracer, const CqaPlan& plan) {
  tracer.Count("cqa.tier", static_cast<double>(static_cast<int>(plan.tier)));
}

// Traced run: replays one served read through the layers' public entry
// points (compile, plan, planned answer with the prepared query and the
// plan, per-component materialization for enumeration plans) and checks
// the replayed answer against the served one.
void ReplayRead(Context& ctx, const Snapshot& snapshot,
                const Priority& priority, const ReadSpec& spec,
                const Answer& served) {
  Tracer& tracer = ctx.tracer;
  ScopedSpan root(tracer, "replay");
  Result<std::unique_ptr<Query>> query = ParseText(snapshot.db(), spec);
  if (!query.ok()) {
    ++ctx.wrong;
    return;
  }
  Result<PreparedQuery> prepared = [&] {
    ScopedSpan span(tracer, "query.compile");
    return PreparedQuery::Compile(snapshot.db(), **query);
  }();
  if (!prepared.ok()) {
    ++ctx.wrong;
    return;
  }
  CqaPlan plan;
  {
    ScopedSpan span(tracer, "cqa.plan");
    plan = prefrep::ExplainPlan(snapshot.problem(), priority, spec.family,
                                **query, spec.kind);
  }
  CqaPlannerOptions options;
  options.prepared = &*prepared;
  options.precomputed_plan = &plan;
  CqaPlan executed;
  Answer replayed;
  replayed.kind = spec.kind;
  Status status;
  {
    ScopedSpan span(tracer, "cqa.answer");
    if (spec.kind == CqaRequest::kVerdict) {
      Result<CqaVerdict> verdict = prefrep::PlannedConsistentAnswer(
          snapshot.problem(), priority, spec.family, **query, options,
          &executed);
      if (verdict.ok()) replayed.verdict = *verdict;
      status = verdict.status();
    } else {
      Result<OpenAnswer> answers = prefrep::PlannedConsistentAnswers(
          snapshot.problem(), priority, spec.family, **query, options,
          &executed);
      if (answers.ok()) replayed.answers = *std::move(answers);
      status = answers.status();
    }
  }
  if (!status.ok() || !(replayed == served)) ++ctx.wrong;
  if (executed.tier != CqaTier::kEnumeration) return;
  std::optional<ComponentFamilyLists> lists;
  {
    ScopedSpan span(tracer, "core.materialize");
    lists = prefrep::MaterializeComponentFamilyLists(
        snapshot.graph(), priority, executed.effective_family,
        prefrep::ParallelOptions{});
  }
  if (!lists.has_value()) return;
  double listed = 0;
  for (const auto& choices : lists->choices) {
    listed += static_cast<double>(choices.size());
  }
  tracer.Count("core.listed_repairs", listed);
  tracer.Count("core.components", static_cast<double>(lists->choices.size()));
}

// ---- versions ---------------------------------------------------------------

struct Version {
  std::shared_ptr<const Snapshot> snapshot;
  std::shared_ptr<Session> session;
};

// Traced run: replays one delta through the derive layers' public entry
// points and records what the derivation reused.
void ReplayDelta(Context& ctx, const Snapshot& parent, const Snapshot& derived,
                 const DatabaseDelta& delta, const Session& session) {
  Tracer& tracer = ctx.tracer;
  ScopedSpan root(tracer, "replay");
  DeltaRemap remap;
  Result<Database> db = [&] {
    ScopedSpan span(tracer, "relational.apply");
    return delta.Apply(&remap);
  }();
  if (!db.ok() || db->tuple_count() != derived.db().tuple_count()) {
    ++ctx.wrong;
    return;
  }
  ValueCensus census = parent.census();
  bool preserved = false;
  {
    ScopedSpan span(tracer, "relational.census");
    preserved = census.Apply(delta);
  }
  const prefrep::SnapshotDeltaInfo& info = *derived.delta_info();
  if (preserved != info.domain_preserved) ++ctx.wrong;
  std::vector<std::pair<TupleId, TupleId>> fresh_edges;
  {
    ScopedSpan span(tracer, "constraints.index_derive");
    if (!FdConflictIndex::Derive(parent.conflict_index(), parent.fds(), delta,
                                 *db, remap, &fresh_edges)
             .ok()) {
      ++ctx.wrong;
    }
  }
  tracer.Count("constraints.fresh_edges",
               static_cast<double>(fresh_edges.size()));
  tracer.Count("relational.delta_ops", static_cast<double>(
                                          delta.insert_count() +
                                          delta.delete_count()));
  tracer.Count("relational.domain_preserved_ratio", preserved ? 1 : 0);

  const int vertices = derived.graph().vertex_count();
  const int common = std::min(vertices, parent.graph().vertex_count());
  int shared = 0;
  for (int v = 0; v < common; ++v) {
    if (derived.graph().SharesAdjacencyWith(parent.graph(), v)) ++shared;
  }
  if (vertices > 0) {
    tracer.Count("graph.adjacency_shared_ratio",
                 static_cast<double>(shared) / vertices);
  }
  const int components = info.carried_components + info.rebuilt_components;
  if (components > 0) {
    tracer.Count("graph.components_rebuilt_ratio",
                 static_cast<double>(info.rebuilt_components) / components);
  }
  const SessionCacheStats stats = session.cache_stats();
  const uint64_t seen = stats.seeded_results + stats.seed_dropped;
  if (seen > 0) {
    tracer.Count("server.seed_survival_ratio",
                 static_cast<double>(stats.seeded_results) / seen);
  }
}

// One version roll: stages the next delta against `parent` (untimed),
// derives the successor snapshot, runs `before_seed` on it (untimed), and
// builds the seeded derived session. `update_ms` receives the derive plus
// seed time.
Result<Version> Roll(
    Context& ctx, DeltaGenerator& generator, const Version& parent,
    double* update_ms,
    const std::function<void(const Snapshot&)>& before_seed = nullptr) {
  DeltaGenerator::Staged staged = generator.Next(parent.snapshot->db());
  Tracer& tracer = ctx.tracer;
  RequestScope request(tracer, ctx.next_request++);
  ScopedSpan root(tracer, "update");
  auto start = Clock::now();
  Result<std::shared_ptr<const Snapshot>> derived = [&] {
    ScopedSpan span(tracer, "server.derive");
    return Snapshot::Derive(parent.snapshot, *staged.delta);
  }();
  if (!derived.ok()) return derived.status();
  double us = MicrosSince(start);
  Version next;
  next.snapshot = *derived;
  if (before_seed) before_seed(*next.snapshot);
  start = Clock::now();
  {
    ScopedSpan span(tracer, "server.seed");
    next.session = std::make_shared<Session>(next.snapshot, *parent.session);
  }
  us += MicrosSince(start);
  *update_ms = us / 1000.0;
  root.End();
  if (tracer.enabled()) {
    ReplayDelta(ctx, *parent.snapshot, *next.snapshot, *staged.delta,
                *next.session);
  }
  return next;
}

// Timed operations with their completion times, seconds into the window.
struct Samples {
  std::vector<double> values;
  std::vector<double> at_s;
  double seconds = 0;

  void Add(double value, double at) {
    values.push_back(value);
    at_s.push_back(at);
  }
  void Append(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
    at_s.insert(at_s.end(), other.at_s.begin(), other.at_s.end());
  }
};

// Seconds into a window of `seconds` that ends at `end`.
double WindowOffset(double seconds, Clock::time_point end) {
  return seconds - std::chrono::duration<double>(end - Clock::now()).count();
}

// The read and update metrics are medians over up to five equal
// sub-windows, as many as keep 200 samples each.
WindowedSummary SummarizeSamples(const Samples& samples) {
  const int windows = static_cast<int>(
      std::clamp<size_t>(samples.values.size() / 200, 1, 5));
  return SummarizeWindows(samples.values, samples.at_s, samples.seconds,
                          windows);
}

// The read-only workloads' publishing phase: every epoch derives a
// successor of the served version and seeds a session from it, then drops
// both: the base stays fixed, so every epoch pays for seeding the same
// warm cache.
Samples RollFromBase(Context& ctx, const Version& base, double seconds) {
  Samples out;
  DeltaGenerator generator(ctx.config.seed * 7919 + 17,
                           base.snapshot->db().tuple_count());
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  while (Clock::now() < end) {
    ++ctx.attempted;
    double ms = 0;
    Result<Version> next = Roll(ctx, generator, base, &ms);
    if (!next.ok()) {
      ++ctx.errors;
      break;
    }
    out.Add(ms, MicrosSince(start) / 1e6);
  }
  out.seconds = MicrosSince(start) / 1e6;
  return out;
}

// ---- shared reporting -------------------------------------------------------


struct CacheTotals {
  uint64_t result_hits = 0, result_misses = 0;
  uint64_t plan_hits = 0, plan_misses = 0;
  uint64_t prepared_hits = 0, prepared_misses = 0;

  // Adds `after` minus `before` (counters of one session).
  void Add(const SessionCacheStats& after,
           const SessionCacheStats& before = {}) {
    result_hits += after.result_hits - before.result_hits;
    result_misses += after.result_misses - before.result_misses;
    plan_hits += after.plan_hits - before.plan_hits;
    plan_misses += after.plan_misses - before.plan_misses;
    prepared_hits += after.prepared_hits - before.prepared_hits;
    prepared_misses += after.prepared_misses - before.prepared_misses;
  }
};

double Ratio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return Percentile(values, 50);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double total = 0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::string Fixed(double value, int digits = 1) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

// Everything a workload measured, turned into metrics by Report().
struct Measured {
  std::vector<double> setup_s;
  Samples reads;          // the untraced read window
  Samples traced_reads;   // trace run: the traced read window
  Samples updates;
  CacheTotals cache;
};

// Span names timed as per-layer metrics, with the metric's unit.
struct SpanMetric {
  const char* span;
  const char* unit;  // "ms" or "us"
};
constexpr SpanMetric kSpanMetrics[] = {
    {"server.create", "ms"},    {"priority.build", "ms"},
    {"server.ask_hit", "us"},   {"server.ask_miss", "us"},
    {"server.submit", "us"},    {"server.wait", "us"},
    {"server.derive", "us"},    {"server.seed", "us"},
    {"query.parse", "us"},      {"query.compile", "us"},
    {"sql.parse", "us"},        {"cqa.plan", "us"},
    {"cqa.answer", "us"},       {"core.materialize", "us"},
    {"relational.apply", "us"}, {"relational.census", "us"},
    {"constraints.index_derive", "us"},
};

// Per-layer metrics reduced from samples by their mean.
constexpr const char* kMeanCounts[][2] = {
    {"server.queue_depth", "count"},
    {"server.seed_survival_ratio", "ratio"},
    {"core.listed_repairs", "count"},
    {"core.components", "count"},
    {"graph.adjacency_shared_ratio", "ratio"},
    {"graph.components_rebuilt_ratio", "ratio"},
    {"constraints.fresh_edges", "count"},
    {"relational.delta_ops", "count"},
    {"relational.domain_preserved_ratio", "ratio"},
    {"priority.arcs", "count"},
};

void AddMetric(RunResult& result, std::string name, std::string unit,
               double value, std::string note = "") {
  result.metrics.push_back(
      {std::move(name), std::move(unit), value, std::move(note)});
}

RunResult Report(Context& ctx, const Measured& m) {
  RunResult result;
  result.attempted = std::max<uint64_t>(ctx.attempted.load(), 1);
  result.failed = ctx.errors + ctx.refused + ctx.wrong;
  result.correct = ctx.wrong == 0 && ctx.errors == 0;
  result.log = std::move(ctx.log);

  const WindowedSummary reads = SummarizeSamples(m.reads);
  const WindowedSummary updates = SummarizeSamples(m.updates);
  if (!m.reads.values.empty()) {
    std::vector<double> sorted = m.reads.values;
    std::sort(sorted.begin(), sorted.end());
    std::string line = "read latency us:";
    for (double p : {10, 30, 50, 70, 80, 90, 95, 99}) {
      line += " p" + Fixed(p, 0) + "=" + Fixed(Percentile(sorted, p));
    }
    result.log.push_back(line);
  }
  const double error_rate = static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted);
  result.log.push_back(
      "error_rate " + Fixed(error_rate, 6) + " (" +
      std::to_string(result.failed) + " failed of " +
      std::to_string(result.attempted) + " attempted: " +
      std::to_string(ctx.errors.load()) + " errors, " +
      std::to_string(ctx.refused.load()) + " refused, " +
      std::to_string(ctx.wrong.load()) + " wrong)");

  if (!ctx.config.trace) {
    std::string setups;
    for (double seconds : m.setup_s) setups += " " + Fixed(seconds, 4);
    AddMetric(result, "setup_s", "s", Median(m.setup_s),
              "median of set-ups" + setups);
    // E.g. "p99, median of 5 sub-windows of an 8.00 s window, 15299 reads".
    auto note = [](const WindowedSummary& w, const Samples& samples,
                   const char* what, bool tail) {
      return (tail ? "p" + std::to_string(w.tail_percentile) + ", " : "") +
             "median of " + std::to_string(w.windows) + " sub-windows of a " +
             Fixed(samples.seconds, 2) + " s window, " +
             std::to_string(w.count) + " " + what;
    };
    AddMetric(result, "ask_p50_us", "us", reads.p50,
              note(reads, m.reads, "reads", false));
    AddMetric(result, "ask_p99_us", "us", reads.tail,
              note(reads, m.reads, "reads", true));
    AddMetric(result, "reads_per_s", "1/s", reads.rate,
              note(reads, m.reads, "reads", false));
    AddMetric(result, "update_p50_ms", "ms", updates.p50,
              note(updates, m.updates, "versions", false));
    AddMetric(result, "update_p99_ms", "ms", updates.tail,
              note(updates, m.updates, "versions", true));
    AddMetric(result, "updates_per_s", "1/s", updates.rate,
              note(updates, m.updates, "versions", false));
    AddMetric(result, "peak_rss_mb", "MiB", PeakRssMb(), "ru_maxrss");
    return result;
  }

  Tracer::Collected collected = ctx.tracer.Collect();
  std::map<std::string, std::vector<double>>& values = collected.samples;
  for (const Span& span : collected.spans) {
    for (const SpanMetric& metric : kSpanMetrics) {
      if (std::string_view(span.name) != metric.span) continue;
      const double divisor = std::string_view(metric.unit) == "ms" ? 1e6 : 1e3;
      values[std::string(metric.span) + "_" + metric.unit].push_back(
          static_cast<double>(span.self_ns) / divisor);
    }
  }
  for (const SpanMetric& metric : kSpanMetrics) {
    const std::string name = std::string(metric.span) + "_" + metric.unit;
    const std::vector<double>& samples = values[name];
    AddMetric(result, name, metric.unit, Median(samples),
              samples.empty() ? "not reached"
                              : "median self time of " +
                                    std::to_string(samples.size()) + " calls");
  }
  for (const auto& [name, unit] : kMeanCounts) {
    const std::vector<double>& samples = values[name];
    AddMetric(result, name, unit, Mean(samples),
              samples.empty() ? "not reached"
                              : "mean of " + std::to_string(samples.size()));
  }
  const std::vector<double>& tiers = values["cqa.tier"];
  for (int tier = 0; tier < 3; ++tier) {
    const double count = static_cast<double>(
        std::count(tiers.begin(), tiers.end(), static_cast<double>(tier)));
    AddMetric(result, "cqa.tier" + std::to_string(tier) + "_share", "ratio",
              tiers.empty() ? 0 : count / static_cast<double>(tiers.size()),
              "of " + std::to_string(tiers.size()) + " served reads");
  }
  auto add_ratio = [&](const char* name, uint64_t hits, uint64_t misses) {
    AddMetric(result, name, "ratio", Ratio(hits, misses),
              hits + misses == 0 ? "no lookups"
                                 : std::to_string(hits) + " hits of " +
                                       std::to_string(hits + misses));
  };
  add_ratio("server.result_hit_ratio", m.cache.result_hits,
            m.cache.result_misses);
  add_ratio("server.plan_hit_ratio", m.cache.plan_hits, m.cache.plan_misses);
  add_ratio("server.prepared_hit_ratio", m.cache.prepared_hits,
            m.cache.prepared_misses);
  AddMetric(result, "server.admission_rejects", "count",
            static_cast<double>(ctx.refused.load()));
  const WindowedSummary traced = SummarizeSamples(m.traced_reads);
  AddMetric(result, "trace.overhead_us", "us", traced.p50 - reads.p50,
            "traced ask p50 " + Fixed(traced.p50) + " us (" +
                std::to_string(traced.count) + " reads) - untraced " +
                Fixed(reads.p50) + " us (" + std::to_string(reads.count) +
                " reads)");
  if (!ctx.config.trace_out.empty() &&
      !Tracer::WriteSpans(collected.spans, ctx.config.trace_out, 200000)) {
    result.log.push_back("could not write spans to " + ctx.config.trace_out);
  }
  result.log.push_back("recorded " + std::to_string(collected.spans.size()) +
                       " spans");
  return result;
}

// Runs `setup` `repeats` times, timing each (the first from process
// start), and keeps the last state. Tracing, when on, covers the set-ups.
template <typename State, typename SetupFn>
std::unique_ptr<State> RepeatSetup(Context& ctx,
                                   Clock::time_point process_start,
                                   int repeats, std::vector<double>* setup_s,
                                   SetupFn setup) {
  std::unique_ptr<State> state;
  for (int i = 0; i < repeats; ++i) {
    state.reset();  // free the previous set-up before building the next
    const auto start = i == 0 ? process_start : Clock::now();
    RequestScope request(ctx.tracer, ctx.next_request++);
    ScopedSpan span(ctx.tracer, "setup");
    state = setup();
    span.End();
    setup_s->push_back(MicrosSince(start) / 1e6);
  }
  return state;
}

// Runs `client(index, end)` on `clients` threads until `seconds` have
// passed; returns the seconds the window took.
template <typename ClientFn>
double RunClients(int clients, double seconds, ClientFn client) {
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&client, i, end] { client(i, end); });
  }
  for (std::thread& thread : threads) thread.join();
  return MicrosSince(start) / 1e6;
}

// Untraced window, then (trace run) a traced window of the same length;
// `window(seconds, samples)` runs one.
template <typename WindowFn>
void ReadWindows(Context& ctx, double seconds, Measured* m, WindowFn window) {
  const double each = ctx.config.trace ? seconds / 2 : seconds;
  window(each, &m->reads);
  if (!ctx.config.trace) return;
  ctx.tracer.set_enabled(true);
  window(each, &m->traced_reads);
}

// Instance-derived helpers.
std::string TupleAtom(const Database& db, TupleId id) {
  const prefrep::Tuple& t = db.TupleOf(id);
  return db.SchemaOf(id).relation_name() + "(" +
         std::to_string(t.value(0).number()) + ", " +
         std::to_string(t.value(1).number()) + ", " +
         std::to_string(t.value(2).number()) + ")";
}

TupleId RandomTupleIn(Rng& rng, const Database& db, int relation) {
  const int rows = db.relations()[relation].size();
  return db.GlobalId(relation, static_cast<int>(rng.UniformInt(rows)));
}

// ---- warm_reads ----------------------------------------------------------

// 8 relations x 50 key groups of 14-18 tuples (~6.4k tuples, 400
// components), one source-reliability ranking over all of it, and a pool
// of ~256 (query, family) pairs that fits the result cache.
struct WarmState {
  Version version;
  Priority priority;
  std::vector<ReadSpec> pool;
};

constexpr int kWarmPool = 256;

std::vector<ReadSpec> WarmPool(Rng& rng, const Database& db) {
  std::vector<ReadSpec> pool;
  std::set<std::pair<std::string, int>> seen;
  const int relations = db.relation_count();
  while (static_cast<int>(pool.size()) < kWarmPool) {
    ReadSpec spec;
    const int r1 = static_cast<int>(rng.UniformInt(relations));
    const int r2 = static_cast<int>(rng.UniformInt(relations));
    const TupleId t1 = RandomTupleIn(rng, db, r1);
    const TupleId t2 = RandomTupleIn(rng, db, r2);
    const prefrep::Tuple& tuple = db.TupleOf(t1);
    const std::string rel = "R" + std::to_string(r1);
    const std::string key = std::to_string(tuple.value(0).number());
    const std::string cls = std::to_string(tuple.value(1).number());
    // Rep (no preference) only pairs with texts tier 1 answers: a
    // quantified query under Rep enumerates the whole 400-component
    // product. Forms and families cycle, so every seed has the same mix.
    bool any_family = true;
    const int slot = static_cast<int>(pool.size());
    const int form = slot % 20;
    if (form < 8) {  // ground, closed
      switch (form % 3) {
        case 0:
          spec.text = TupleAtom(db, t1);
          break;
        case 1:
          spec.text = TupleAtom(db, t1) + " or " + TupleAtom(db, t2);
          break;
        default:
          spec.text = TupleAtom(db, t1) + " and not " + TupleAtom(db, t2);
          break;
      }
    } else if (form < 12) {  // one key group, closed
      spec.text = "exists w . " + rel + "(" + key + ", " + cls + ", w)";
      any_family = false;
    } else if (form < 17) {  // one key group, open
      spec.text = rel + "(" + key + ", v, w)";
      spec.kind = CqaRequest::kOpenAnswers;
    } else {  // one key group, SQL
      spec.sql = true;
      any_family = false;
      if (form % 2 == 0) {
        spec.text = "SELECT r.V, r.W FROM " + rel + " r WHERE r.K = " + key;
        spec.kind = CqaRequest::kOpenAnswers;
      } else {
        spec.text = "SELECT * FROM " + rel + " r WHERE r.K = " + key +
                    " AND r.V = " + cls;
      }
    }
    spec.family = any_family ? kServedFamilies[(slot / 20 + form) % 4]
                             : kPreferredFamilies[(slot / 20 + form) % 3];
    if (seen.insert({spec.text, static_cast<int>(spec.family)}).second) {
      pool.push_back(std::move(spec));
    }
  }
  return pool;
}

std::unique_ptr<WarmState> WarmSetup(Context& ctx) {
  Tracer& tracer = ctx.tracer;
  auto state = std::make_unique<WarmState>();
  Rng rng(ctx.config.seed);
  GeneratedInstance instance = [&] {
    ScopedSpan span(tracer, "workload.generate");
    return prefrep::MakeMultiRelationComponentsInstance(rng, 8, 50, 14, 18);
  }();
  Result<std::shared_ptr<const Snapshot>> snapshot = [&] {
    ScopedSpan span(tracer, "server.create");
    return Snapshot::Create(std::move(*instance.db), std::move(instance.fds));
  }();
  CHECK(snapshot.ok()) << snapshot.status().ToString();
  state->version.snapshot = *snapshot;
  const Database& db = state->version.snapshot->db();
  // Source reliability: every tuple comes from one of 16 sources ranked by
  // reliability; newer tuples (higher ids) break ties, so every conflict
  // is oriented.
  std::vector<int> reliability = rng.Permutation(16);
  std::vector<int64_t> ranks(db.tuple_count());
  for (int t = 0; t < db.tuple_count(); ++t) {
    ranks[t] = static_cast<int64_t>(reliability[rng.UniformInt(16)]) *
                   db.tuple_count() + t;
  }
  {
    ScopedSpan span(tracer, "priority.build");
    state->priority =
        Priority::FromRanking(state->version.snapshot->graph(), ranks);
  }
  tracer.Count("priority.arcs", state->priority.arc_count());
  state->pool = WarmPool(rng, db);
  state->version.session = std::make_shared<Session>(state->version.snapshot);
  // The warm-up goes through the async path (Submit, then Wait), one
  // request at a time: each request carries its own copy of the ~10 MB
  // priority, and concurrent copies made peak memory vary by a third
  // between runs.
  for (const ReadSpec& spec : state->pool) {
    Result<std::unique_ptr<Query>> query = ParseRead(tracer, db, spec);
    CqaPlan plan;
    bool refused = false;
    if (!query.ok() ||
        !AsyncRead(tracer, *state->version.session, *std::move(query),
                   state->priority, spec, &plan, &refused)
             .ok()) {
      ++(refused ? ctx.refused : ctx.errors);
    }
  }
  return state;
}

RunResult WarmReads(Context& ctx, Clock::time_point process_start) {
  Measured m;
  std::unique_ptr<WarmState> state = RepeatSetup<WarmState>(
      ctx, process_start, kWarmSetupRepeats, &m.setup_s,
      [&] { return WarmSetup(ctx); });
  ctx.tracer.set_enabled(false);
  const Snapshot& snapshot = *state->version.snapshot;
  const int pool_size = static_cast<int>(state->pool.size());
  // Expected answers, once, through the uncached free-function path.
  std::vector<Answer> expected(pool_size);
  for (int i = 0; i < pool_size; ++i) {
    Result<Answer> answer =
        ReferenceAnswer(snapshot, state->priority, state->pool[i]);
    if (answer.ok()) {
      expected[i] = *std::move(answer);
    } else {
      ++ctx.errors;
    }
  }
  // Zipf over a seed-shuffled pool order.
  Rng order_rng(ctx.config.seed + 1);
  const std::vector<int> order = order_rng.Permutation(pool_size);
  const ZipfSampler zipf(pool_size, 1.0);
  Session& session = *state->version.session;
  const SessionCacheStats before = session.cache_stats();

  const double read_seconds = ctx.config.seconds * (1 - kRollShare);
  ReadWindows(ctx, read_seconds, &m, [&](double seconds, Samples* out) {
    std::vector<Samples> per_client(kClients);
    out->seconds = RunClients(kClients, seconds, [&](int client, auto end) {
      Rng rng(ctx.config.seed * 31 + static_cast<uint64_t>(client) + 2);
      Tracer& tracer = ctx.tracer;
      for (uint64_t n = 0; Clock::now() < end; ++n) {
        const int index = order[zipf.Next(rng)];
        const ReadSpec& spec = state->pool[index];
        ++ctx.attempted;
        RequestScope request(tracer, ctx.next_request++);
        ScopedSpan root(tracer, "read");
        const auto start = Clock::now();
        CqaPlan plan;
        Result<std::unique_ptr<Query>> query =
            ParseRead(tracer, snapshot.db(), spec);
        Result<Answer> answer =
            query.ok() ? SyncRead(tracer, session, **query, state->priority,
                                  spec, &plan)
                       : Result<Answer>(query.status());
        const double us = MicrosSince(start);
        root.End();
        if (!answer.ok()) {
          ++ctx.errors;
          continue;
        }
        per_client[client].Add(us, WindowOffset(seconds, end));
        CountTier(tracer, plan);
        if (!(*answer == expected[index])) ++ctx.wrong;
        // A replay costs a cold request (~10 ms); one in 16 keeps the
        // traced window mostly serving.
        if (tracer.enabled() && n % 16 == 0) {
          ReplayRead(ctx, snapshot, state->priority, spec, *answer);
        }
      }
    });
    for (const Samples& samples : per_client) out->Append(samples);
  });
  m.cache.Add(session.cache_stats(), before);
  m.updates =
      RollFromBase(ctx, state->version, ctx.config.seconds * kRollShare);
  ctx.log.push_back("warm_reads: " + snapshot.Describe() + "; priority " +
                    std::to_string(state->priority.arc_count()) +
                    " arcs; pool " + std::to_string(pool_size) + " pairs; " +
                    session.cache_stats().ToString());
  return Report(ctx, m);
}

// ---- cold_enum -----------------------------------------------------------

// 26 key groups of 3-5 tuples (one component each), 32 random ranking
// priorities, and ~96 query texts: far more (query, priority, family)
// triples than the result cache holds.
struct ColdState {
  Version version;
  std::vector<Priority> priorities;
  std::vector<ReadSpec> texts;  // family is chosen per request
};

constexpr int kColdComponents = 26;
constexpr int kColdPriorities = 32;
constexpr int kColdTexts = 96;
static_assert(kColdTexts % 8 == 0, "clients cycle through eight forms");
// Cap on each priority's repair product (see ColdSetup).
constexpr double kColdProduct = 16;

std::vector<ReadSpec> ColdTexts(Rng& rng, const std::vector<int>& sizes) {
  std::vector<ReadSpec> texts;
  std::set<std::string> seen;
  const int groups = static_cast<int>(sizes.size());
  while (static_cast<int>(texts.size()) < kColdTexts) {
    ReadSpec spec;
    const int k1 = static_cast<int>(rng.UniformInt(groups));
    const int k2 = static_cast<int>(rng.UniformInt(groups));
    const std::string a = std::to_string(k1), b = std::to_string(k2);
    const std::string v1 = std::to_string(rng.UniformInt(sizes[k1]));
    const std::string v2 = std::to_string(rng.UniformInt(sizes[k2]));
    // Forms cycle, so every seed has the same mix; one text in eight is
    // SQL.
    const int slot = static_cast<int>(texts.size());
    if (slot % 8 == 7) {
      spec.sql = true;
      switch (slot / 8 % 3) {
        case 0:
          spec.text = "SELECT r.V FROM R r WHERE r.K = " + a;
          spec.kind = CqaRequest::kOpenAnswers;
          break;
        case 1:
          spec.text = "SELECT * FROM R r WHERE r.K = " + a + " AND r.V = " + v1;
          break;
        default:
          spec.text = "SELECT r.K FROM R r WHERE r.V = " + v1;
          spec.kind = CqaRequest::kOpenAnswers;
          break;
      }
    } else {
      switch (slot % 8) {
        case 0:  // one key group
          spec.text = "exists w . R(" + a + ", " + v1 + ", w)";
          break;
        case 1:  // two key groups
          spec.text = "exists w1, w2 . R(" + a + ", " + v1 + ", w1) and R(" +
                      b + ", " + v2 + ", w2)";
          break;
        case 2:
          spec.text = "exists w1, w2 . R(" + a + ", " + v1 + ", w1) or R(" +
                      b + ", " + v2 + ", w2)";
          break;
        case 3:  // one key group, open
          spec.text = "exists w . R(" + a + ", v, w)";
          spec.kind = CqaRequest::kOpenAnswers;
          break;
        case 4:
          spec.text = "R(" + a + ", v, w)";
          spec.kind = CqaRequest::kOpenAnswers;
          break;
        case 5:  // unconstrained atom (the comparison prunes nothing)
          spec.text = "exists k, w . R(k, " + v1 + ", w) and k >= " + a;
          break;
        default:
          spec.text = "exists w . R(k, " + v1 + ", w) and k >= " + a;
          spec.kind = CqaRequest::kOpenAnswers;
          break;
      }
    }
    if (seen.insert(spec.text).second) texts.push_back(std::move(spec));
  }
  return texts;
}

std::unique_ptr<ColdState> ColdSetup(Context& ctx) {
  Tracer& tracer = ctx.tracer;
  auto state = std::make_unique<ColdState>();
  Rng rng(ctx.config.seed);
  // Sizes 3, 4 and 5 in near-equal shares, in seed order: every seed gets
  // the same size mix, only its arrangement changes.
  std::vector<int> sizes(kColdComponents);
  for (int i = 0; i < kColdComponents; ++i) sizes[i] = 3 + i % 3;
  rng.Shuffle(sizes);
  GeneratedInstance instance = [&] {
    ScopedSpan span(tracer, "workload.generate");
    return prefrep::MakeComponentsInstance(rng, sizes);
  }();
  Result<std::shared_ptr<const Snapshot>> snapshot = [&] {
    ScopedSpan span(tracer, "server.create");
    return Snapshot::Create(std::move(*instance.db), std::move(instance.fds));
  }();
  CHECK(snapshot.ok()) << snapshot.status().ToString();
  state->version.snapshot = *snapshot;
  const prefrep::ConflictGraph& graph = state->version.snapshot->graph();
  // Ranking priorities with ties: each ranks the tuples of most key groups
  // strictly (one preferred repair there) and ties every tuple of a random
  // set of "open" groups (all of their repairs stay preferred). Groups with
  // two classes open first, then any group while the product of the open
  // groups' repair counts stays within kColdProduct: nearly every priority
  // leaves a product of exactly kColdProduct, so no seed draws priorities
  // that enumerate more than another's.
  const Database& db = state->version.snapshot->db();
  std::vector<std::set<int64_t>> classes(sizes.size());
  for (TupleId t = 0; t < db.tuple_count(); ++t) {
    const prefrep::Tuple& tuple = db.TupleOf(t);
    classes[tuple.value(0).number()].insert(tuple.value(1).number());
  }
  for (int p = 0; p < kColdPriorities; ++p) {
    std::vector<bool> open(sizes.size(), false);
    double product = 1;
    const std::vector<int> groups =
        rng.Permutation(static_cast<int>(sizes.size()));
    for (bool two_classes_only : {true, false}) {
      for (int g : groups) {
        const double repairs = static_cast<double>(classes[g].size());
        if (open[g] || (two_classes_only && repairs != 2) ||
            product * repairs > kColdProduct) {
          continue;
        }
        open[g] = true;
        product *= repairs;
      }
    }
    const std::vector<int> order = rng.Permutation(db.tuple_count());
    std::vector<int64_t> ranks(db.tuple_count());
    for (TupleId t = 0; t < db.tuple_count(); ++t) {
      const int64_t group = db.TupleOf(t).value(0).number();
      ranks[t] = open[group] ? -1 - group : order[t];
    }
    {
      ScopedSpan span(tracer, "priority.build");
      state->priorities.push_back(Priority::FromRanking(graph, ranks));
    }
    tracer.Count("priority.arcs", state->priorities.back().arc_count());
  }
  state->texts = ColdTexts(rng, sizes);
  state->version.session = std::make_shared<Session>(state->version.snapshot);
  // Warm the prepared and plan caches: every text once per family, the
  // priorities taken in turn.
  int warmed = 0;
  for (ReadSpec spec : state->texts) {
    for (RepairFamily family : kPreferredFamilies) {
      spec.family = family;
      const Priority& priority = state->priorities[warmed++ % kColdPriorities];
      Result<std::unique_ptr<Query>> query = ParseRead(tracer, db, spec);
      CqaPlan plan;
      if (!query.ok() || !SyncRead(tracer, *state->version.session, **query,
                                   priority, spec, &plan)
                              .ok()) {
        ++ctx.errors;
      }
    }
  }
  return state;
}

RunResult ColdEnum(Context& ctx, Clock::time_point process_start) {
  Measured m;
  std::unique_ptr<ColdState> state = RepeatSetup<ColdState>(
      ctx, process_start, kSetupRepeats, &m.setup_s,
      [&] { return ColdSetup(ctx); });
  ctx.tracer.set_enabled(false);
  const Snapshot& snapshot = *state->version.snapshot;
  Session& session = *state->version.session;
  const SessionCacheStats before = session.cache_stats();
  const int texts = static_cast<int>(state->texts.size());

  // A deterministic eighth of the (text, priority, family) triples is
  // checked after the window against the free-function path.
  struct Checked {
    int text, priority, family;
    Answer served;
  };
  std::mutex checked_mu;
  std::vector<Checked> checked;  // guarded by checked_mu

  const double read_seconds = ctx.config.seconds * (1 - kRollShare);
  ReadWindows(ctx, read_seconds, &m, [&](double seconds, Samples* out) {
    std::vector<Samples> per_client(kClients);
    out->seconds = RunClients(kClients, seconds, [&](int client, auto end) {
      Rng rng(ctx.config.seed * 31 + static_cast<uint64_t>(client) + 2);
      Tracer& tracer = ctx.tracer;
      std::vector<Checked> mine;
      for (int n = 0; Clock::now() < end; ++n) {
        // Text i has form i % 8 (ColdTexts); each client cycles through
        // the forms, so every window sees the same form mix, one SQL
        // request in eight included.
        const int text =
            n % 8 + 8 * static_cast<int>(rng.UniformInt(texts / 8));
        const int priority =
            static_cast<int>(rng.UniformInt(kColdPriorities));
        const int family = static_cast<int>(rng.UniformInt(3));
        ReadSpec spec = state->texts[text];
        spec.family = kPreferredFamilies[family];
        ++ctx.attempted;
        RequestScope request(tracer, ctx.next_request++);
        ScopedSpan root(tracer, "read");
        const auto start = Clock::now();
        CqaPlan plan;
        bool refused = false;
        Result<std::unique_ptr<Query>> query =
            ParseRead(tracer, snapshot.db(), spec);
        Result<Answer> answer =
            query.ok() ? AsyncRead(tracer, session, *std::move(query),
                                   state->priorities[priority], spec, &plan,
                                   &refused)
                       : Result<Answer>(query.status());
        const double us = MicrosSince(start);
        root.End();
        if (!answer.ok()) {
          ++(refused ? ctx.refused : ctx.errors);
          continue;
        }
        per_client[client].Add(us, WindowOffset(seconds, end));
        CountTier(tracer, plan);
        if (((text * kColdPriorities + priority) * 3 + family) % 8 == 0) {
          mine.push_back({text, priority, family, *answer});
        }
        if (tracer.enabled()) {
          ReplayRead(ctx, snapshot, state->priorities[priority], spec,
                     *answer);
        }
      }
      std::lock_guard<std::mutex> lock(checked_mu);
      checked.insert(checked.end(), std::make_move_iterator(mine.begin()),
                     std::make_move_iterator(mine.end()));
    });
    for (const Samples& samples : per_client) out->Append(samples);
  });
  m.cache.Add(session.cache_stats(), before);

  // Reference answers for the sampled triples, each computed once.
  std::map<std::tuple<int, int, int>, std::optional<Answer>> reference;
  for (const Checked& c : checked) {
    auto [it, inserted] =
        reference.try_emplace({c.text, c.priority, c.family});
    if (inserted) {
      ReadSpec spec = state->texts[c.text];
      spec.family = kPreferredFamilies[c.family];
      Result<Answer> answer =
          ReferenceAnswer(snapshot, state->priorities[c.priority], spec);
      if (answer.ok()) it->second = *std::move(answer);
    }
    if (!it->second.has_value() || !(*it->second == c.served)) ++ctx.wrong;
  }
  m.updates =
      RollFromBase(ctx, state->version, ctx.config.seconds * kRollShare);
  ctx.log.push_back("cold_enum: " + snapshot.Describe() + "; " +
                    std::to_string(kColdPriorities) + " priorities, " +
                    std::to_string(texts) + " texts; checked " +
                    std::to_string(checked.size()) + " replies (" +
                    std::to_string(reference.size()) + " triples); " +
                    session.cache_stats().ToString());
  return Report(ctx, m);
}

// ---- update_serve --------------------------------------------------------

// The 8 x 50 instance under the empty priority; one writer publishes a
// chain of derived versions while two readers query the newest.
struct Served {
  Version version;
  Priority empty;  // the empty priority over this version's graph
};

struct UpdateState {
  std::shared_ptr<const Served> served;
  std::vector<ReadSpec> pool;
};

constexpr int kUpdatePool = 64;
constexpr int kUpdateReaders = 2;
// Reads checked against a cold session: one in kVerifyEvery per reader.
constexpr uint64_t kVerifyEvery = 256;
// Versions advance in lockstep with the readers: the writer derives the
// next version while the readers serve kReadsPerVersion reads each on the
// current one, seeds the derived session once they are through, and
// publishes it. Every version thus serves the same number of reads, so
// the share the seeded cache answers depends on the deltas and the query
// mix, not on the relative speed of the threads.
constexpr int kReadsPerVersion = 64;

struct Lockstep {
  std::mutex mu;
  std::condition_variable cv;
  std::shared_ptr<const Served> current;  // guarded by mu
  uint64_t version = 0;                   // guarded by mu
  int readers_done = 0;  // guarded by mu: readers through their quota
};

std::vector<ReadSpec> UpdatePool(Rng& rng, const Database& db) {
  std::vector<ReadSpec> pool;
  std::set<std::string> seen;
  const int relations = db.relation_count();
  const int untouched = relations - 2;  // the writer flips the last two
  while (static_cast<int>(pool.size()) < kUpdatePool) {
    ReadSpec spec;
    // Forms and families cycle, so every seed has the same mix; one text in
    // eight starts with an atom over a relation the writer touches.
    const int slot = static_cast<int>(pool.size());
    auto untouched_relation = [&] {
      return static_cast<int>(rng.UniformInt(untouched));
    };
    const int r1 = slot % 8 == 0
                       ? untouched + static_cast<int>(rng.UniformInt(2))
                       : untouched_relation();
    const TupleId t1 = RandomTupleIn(rng, db, r1);
    const TupleId t2 = RandomTupleIn(rng, db, untouched_relation());
    switch (slot / 8 % 4) {
      case 1:
        spec.text = TupleAtom(db, t1) + " or " + TupleAtom(db, t2);
        break;
      case 2:
        spec.text = TupleAtom(db, t1) + " and not " + TupleAtom(db, t2);
        break;
      default:
        spec.text = TupleAtom(db, t1);
        break;
    }
    spec.family = kServedFamilies[(slot / 32 + slot) % 4];
    if (seen.insert(spec.text + "#" + std::to_string(
                                          static_cast<int>(spec.family)))
            .second) {
      pool.push_back(std::move(spec));
    }
  }
  return pool;
}

std::unique_ptr<UpdateState> UpdateSetup(Context& ctx) {
  Tracer& tracer = ctx.tracer;
  auto state = std::make_unique<UpdateState>();
  Rng rng(ctx.config.seed);
  GeneratedInstance instance = [&] {
    ScopedSpan span(tracer, "workload.generate");
    return prefrep::MakeMultiRelationComponentsInstance(rng, 8, 50, 14, 18);
  }();
  Result<std::shared_ptr<const Snapshot>> snapshot = [&] {
    ScopedSpan span(tracer, "server.create");
    return Snapshot::Create(std::move(*instance.db), std::move(instance.fds));
  }();
  CHECK(snapshot.ok()) << snapshot.status().ToString();
  auto served = std::make_shared<Served>();
  served->version.snapshot = *snapshot;
  {
    ScopedSpan span(tracer, "priority.build");
    served->empty = Priority::Empty(served->version.snapshot->graph());
  }
  tracer.Count("priority.arcs", 0);
  served->version.session =
      std::make_shared<Session>(served->version.snapshot);
  const Database& db = served->version.snapshot->db();
  state->pool = UpdatePool(rng, db);
  for (const ReadSpec& spec : state->pool) {
    Result<std::unique_ptr<Query>> query = ParseRead(tracer, db, spec);
    CqaPlan plan;
    if (!query.ok() || !SyncRead(tracer, *served->version.session, **query,
                                 served->empty, spec, &plan)
                            .ok()) {
      ++ctx.errors;
    }
  }
  state->served = std::move(served);
  return state;
}

RunResult UpdateServe(Context& ctx, Clock::time_point process_start) {
  Measured m;
  std::unique_ptr<UpdateState> state = RepeatSetup<UpdateState>(
      ctx, process_start, kSetupRepeats, &m.setup_s,
      [&] { return UpdateSetup(ctx); });
  ctx.tracer.set_enabled(false);
  const int start_tuples = state->served->version.snapshot->db().tuple_count();
  DeltaGenerator generator(ctx.config.seed * 7919 + 17, start_tuples);

  Lockstep step;
  step.current = std::move(state->served);
  step.version = 1;
  auto load = [&] {
    std::lock_guard<std::mutex> lock(step.mu);
    return step.current;
  };
  // Cache counters of every retired session; only the writer touches
  // them. `baseline` holds the first session's warm-up counters until that
  // session retires.
  CacheTotals totals;
  SessionCacheStats baseline = step.current->version.session->cache_stats();

  const int pool = static_cast<int>(state->pool.size());
  ReadWindows(ctx, ctx.config.seconds, &m, [&](double seconds,
                                               Samples* out) {
    {
      std::lock_guard<std::mutex> lock(step.mu);
      step.readers_done = 0;
    }
    std::vector<Samples> per_client(kUpdateReaders);
    Samples writes;
    out->seconds = RunClients(kUpdateReaders + 1, seconds, [&](int client,
                                                               auto end) {
      Tracer& tracer = ctx.tracer;
      if (client == kUpdateReaders) {  // the writer
        while (Clock::now() < end) {
          std::shared_ptr<const Served> parent = load();
          auto served = std::make_shared<Served>();
          bool in_time = true;
          double ms = 0;
          Result<Version> next = Roll(
              ctx, generator, parent->version, &ms,
              [&](const Snapshot& derived) {
                {
                  ScopedSpan span(tracer, "priority.build");
                  served->empty = Priority::Empty(derived.graph());
                }
                std::unique_lock<std::mutex> lock(step.mu);
                in_time = step.cv.wait_until(lock, end, [&] {
                  return step.readers_done >= kUpdateReaders;
                });
              });
          ++ctx.attempted;
          if (!next.ok()) {
            ++ctx.errors;
            break;
          }
          if (!in_time) break;  // the window closed mid-epoch
          served->version = *std::move(next);
          {
            std::lock_guard<std::mutex> lock(step.mu);
            step.current = std::move(served);
            ++step.version;
            step.readers_done = 0;
          }
          step.cv.notify_all();
          writes.Add(ms, WindowOffset(seconds, end));
          // The readers finished with the parent before the seed.
          totals.Add(parent->version.session->cache_stats(), baseline);
          baseline = {};
        }
        writes.seconds = WindowOffset(seconds, end);
        return;
      }
      Rng rng(ctx.config.seed * 31 + static_cast<uint64_t>(client) + 2);
      uint64_t my_version = 0;
      int reads_left = 0;
      for (uint64_t n = 0;; ++n) {
        std::shared_ptr<const Served> served;
        {
          std::unique_lock<std::mutex> lock(step.mu);
          if (reads_left == 0 && step.version == my_version) {
            ++step.readers_done;
            step.cv.notify_all();
            step.cv.wait_until(lock, end,
                               [&] { return step.version != my_version; });
          }
          if (Clock::now() >= end) break;
          if (step.version != my_version) {
            my_version = step.version;
            reads_left = kReadsPerVersion;
          }
          served = step.current;
        }
        --reads_left;
        const ReadSpec& spec = state->pool[rng.UniformInt(pool)];
        const Snapshot& snapshot = *served->version.snapshot;
        ++ctx.attempted;
        RequestScope request(tracer, ctx.next_request++);
        ScopedSpan root(tracer, "read");
        const auto start = Clock::now();
        CqaPlan plan;
        Result<std::unique_ptr<Query>> query =
            ParseRead(tracer, snapshot.db(), spec);
        Result<Answer> answer =
            query.ok() ? SyncRead(tracer, *served->version.session, **query,
                                  served->empty, spec, &plan)
                       : Result<Answer>(query.status());
        const double us = MicrosSince(start);
        root.End();
        if (!answer.ok()) {
          ++ctx.errors;
          continue;
        }
        per_client[client].Add(us, WindowOffset(seconds, end));
        CountTier(tracer, plan);
        if (n % kVerifyEvery == 0) {
          // The same read on a cold session over the same version.
          Session cold(served->version.snapshot);
          CqaPlan cold_plan;
          Result<Answer> expected =
              SyncRead(Untraced(), cold, **query, served->empty, spec,
                       &cold_plan);
          if (!expected.ok() || !(*expected == *answer)) ++ctx.wrong;
        }
        if (tracer.enabled() && n % 4 == 0) {
          ReplayRead(ctx, snapshot, served->empty, spec, *answer);
        }
      }
    });
    for (const Samples& samples : per_client) out->Append(samples);
    // Only the untraced window reports update metrics.
    if (!ctx.tracer.enabled()) m.updates = std::move(writes);
  });
  const std::shared_ptr<const Served> last = load();
  totals.Add(last->version.session->cache_stats(), baseline);
  m.cache = totals;

  // The final version against a from-scratch build of its database.
  const Snapshot& final_snapshot = *last->version.snapshot;
  Result<std::shared_ptr<const Snapshot>> rebuilt =
      Snapshot::Create(final_snapshot.db(), final_snapshot.fds());
  if (!rebuilt.ok() ||
      (*rebuilt)->db().tuple_count() != final_snapshot.db().tuple_count() ||
      (*rebuilt)->graph().edge_count() != final_snapshot.graph().edge_count() ||
      (*rebuilt)->decomposition().components().size() !=
          final_snapshot.decomposition().components().size()) {
    ++ctx.wrong;
  }
  ctx.log.push_back(
      "update_serve: start " + std::to_string(start_tuples) + " tuples (band " +
      std::to_string(generator.band_low()) + ".." +
      std::to_string(generator.band_high()) + "), final " +
      final_snapshot.Describe() + " after " +
      std::to_string(m.updates.values.size()) + " versions");
  return Report(ctx, m);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"warm_reads", "cold_enum",
                                                 "update_serve"};
  return names;
}

RunResult RunWorkload(const RunConfig& config,
                      Clock::time_point process_start) {
  Context ctx(config);
  // Set-up is traced in the traced run (create, priority, warm-up spans).
  ctx.tracer.set_enabled(config.trace);
  if (config.workload == "warm_reads") return WarmReads(ctx, process_start);
  if (config.workload == "cold_enum") return ColdEnum(ctx, process_start);
  CHECK(config.workload == "update_serve") << config.workload;
  return UpdateServe(ctx, process_start);
}

}  // namespace servebench
