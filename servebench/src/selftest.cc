// Self-tests of the benchmark harness: the percentile helper, the Zipf and
// delta generators, and the tracer's self-time computation. Prints one line
// per failed check and exits non-zero if any failed.
//
//   python3 servebench/run.py --selftest

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/random.h"
#include "harness.h"
#include "relational/delta.h"
#include "trace.h"
#include "workload/generators.h"

namespace servebench {
namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

// Samples beyond the nearest-rank position of percentile p among n.
size_t Beyond(size_t n, int p) {
  std::vector<double> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = static_cast<double>(i);
  return n - 1 - static_cast<size_t>(Percentile(sorted, p));
}

void TestPercentiles() {
  Expect(TailPercentile(1000) == 99, "p99 at 1000 samples");
  Expect(TailPercentile(500) == 98, "p98 at 500 samples");
  Expect(TailPercentile(100) == 90, "p90 at 100 samples");
  Expect(TailPercentile(20) == 50, "p50 at 20 samples");
  Expect(TailPercentile(10) == 0, "no tail percentile at 10 samples");
  for (size_t n = 11; n <= 3000; n += 7) {
    const int p = TailPercentile(n);
    Expect(Beyond(n, p) >= 10,
           "ten samples beyond p" + std::to_string(p) + " of " +
               std::to_string(n));
    if (p < 99) {
      Expect(Beyond(n, p + 1) < 10,
             "p" + std::to_string(p) + " is the highest for " +
                 std::to_string(n));
    }
  }
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Expect(Percentile(sorted, 50) == 5, "nearest-rank median");
  Expect(Percentile(sorted, 0) == 1, "p0 is the minimum");
  Expect(Percentile(sorted, 100) == 10, "p100 is the maximum");
  const WindowedSummary s =
      SummarizeWindows({5, 1, 4, 2, 3}, {0, 0, 0, 0, 0}, 1.0, 1);
  Expect(s.count == 5 && s.p50 == 3 && s.tail_percentile == 0 && s.tail == 5,
         "a sample too small for a tail reports its maximum");
}

void TestWindows() {
  // Five 1 s sub-windows; the first is a burst ten times slower and
  // sparser. Every other sub-window holds the values 1..100.
  std::vector<double> values, at;
  for (int i = 0; i < 20; ++i) {
    values.push_back(1000);
    at.push_back(0.5);
  }
  for (int w = 1; w < 5; ++w) {
    for (int v = 1; v <= 100; ++v) {
      values.push_back(v);
      at.push_back(w + 0.5);
    }
  }
  const WindowedSummary s = SummarizeWindows(values, at, 5.0, 5);
  Expect(s.count == 420, "windowed count");
  Expect(s.p50 == 50, "the burst leaves the median of medians alone");
  Expect(s.tail_percentile == 50,
         "tail percentile the smallest window supports");
  Expect(s.tail == 50, "windowed tail");
  Expect(s.rate == 100, "median rate per second");
  Expect(SummarizeWindows({}, {}, 5.0, 5).count == 0, "empty window");
}

void TestZipf() {
  const ZipfSampler zipf(256, 1.0);
  prefrep::Rng a(42), b(42), c(43);
  std::vector<int> first, second, other;
  std::vector<int> counts(256, 0);
  for (int i = 0; i < 20000; ++i) {
    first.push_back(zipf.Next(a));
    second.push_back(zipf.Next(b));
    other.push_back(zipf.Next(c));
    Expect(first.back() >= 0 && first.back() < 256, "rank in range");
    ++counts[first.back()];
  }
  Expect(first == second, "same seed, same Zipf draws");
  Expect(first != other, "another seed, other Zipf draws");
  Expect(counts[0] > 4 * counts[9] && counts[9] > counts[200],
         "Zipf ranks are skewed toward rank 0");
}

std::string Fingerprint(const prefrep::DatabaseDelta& delta) {
  std::string out = delta.Describe();
  for (const auto& insert : delta.inserts()) {
    out += " +" + std::to_string(insert.relation) + insert.tuple.ToString();
  }
  for (prefrep::TupleId id : delta.deletes()) out += " -" + std::to_string(id);
  return out;
}

// Tuples per (relation, key) group of the last two relations.
std::map<std::pair<int, int64_t>, int> TargetGroupSizes(
    const prefrep::Database& db) {
  std::map<std::pair<int, int64_t>, int> sizes;
  for (int r = std::max(0, db.relation_count() - 2); r < db.relation_count();
       ++r) {
    for (const prefrep::Tuple& tuple : db.relations()[r].tuples()) {
      ++sizes[{r, tuple.value(0).number()}];
    }
  }
  return sizes;
}

// Chains `epochs` deltas from `generator` over `db`, checking each staged
// delta applies and keeps the tuple count inside the band, and that no
// target group grows past its starting size.
std::vector<std::string> ChainDeltas(const prefrep::Database& start,
                                     uint64_t seed, int epochs) {
  DeltaGenerator generator(seed, start.tuple_count());
  auto db = std::make_unique<prefrep::Database>(start);
  std::vector<std::string> prints;
  int shapes_seen[4] = {0, 0, 0, 0};
  for (int epoch = 0; epoch < epochs; ++epoch) {
    DeltaGenerator::Staged staged = generator.Next(*db);
    ++shapes_seen[static_cast<int>(staged.shape)];
    const int ops = staged.delta->insert_count() + staged.delta->delete_count();
    Expect(ops > 0, "a staged delta is not empty");
    Expect(ops <= std::max(2, db->tuple_count() / 100),
           "a delta stages at most 1% of the tuples (" + std::to_string(ops) +
               " of " + std::to_string(db->tuple_count()) + ")");
    prints.push_back(Fingerprint(*staged.delta));
    prefrep::Result<prefrep::Database> next = staged.delta->Apply();
    Expect(next.ok(), "a staged delta applies to the version it targets");
    if (!next.ok()) break;
    auto successor = std::make_unique<prefrep::Database>(*std::move(next));
    staged.delta.reset();  // it borrows *db
    db = std::move(successor);
    Expect(db->tuple_count() >= generator.band_low() &&
               db->tuple_count() <= generator.band_high(),
           "tuple count " + std::to_string(db->tuple_count()) +
               " inside the band");
  }
  const auto start_sizes = TargetGroupSizes(start);
  for (const auto& [group, size] : TargetGroupSizes(*db)) {
    Expect(size <= start_sizes.at(group) + 1,
           "a target group grows at most one past its starting size");
  }
  for (int shape = 0; shape < 4; ++shape) {
    Expect(shapes_seen[shape] > 0,
           std::string("delta shape drawn: ") +
               DeltaShapeName(static_cast<DeltaShape>(shape)));
  }
  return prints;
}

void TestDeltaGenerator() {
  prefrep::Rng rng(7);
  prefrep::GeneratedInstance multi =
      prefrep::MakeMultiRelationComponentsInstance(rng, 8, 10, 14, 18);
  const std::vector<std::string> a = ChainDeltas(*multi.db, 11, 300);
  const std::vector<std::string> b = ChainDeltas(*multi.db, 11, 300);
  const std::vector<std::string> c = ChainDeltas(*multi.db, 12, 300);
  Expect(a == b, "same seed, same deltas");
  Expect(a != c, "another seed, other deltas");

  std::vector<int> sizes;
  for (int i = 0; i < 26; ++i) sizes.push_back(3 + i % 3);
  prefrep::GeneratedInstance single =
      prefrep::MakeComponentsInstance(rng, sizes);
  ChainDeltas(*single.db, 5, 300);
}

void TestTracerSelfTime() {
  Tracer tracer;
  {
    ScopedSpan disabled(tracer, "ignored");  // tracing is off
  }
  tracer.set_enabled(true);
  {
    RequestScope request(tracer, 9);
    ScopedSpan root(tracer, "root");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      ScopedSpan child(tracer, "child");
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    {
      ScopedSpan child(tracer, "child");
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  }
  tracer.Count("counter", 4);
  Tracer::Collected collected = tracer.Collect();
  Expect(collected.spans.size() == 3, "three spans recorded");
  Expect(collected.samples["counter"] == std::vector<double>{4},
         "counter sample recorded");
  int64_t children_ns = 0;
  const Span* root = nullptr;
  for (const Span& span : collected.spans) {
    Expect(span.request == 9, "spans carry the request id");
    if (std::string(span.name) == "root") {
      root = &span;
    } else {
      children_ns += span.end_ns - span.start_ns;
      Expect(span.self_ns == span.end_ns - span.start_ns,
             "a leaf's self time is its duration");
    }
  }
  Expect(root != nullptr, "root span recorded");
  if (root == nullptr) return;
  for (const Span& span : collected.spans) {
    if (&span != root) {
      Expect(span.parent == root->id, "children point at root");
    }
  }
  Expect(root->self_ns == root->end_ns - root->start_ns - children_ns,
         "root self time excludes its children");
  Expect(root->self_ns >= 1'500'000, "root self time covers its own sleep");
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestPercentiles();
  servebench::TestWindows();
  servebench::TestZipf();
  servebench::TestDeltaGenerator();
  servebench::TestTracerSelfTime();
  if (servebench::failures > 0) {
    std::printf("%d self-test check(s) failed\n", servebench::failures);
    return 1;
  }
  std::printf("all servebench self-tests passed\n");
  return 0;
}
