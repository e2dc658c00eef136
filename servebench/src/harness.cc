#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "base/logging.h"

namespace servebench {

using prefrep::Database;
using prefrep::DatabaseDelta;
using prefrep::Tuple;
using prefrep::TupleId;
using prefrep::Value;

int TailPercentile(size_t n) {
  if (n < 11) return 0;
  // Nearest rank of percentile p is ceil(p * n / 100); at most n - 10 keeps
  // ten samples beyond it.
  const int p = static_cast<int>((100 * (n - 10)) / n);
  return std::min(p, 99);
}

double Percentile(const std::vector<double>& sorted, double p) {
  CHECK(!sorted.empty());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

WindowedSummary SummarizeWindows(const std::vector<double>& values,
                                 const std::vector<double>& at_s,
                                 double seconds, int windows) {
  CHECK(values.size() == at_s.size());
  WindowedSummary out;
  out.count = values.size();
  if (values.empty() || !(seconds > 0) || windows < 1) return out;
  out.windows = windows;
  const double width = seconds / windows;
  std::vector<std::vector<double>> bins(windows);
  for (size_t i = 0; i < values.size(); ++i) {
    const int bin = std::clamp(static_cast<int>(at_s[i] / width), 0,
                               windows - 1);
    bins[bin].push_back(values[i]);
  }
  size_t smallest = values.size();
  for (const auto& bin : bins) {
    if (!bin.empty()) smallest = std::min(smallest, bin.size());
  }
  out.tail_percentile = TailPercentile(smallest);
  std::vector<double> p50s, tails, rates;
  for (auto& bin : bins) {
    rates.push_back(static_cast<double>(bin.size()) / width);
    if (bin.empty()) continue;
    std::sort(bin.begin(), bin.end());
    p50s.push_back(Percentile(bin, 50));
    tails.push_back(out.tail_percentile > 0
                        ? Percentile(bin, out.tail_percentile)
                        : bin.back());
  }
  for (auto* list : {&p50s, &tails, &rates}) {
    std::sort(list->begin(), list->end());
  }
  out.p50 = Percentile(p50s, 50);
  out.tail = Percentile(tails, 50);
  out.rate = Percentile(rates, 50);
  return out;
}

ZipfSampler::ZipfSampler(int n, double s) {
  CHECK(n > 0);
  cdf_.reserve(n);
  double total = 0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int ZipfSampler::Next(prefrep::Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<int>(it - cdf_.begin()), size() - 1);
}

const char* DeltaShapeName(DeltaShape shape) {
  switch (shape) {
    case DeltaShape::kFlip:
      return "flip";
    case DeltaShape::kInsertOnly:
      return "insert-only";
    case DeltaShape::kDeleteTail:
      return "delete-tail";
    case DeltaShape::kDeleteScattered:
      return "delete-scattered";
  }
  return "?";
}

DeltaGenerator::DeltaGenerator(uint64_t seed, int start_tuple_count)
    : rng_(seed),
      start_(start_tuple_count),
      band_(std::max(2, start_tuple_count / 50)) {}

DeltaGenerator::Staged DeltaGenerator::Next(const Database& db) {
  const int n = db.tuple_count();
  const int ops =
      static_cast<int>(rng_.UniformRange(1, std::max(1, n / 100)));
  if (schedule_.empty()) {
    // Every block of ten epochs has the same shape mix, in seed order.
    schedule_ = {DeltaShape::kFlip,       DeltaShape::kFlip,
                 DeltaShape::kFlip,       DeltaShape::kFlip,
                 DeltaShape::kFlip,       DeltaShape::kFlip,
                 DeltaShape::kInsertOnly, DeltaShape::kInsertOnly,
                 DeltaShape::kDeleteTail, DeltaShape::kDeleteScattered};
    rng_.Shuffle(schedule_);
  }
  Staged out;
  out.shape = schedule_.back();
  schedule_.pop_back();
  // A shape that would leave the band becomes a flip.
  const bool deletes = out.shape == DeltaShape::kDeleteTail ||
                       out.shape == DeltaShape::kDeleteScattered;
  if ((out.shape == DeltaShape::kInsertOnly && n + ops > start_ + band_) ||
      (deletes && (n - ops < start_ - band_ || ops > n))) {
    out.shape = DeltaShape::kFlip;
  }
  out.delta = std::make_unique<DatabaseDelta>(&db);
  DatabaseDelta& delta = *out.delta;
  const int relations = db.relation_count();
  const int first_target = std::max(0, relations - 2);
  if (groups_.empty()) {
    // Size and class count of each key group of the target relations, as
    // they start.
    std::map<std::pair<int, int64_t>, std::set<int64_t>> classes;
    for (int r = first_target; r < relations; ++r) {
      for (const Tuple& tuple : db.relations()[r].tuples()) {
        const std::pair<int, int64_t> key = {r, tuple.value(0).number()};
        ++groups_[key].size;
        classes[key].insert(tuple.value(1).number());
      }
    }
    for (const auto& [key, values] : classes) {
      groups_[key].classes = static_cast<int>(values.size());
    }
  }

  if (out.shape == DeltaShape::kInsertOnly) {
    // Inserts go to target groups below their starting size plus one
    // (emptied ones included), so group sizes, and the conflicts quadratic
    // in them, stay near where they started.
    std::map<std::pair<int, int64_t>, std::set<int64_t>> used_w;
    std::map<std::pair<int, int64_t>, int> sizes;
    for (int r = first_target; r < relations; ++r) {
      for (const Tuple& tuple : db.relations()[r].tuples()) {
        const std::pair<int, int64_t> key = {r, tuple.value(0).number()};
        ++sizes[key];
        used_w[key].insert(tuple.value(2).number());
      }
    }
    std::vector<std::pair<int, int64_t>> short_groups;
    for (const auto& [key, group] : groups_) {
      if (sizes[key] <= group.size) short_groups.push_back(key);
    }
    for (int i = 0; i < ops && !short_groups.empty(); ++i) {
      const size_t pick = rng_.UniformInt(short_groups.size());
      const std::pair<int, int64_t> key = short_groups[pick];
      const Group& group = groups_[key];
      // The smallest free W keeps W inside the active domain's range.
      std::set<int64_t>& used = used_w[key];
      int64_t w = 0;
      while (used.count(w) > 0) ++w;
      used.insert(w);
      const int64_t class_value =
          static_cast<int64_t>(rng_.UniformInt(std::max(1, group.classes)));
      const prefrep::Status status = delta.Insert(
          db.relations()[key.first].schema().relation_name(),
          Tuple::Of(Value::Number(key.second), Value::Number(class_value),
                    Value::Number(w)));
      CHECK(status.ok()) << status.ToString();
      if (++sizes[key] > group.size) {
        short_groups.erase(short_groups.begin() +
                           static_cast<std::ptrdiff_t>(pick));
      }
    }
    if (delta.empty()) out.shape = DeltaShape::kFlip;  // every group full
  }

  switch (out.shape) {
    case DeltaShape::kFlip: {
      // A flip is two operations, so half the budget (at least one flip).
      // Bounded retries: a pick can land on an already flipped tuple or on
      // a group with a single class.
      const int flips = std::max(1, ops / 2);
      for (int attempt = 0, staged = 0; staged < flips && attempt < 8 * flips;
           ++attempt) {
        const int r = static_cast<int>(
            rng_.UniformRange(first_target, relations - 1));
        const prefrep::Relation& relation = db.relations()[r];
        if (relation.size() == 0) continue;
        const int row = static_cast<int>(rng_.UniformInt(relation.size()));
        const TupleId id = db.GlobalId(r, row);
        if (delta.IsDeleted(id)) continue;
        const Tuple& victim = relation.tuple(row);
        // The group's classes are the integers below its starting class
        // count, all inside the active domain: the flip keeps the domain,
        // and the conflict density stays where it started.
        const int classes = groups_[{r, victim.value(0).number()}].classes;
        if (classes < 2) continue;
        int64_t class_value =
            static_cast<int64_t>(rng_.UniformInt(classes - 1));
        if (class_value >= victim.value(1).number()) ++class_value;
        CHECK(delta.Delete(id).ok());
        const prefrep::Status status = delta.Insert(
            relation.schema().relation_name(),
            Tuple::Of(victim.value(0), Value::Number(class_value),
                      victim.value(2)));
        CHECK(status.ok()) << status.ToString();
        ++staged;
      }
      break;
    }
    case DeltaShape::kInsertOnly:  // staged above
      break;
    case DeltaShape::kDeleteTail:
      for (int i = 0; i < ops; ++i) {
        CHECK(delta.Delete(static_cast<TupleId>(n - 1 - i)).ok());
      }
      break;
    case DeltaShape::kDeleteScattered: {
      // Id 0 (so no id keeps its place), then evenly spaced tuples of the
      // target relations: the identity prefix is gone while the other
      // relations lose one tuple per such epoch.
      std::vector<TupleId> targets;
      for (int r = first_target; r < relations; ++r) {
        for (int row = 0; row < db.relations()[r].size(); ++row) {
          const TupleId id = db.GlobalId(r, row);
          if (id != 0) targets.push_back(id);
        }
      }
      std::sort(targets.begin(), targets.end());
      CHECK(delta.Delete(0).ok());
      const int rest = std::min(ops - 1, static_cast<int>(targets.size()));
      for (int i = 0; i < rest; ++i) {
        const size_t at = static_cast<size_t>(i) * targets.size() / rest;
        CHECK(delta.Delete(targets[at]).ok());
      }
      break;
    }
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace servebench
