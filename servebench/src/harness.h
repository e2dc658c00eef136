// Building blocks of the serving benchmark that are independent of any one
// workload: latency summaries, the Zipf request sampler, the per-epoch
// delta generator and process resource probes. The self-tests in
// selftest.cc pin each of them.

#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/random.h"
#include "relational/database.h"
#include "relational/delta.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// ---- percentiles ----------------------------------------------------------

// The highest whole percentile (capped at 99) that leaves at least ten of
// `n` samples strictly beyond its nearest-rank position; 0 when n < 11,
// which no tail percentile supports.
int TailPercentile(size_t n);

// Nearest-rank percentile of `sorted` (ascending, non-empty), p in [0, 100].
double Percentile(const std::vector<double>& sorted, double p);

// A window's samples split by completion time into `windows` equal
// sub-windows: the median over sub-windows of each one's median, of its
// tail (at the highest percentile every non-empty sub-window supports) and
// of its rate (samples per second). A burst of noise in one sub-window
// moves none of them.
struct WindowedSummary {
  size_t count = 0;
  int windows = 0;
  double p50 = 0;
  int tail_percentile = 0;
  double tail = 0;
  double rate = 0;
};
WindowedSummary SummarizeWindows(const std::vector<double>& values,
                                 const std::vector<double>& at_s,
                                 double seconds, int windows);

// ---- Zipf sampler -----------------------------------------------------------

// Draws ranks in [0, n) with P(rank = i) proportional to 1 / (i + 1)^s, by
// binary search over the precomputed CDF. Deterministic given the Rng.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);
  int Next(prefrep::Rng& rng) const;
  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

// ---- delta generator ------------------------------------------------------

enum class DeltaShape {
  kFlip,             // delete (k, v, w), insert (k, v', w): domain-preserving
  kInsertOnly,       // fresh (k, v, w') rows joining existing key groups
  kDeleteTail,       // the highest ids of the database
  kDeleteScattered,  // id 0 plus spread-out ids: no identity prefix
};
const char* DeltaShapeName(DeltaShape shape);

// Stages one epoch's delta against a database laid out like the
// generators' components instances: every relation R(K, V, W) with
// FD K -> V, W distinct inside a key group, and a group's classes numbered
// from 0. Flips and inserts go to the last two ("target") relations and
// draw classes below the group's starting class count; inserts go to
// groups no larger than their starting size; scattered deletes take id 0
// and then target-relation tuples. A delta stages at most 1% of the
// tuples (at least one flip). Each block of ten epochs draws six flips,
// two insert-only, one delete-tail and one delete-scattered delta in seed
// order. The tuple count stays inside [start - band, start + band],
// band = 2% of the starting count (at least two tuples): a shape that
// would leave the band is replaced by a flip.
class DeltaGenerator {
 public:
  DeltaGenerator(uint64_t seed, int start_tuple_count);

  struct Staged {
    std::unique_ptr<prefrep::DatabaseDelta> delta;
    DeltaShape shape = DeltaShape::kFlip;
  };
  // Stages the next delta against `db`, which must stay alive and
  // unchanged while the delta is used. Every staged operation has been
  // accepted by the DatabaseDelta.
  Staged Next(const prefrep::Database& db);

  int band_low() const { return start_ - band_; }
  int band_high() const { return start_ + band_; }

 private:
  prefrep::Rng rng_;
  int start_;
  int band_;
  std::vector<DeltaShape> schedule_;  // rest of the current block
  // Starting size and class count per (relation, key) group of the target
  // relations: flips and inserts draw classes below the count, inserts
  // grow a group to at most one past its starting size.
  struct Group {
    int size = 0;
    int classes = 0;
  };
  std::map<std::pair<int, int64_t>, Group> groups_;
};

// ---- process probes -------------------------------------------------------

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
