#include "core/optimality.h"

namespace prefrep {

bool IsPreferredOver(const Priority& priority, const DynamicBitset& r1,
                     const DynamicBitset& r2) {
  DynamicBitset only_r1(r1.size());
  DynamicBitset only_r2(r1.size());
  return IsPreferredOver(priority, r1, r2, only_r1, only_r2);
}

bool IsPreferredOver(const Priority& priority, const DynamicBitset& r1,
                     const DynamicBitset& r2, DynamicBitset& only_r1,
                     DynamicBitset& only_r2) {
  only_r1.AssignDifference(r1, r2);
  only_r2.AssignDifference(r2, r1);
  bool all_dominated = true;
  ForEachSetBit(only_r1, [&](int x) {
    if (all_dominated && !priority.DominatorsOf(x).Intersects(only_r2)) {
      all_dominated = false;
    }
  });
  return all_dominated;
}

bool IsGloballyOptimalAmong(const Priority& priority,
                            const DynamicBitset& repair,
                            const std::vector<DynamicBitset>& repairs) {
  DynamicBitset scratch1(repair.size());
  DynamicBitset scratch2(repair.size());
  for (const DynamicBitset& other : repairs) {
    if (other == repair) continue;
    if (IsPreferredOver(priority, repair, other, scratch1, scratch2)) {
      return false;
    }
  }
  return true;
}

}  // namespace prefrep
