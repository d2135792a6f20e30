#ifndef QOF_TESTS_REGION_DIRECT_ORACLE_H_
#define QOF_TESTS_REGION_DIRECT_ORACLE_H_

// Brute-force O(|r| |s| |universe|) oracles for direct inclusion, shared
// by the region property tests and the separator property test.

#include <vector>

#include "qof/region/region_set.h"

namespace qof {

// r ⊃d s by the paper's definition: r strictly contains s and no universe
// member lies strictly between them.
inline RegionSet OracleDirectlyIncluding(const RegionSet& r,
                                         const RegionSet& s,
                                         const RegionSet& universe) {
  std::vector<Region> out;
  for (const Region& a : r) {
    for (const Region& b : s) {
      if (!a.StrictlyContains(b)) continue;
      bool blocked = false;
      for (const Region& t : universe) {
        if (a.StrictlyContains(t) && t.StrictlyContains(b)) {
          blocked = true;
          break;
        }
      }
      if (!blocked) {
        out.push_back(a);
        break;
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

inline RegionSet OracleDirectlyIncluded(const RegionSet& r,
                                        const RegionSet& s,
                                        const RegionSet& universe) {
  std::vector<Region> out;
  for (const Region& a : r) {
    for (const Region& b : s) {
      if (!b.StrictlyContains(a)) continue;
      bool blocked = false;
      for (const Region& t : universe) {
        if (b.StrictlyContains(t) && t.StrictlyContains(a)) {
          blocked = true;
          break;
        }
      }
      if (!blocked) {
        out.push_back(a);
        break;
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

}  // namespace qof

#endif  // QOF_TESTS_REGION_DIRECT_ORACLE_H_
