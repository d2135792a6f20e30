#ifndef QOF_FUZZ_CANON_H_
#define QOF_FUZZ_CANON_H_

#include <algorithm>
#include <string>
#include <vector>

#include "qof/engine/system.h"
#include "qof/fuzz/case.h"
#include "qof/util/result.h"

namespace qof {

/// A query execution reduced to what the differential checks compare.
/// Shared by the matrix (matrix.cc), the IR differential (oracle.cc) and
/// the session check (session_leg.cc), which compares service answers
/// against replays.
struct CanonExec {
  bool ok = false;
  std::string error;
  std::vector<Region> regions;       // sorted
  std::vector<std::string> values;   // RenderedValues (already sorted)
};

/// Sorts regions by (start, end): the order CanonExec compares in.
inline void SortRegions(std::vector<Region>& regions) {
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) {
              return a.start != b.start ? a.start < b.start : a.end < b.end;
            });
}

inline CanonExec Canon(const Result<QueryResult>& r) {
  CanonExec out;
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.ok = true;
  out.regions = r->regions;
  SortRegions(out.regions);
  out.values = r->RenderedValues();
  return out;
}

inline std::string Describe(const CanonExec& e) {
  if (!e.ok) return "error{" + e.error + "}";
  return "ok{regions=" + std::to_string(e.regions.size()) +
         ", values=" + std::to_string(e.values.size()) + "}";
}

/// Compares one plan's execution against the baseline; fills `failure`
/// and returns false on mismatch. Consistent errors (both sides reject
/// the query) count as agreement.
inline bool Agrees(const std::string& label, const CanonExec& baseline,
                   const CanonExec& got, const ConcreteCase& c,
                   std::string* failure) {
  auto fail = [&](const std::string& what) {
    *failure = "[" + label + "] " + what + "; baseline=" +
               Describe(baseline) + " got=" + Describe(got) +
               " (fql: " + c.fql + ")";
    return false;
  };
  if (baseline.ok != got.ok) return fail("ok/error status mismatch");
  if (!baseline.ok) return true;
  if (baseline.regions != got.regions) return fail("regions differ");
  if (baseline.values != got.values) return fail("rendered values differ");
  return true;
}

}  // namespace qof

#endif  // QOF_FUZZ_CANON_H_
