#ifndef QOF_UTIL_GALLOP_H_
#define QOF_UTIL_GALLOP_H_

#include <algorithm>
#include <cstddef>

namespace qof {

/// Forward galloping search: the first index i >= `from` at which
/// `before(v[i])` is false, where `before` holds on a prefix of v[from..).
/// Probes from+1, from+3, from+7, ... until it overshoots, then binary
/// searches the last step, so a cursor that moves d places costs
/// O(log d) — a sorted merge driven by such cursors costs
/// O(m log(n/m)) for m probes into n members and never re-searches what
/// an earlier probe already passed.
template <typename Vec, typename Before>
size_t GallopForward(const Vec& v, size_t from, Before&& before) {
  const size_t n = v.size();
  if (from >= n || !before(v[from])) return from;
  size_t lo = from;  // before(v[lo]) holds
  size_t step = 1;
  while (lo + step < n && before(v[lo + step])) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(n, lo + step);
  return static_cast<size_t>(
      std::partition_point(v.begin() + static_cast<long>(lo + 1),
                           v.begin() + static_cast<long>(hi), before) -
      v.begin());
}

}  // namespace qof

#endif  // QOF_UTIL_GALLOP_H_
