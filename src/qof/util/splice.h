#ifndef QOF_UTIL_SPLICE_H_
#define QOF_UTIL_SPLICE_H_

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace qof {

/// One document's change to a sorted per-name or per-word vector: the
/// slice [lo, hi) goes (the old document's run) and `run` goes in at
/// index `at` of the vector as it stands (the new document's position).
/// Documents own disjoint spans, so `at` never falls strictly inside
/// [lo, hi).
template <typename T>
struct Splice {
  size_t lo = 0;
  size_t hi = 0;
  size_t at = 0;
  std::span<const T> run;

  bool empty() const { return lo == hi && run.empty(); }

  /// Edits `v` in place.
  void Apply(std::vector<T>* v) const {
    assert(at <= lo || at >= hi);
    v->erase(v->begin() + lo, v->begin() + hi);
    const size_t pos = at >= hi ? at - (hi - lo) : at;
    v->insert(v->begin() + pos, run.begin(), run.end());
  }

  /// The edited vector, built in one pass over `old` — what a write to a
  /// vector another state shares costs instead of copy-then-edit.
  std::vector<T> Applied(const std::vector<T>& old) const {
    assert(at <= lo || at >= hi);
    std::vector<T> out;
    out.reserve(old.size() - (hi - lo) + run.size());
    auto from = old.begin();
    if (at <= lo) {
      out.insert(out.end(), from, from + at);
      out.insert(out.end(), run.begin(), run.end());
      out.insert(out.end(), from + at, from + lo);
      out.insert(out.end(), from + hi, old.end());
    } else {
      out.insert(out.end(), from, from + lo);
      out.insert(out.end(), from + hi, from + at);
      out.insert(out.end(), run.begin(), run.end());
      out.insert(out.end(), from + at, old.end());
    }
    return out;
  }
};

}  // namespace qof

#endif  // QOF_UTIL_SPLICE_H_
