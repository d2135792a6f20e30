#include "qof/engine/join.h"

#include <algorithm>
#include <set>
#include <string>
#include <string_view>

#include "qof/util/string_util.h"

namespace qof {
namespace {

// Texts of the members of `attrs` contained in `parent`.
std::set<std::string> GroupTexts(const Corpus& corpus, const Region& parent,
                                 const RegionSet& attrs) {
  std::set<std::string> out;
  const std::vector<Region>& v = attrs.regions();
  auto it = std::lower_bound(
      v.begin(), v.end(), parent.start,
      [](const Region& r, uint64_t start) { return r.start < start; });
  for (; it != v.end() && it->start < parent.end; ++it) {
    if (!parent.Contains(*it)) continue;
    out.insert(std::string(TrimView(corpus.ScanText(it->start, it->end))));
  }
  return out;
}

std::vector<Region> JoinNestedLoop(const Corpus& corpus,
                                   const RegionSet& candidates,
                                   const RegionSet& lhs_attrs,
                                   const RegionSet& rhs_attrs) {
  std::vector<Region> out;
  // Per-candidate set comparison over the sorted attribute sets. The
  // containment filter in GroupTexts makes this correct even for
  // overlapping inputs; the early break keeps the scan near-linear — but
  // every candidate pays two std::set constructions and a std::string
  // per attribute, which is what the sort-merge variant eliminates.
  for (const Region& candidate : candidates) {
    std::set<std::string> lhs = GroupTexts(corpus, candidate, lhs_attrs);
    if (lhs.empty()) continue;
    std::set<std::string> rhs = GroupTexts(corpus, candidate, rhs_attrs);
    bool match = false;
    for (const std::string& s : rhs) {
      if (lhs.count(s) > 0) {
        match = true;
        break;
      }
    }
    if (match) out.push_back(candidate);
  }
  return out;
}

/// Big-endian first-8-bytes of `s` (zero-padded). Ordering abbreviated
/// keys as integers is consistent with lexicographic order on the full
/// strings, so comparators may test the abbreviation first and only
/// touch the text on a tie.
uint64_t AbbrevKey(std::string_view s) {
  uint64_t key = 0;
  const size_t n = s.size() < 8 ? s.size() : 8;
  for (size_t i = 0; i < n; ++i) {
    key |= static_cast<uint64_t>(static_cast<unsigned char>(s[i]))
           << (56 - 8 * i);
  }
  return key;
}

/// One flattened (candidate, attribute-text) pair. The text is a trimmed
/// view into the corpus buffer — no per-pair allocation — and `abbrev`
/// carries its first bytes inline so sort and merge comparisons usually
/// resolve without dereferencing the view at all.
struct JoinEntry {
  size_t candidate;
  uint64_t abbrev;
  std::string_view text;
};

bool TextLess(const JoinEntry& a, const JoinEntry& b) {
  if (a.abbrev != b.abbrev) return a.abbrev < b.abbrev;
  return a.text < b.text;
}

std::vector<Region> JoinSortMerge(const Corpus& corpus,
                                  const RegionSet& candidates,
                                  const RegionSet& lhs_attrs,
                                  const RegionSet& rhs_attrs) {
  const std::vector<Region>& cands = candidates.regions();
  // Flatten one side to (candidate, text) pairs; `want` lets the right
  // side skip candidates with no left attributes, matching the
  // nested-loop's early-out byte accounting exactly.
  auto collect = [&](const RegionSet& attrs, auto&& want) {
    std::vector<JoinEntry> entries;
    const std::vector<Region>& v = attrs.regions();
    entries.reserve(v.size());
    for (size_t ci = 0; ci < cands.size(); ++ci) {
      if (!want(ci)) continue;
      const Region& parent = cands[ci];
      auto it = std::lower_bound(
          v.begin(), v.end(), parent.start,
          [](const Region& r, uint64_t start) { return r.start < start; });
      for (; it != v.end() && it->start < parent.end; ++it) {
        if (!parent.Contains(*it)) continue;
        std::string_view text =
            TrimView(corpus.ScanText(it->start, it->end));
        entries.push_back({ci, AbbrevKey(text), text});
      }
    }
    // Candidates were walked in ascending order, so entries are already
    // grouped and ordered by candidate; the "sort" of sort-merge only
    // has to order each candidate's run by text.
    for (size_t lo = 0; lo < entries.size();) {
      size_t hi = lo + 1;
      while (hi < entries.size() &&
             entries[hi].candidate == entries[lo].candidate) {
        ++hi;
      }
      std::sort(entries.begin() + lo, entries.begin() + hi, TextLess);
      lo = hi;
    }
    return entries;
  };

  std::vector<JoinEntry> lhs =
      collect(lhs_attrs, [](size_t) { return true; });
  std::vector<char> has_lhs(cands.size(), 0);
  for (const JoinEntry& e : lhs) has_lhs[e.candidate] = 1;
  std::vector<JoinEntry> rhs =
      collect(rhs_attrs, [&](size_t ci) { return has_lhs[ci] != 0; });

  // The "merge": both sides are sorted by (candidate, text); a candidate
  // matches when its two text ranges intersect.
  std::vector<Region> out;
  size_t i = 0;
  size_t j = 0;
  while (i < lhs.size() && j < rhs.size()) {
    if (lhs[i].candidate < rhs[j].candidate) {
      ++i;
      continue;
    }
    if (rhs[j].candidate < lhs[i].candidate) {
      ++j;
      continue;
    }
    const size_t ci = lhs[i].candidate;
    bool match = false;
    while (i < lhs.size() && j < rhs.size() && lhs[i].candidate == ci &&
           rhs[j].candidate == ci) {
      if (TextLess(lhs[i], rhs[j])) {
        ++i;
      } else if (TextLess(rhs[j], lhs[i])) {
        ++j;
      } else {
        match = true;
        break;
      }
    }
    if (match) out.push_back(cands[ci]);
    while (i < lhs.size() && lhs[i].candidate == ci) ++i;
    while (j < rhs.size() && rhs[j].candidate == ci) ++j;
  }
  return out;
}

}  // namespace

Result<std::vector<Region>> RunIndexJoin(const Corpus& corpus,
                                         const RegionSet& candidates,
                                         const RegionSet& lhs_attrs,
                                         const RegionSet& rhs_attrs,
                                         JoinAlgorithm algorithm) {
  if (algorithm == JoinAlgorithm::kNestedLoop) {
    return JoinNestedLoop(corpus, candidates, lhs_attrs, rhs_attrs);
  }
  return JoinSortMerge(corpus, candidates, lhs_attrs, rhs_attrs);
}

}  // namespace qof
