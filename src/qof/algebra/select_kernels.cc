#include "qof/algebra/select_kernels.h"

#include <algorithm>

#include "qof/region/cost_model.h"
#include "qof/text/tokenizer.h"
#include "qof/util/gallop.h"
#include "qof/util/string_util.h"

namespace qof {
namespace {

/// Whether an exact-match selection should iterate the posting list and
/// probe the child set, instead of iterating the child and probing the
/// postings: posting-driven wins when the posting list is much smaller
/// than the child.
bool PostingDriven(size_t posting_count, size_t child_size) {
  return posting_count > 0 &&
         CostModel::PreferPostingDriven(posting_count, child_size);
}

// Every loop below walks one side in ascending order and keeps forward
// cursors into the other, galloping from where the previous search
// stopped (see GallopForward). Each call's cursors start at the front
// and reach their first position in O(log n), so a child that begins
// mid-list costs no linear skip.

/// First posting index >= `from` at or after position `pos`.
size_t PostingAtOrAfter(const std::vector<TextPos>& postings, size_t from,
                        uint64_t pos) {
  return GallopForward(postings, from, [&](TextPos p) { return p < pos; });
}

/// First child index >= `from` whose member starts at or after `pos`.
size_t MemberStartingAt(const std::vector<Region>& members, size_t from,
                        uint64_t pos) {
  return GallopForward(members, from,
                       [&](const Region& r) { return r.start < pos; });
}

/// First child index >= `from` not before `key` canonically.
size_t MemberAtOrAfter(const std::vector<Region>& members, size_t from,
                       const Region& key) {
  return GallopForward(members, from,
                       [&](const Region& r) { return r < key; });
}

}  // namespace

std::string SelectSpec::Describe(const std::string& child) const {
  switch (kind) {
    case ExprKind::kSelectMatches:
      return "sigma(\"" + word + "\", " + child + ")";
    case ExprKind::kSelectContains:
      return "contains(\"" + word + "\", " + child + ")";
    case ExprKind::kSelectPhrase:
      return "phrase(\"" + word + "\", " + child + ")";
    case ExprKind::kSelectStartsWith:
      return "starts(\"" + word + "\", " + child + ")";
    case ExprKind::kSelectContainsPrefix:
      return "hasprefix(\"" + word + "\", " + child + ")";
    case ExprKind::kSelectNear:
      return "near(\"" + word + "\", \"" + word2 + "\", " +
             std::to_string(param) + ", " + child + ")";
    case ExprKind::kSelectAtLeast:
      return "atleast(\"" + word + "\", " + std::to_string(param) + ", " +
             child + ")";
    default:
      return "<not-a-selection>";
  }
}

Result<std::vector<Region>> RunSelectKernel(const SelectSpec& spec,
                                            const RegionSet& child,
                                            const WordIndex* words,
                                            const Corpus* corpus,
                                            uint64_t* bytes_scanned,
                                            const std::string& context) {
  if (words == nullptr) {
    return Status::InvalidArgument("selection requires a word index: " +
                                   context);
  }
  const std::string& literal = spec.word;
  if (literal.empty()) {
    return Status::InvalidArgument("selection with empty word");
  }

  // Multi-word σ degenerates to phrase semantics.
  ExprKind kind = spec.kind;
  auto tokens = Tokenizer::Tokenize(literal);
  if (tokens.empty()) {
    return Status::InvalidArgument("selection word has no indexable token: " +
                                   literal);
  }
  if (kind == ExprKind::kSelectMatches && tokens.size() > 1) {
    kind = ExprKind::kSelectPhrase;
  }

  // Disk-resident indexes page posting lists in lazily; materialize the
  // words this selection will probe up front so an I/O failure surfaces
  // as a typed error here (the infallible Lookup answers empty) and the
  // kAuto ladder can degrade to a scan-based strategy.
  if (words->disk_resident()) {
    for (const auto& t : tokens) {
      QOF_RETURN_IF_ERROR(words->EnsureLoaded(t.text));
    }
    if (kind == ExprKind::kSelectNear) {
      for (const auto& t : Tokenizer::Tokenize(spec.word2)) {
        QOF_RETURN_IF_ERROR(words->EnsureLoaded(t.text));
      }
    }
  }

  std::vector<Region> out;
  if (kind == ExprKind::kSelectNear) {
    // PAT proximity: the region holds an occurrence of each word at most
    // `param` bytes apart (start-to-start distance).
    auto t2 = Tokenizer::Tokenize(spec.word2);
    if (tokens.size() != 1 || t2.size() != 1) {
      return Status::InvalidArgument("near expects two single words: " +
                                     context);
    }
    const std::vector<TextPos>& p1 =
        words->Lookup(std::string(tokens[0].text));
    const std::vector<TextPos>& p2 = words->Lookup(std::string(t2[0].text));
    const uint64_t d = spec.param;
    const uint64_t len1 = tokens[0].text.size();
    const uint64_t len2 = t2[0].text.size();
    size_t lo1 = 0;  // first w1 occurrence at or after r.start
    size_t lo2 = 0;  // first w2 occurrence at or after r.start
    for (const Region& r : child) {
      // Both occurrences must lie fully inside the region — a word whose
      // start fits but whose tail overhangs r.end is not "in" r (the
      // same clamp bug class as kSelectAtLeast below).
      lo1 = PostingAtOrAfter(p1, lo1, r.start);
      lo2 = PostingAtOrAfter(p2, lo2, r.start);
      bool hit = false;
      size_t j = lo2;  // w2 cursor within r: ascends with the w1 occurrence
      for (size_t i = lo1; !hit && i < p1.size() && p1[i] + len1 <= r.end;
           ++i) {
        // The w2 occurrences inside r within d of p1[i].
        j = PostingAtOrAfter(p2, j, p1[i] >= d ? p1[i] - d : 0);
        hit = j < p2.size() && p2[j] <= p1[i] + d && p2[j] + len2 <= r.end;
      }
      if (hit) out.push_back(r);
    }
  } else if (kind == ExprKind::kSelectAtLeast) {
    // PAT frequency: at least `param` occurrences of the word inside.
    if (tokens.size() != 1) {
      return Status::InvalidArgument("atleast expects a single word: " +
                                     context);
    }
    const std::vector<TextPos>& postings =
        words->Lookup(std::string(tokens[0].text));
    const uint64_t len = tokens[0].text.size();
    const uint64_t need = spec.param;
    size_t lo = 0;  // first occurrence at or after r.start
    for (const Region& r : child) {
      // A region shorter than the word holds no occurrence at all; the
      // old `r.end >= len ? r.end - len : 0` clamp let a posting at
      // position 0 count for such a region when r.start == 0.
      if (r.length() < len) continue;
      lo = PostingAtOrAfter(postings, lo, r.start);
      // Postings ascend, so `need` occurrences fit iff the need-th one
      // from the cursor does.
      if (need == 0 || (need <= postings.size() - lo &&
                        postings[lo + need - 1] <= r.end - len)) {
        out.push_back(r);
      }
    }
  } else if (kind == ExprKind::kSelectStartsWith ||
             kind == ExprKind::kSelectContainsPrefix) {
    // PAT-style lexical search: all postings of words with the prefix.
    if (tokens.size() != 1) {
      return Status::InvalidArgument(
          "prefix selection expects a single word fragment: " + literal);
    }
    const std::string prefix(tokens[0].text);
    std::vector<TextPos> postings = words->LookupPrefix(prefix);
    if (kind == ExprKind::kSelectStartsWith) {
      // A prefixed word begins exactly where the region begins — and the
      // region must be long enough to hold the prefix (a shorter region
      // cannot start with it, whatever word starts at its first byte).
      const uint64_t len = prefix.size();
      if (PostingDriven(postings.size(), child.size())) {
        // Posting-driven direction: each posting names the only start a
        // matching region can have; probe the child's start group.
        // Postings ascend and group members keep their in-set order, so
        // the output is already canonical.
        const std::vector<Region>& cv = child.regions();
        size_t at = 0;  // first member starting at or after the posting
        for (TextPos p : postings) {
          at = MemberStartingAt(cv, at, p);
          // Within a start group ends descend, so the members long
          // enough for the prefix are a prefix of the group.
          for (size_t i = at;
               i < cv.size() && cv[i].start == p && cv[i].end >= p + len;
               ++i) {
            out.push_back(cv[i]);
          }
        }
      } else {
        size_t at = 0;  // first posting at or after r.start
        for (const Region& r : child) {
          if (r.length() < len) continue;
          at = PostingAtOrAfter(postings, at, r.start);
          if (at < postings.size() && postings[at] == r.start) {
            out.push_back(r);
          }
        }
      }
    } else {
      const uint64_t len = prefix.size();
      size_t at = 0;  // first posting at or after r.start
      for (const Region& r : child) {
        if (r.length() < len) continue;
        at = PostingAtOrAfter(postings, at, r.start);
        if (at < postings.size() && postings[at] + len <= r.end) {
          out.push_back(r);
        }
      }
    }
  } else if (kind == ExprKind::kSelectMatches) {
    // Region spans that coincide with an occurrence of the word.
    const std::string word(tokens[0].text);
    const std::vector<TextPos>& postings = words->Lookup(word);
    const uint64_t len = word.size();
    if (PostingDriven(postings.size(), child.size())) {
      // Posting-driven: each posting determines the single span {p, p+len}
      // a match can have; probe the child for it. Postings ascend and a
      // set holds each span at most once, so the output is canonical.
      const std::vector<Region>& cv = child.regions();
      size_t at = 0;  // first member not before the posting's span
      for (TextPos p : postings) {
        const Region span{p, p + len};
        at = MemberAtOrAfter(cv, at, span);
        if (at < cv.size() && cv[at] == span) out.push_back(span);
      }
    } else {
      size_t at = 0;  // first posting at or after r.start
      for (const Region& r : child) {
        if (r.length() != len) continue;
        at = PostingAtOrAfter(postings, at, r.start);
        if (at < postings.size() && postings[at] == r.start) {
          out.push_back(r);
        }
      }
    }
  } else if (kind == ExprKind::kSelectContains && tokens.size() == 1) {
    const std::string word(tokens[0].text);
    const std::vector<TextPos>& postings = words->Lookup(word);
    const uint64_t len = word.size();
    size_t at = 0;  // first posting at or after r.start
    for (const Region& r : child) {
      if (r.length() < len) continue;
      // The earliest occurrence in r is the one most likely to fit.
      at = PostingAtOrAfter(postings, at, r.start);
      if (at < postings.size() && postings[at] + len <= r.end) {
        out.push_back(r);
      }
    }
  } else if (kind == ExprKind::kSelectContains) {
    // Phrase containment: an occurrence of the whole literal inside the
    // region, anchored at the first word's postings and verified against
    // the text (the verification scan is charged, as for kSelectPhrase).
    if (corpus == nullptr) {
      return Status::InvalidArgument(
          "phrase containment requires corpus access: " + context);
    }
    std::string trimmed(TrimView(literal));
    const std::string first(tokens[0].text);
    const std::vector<TextPos>& postings = words->Lookup(first);
    const uint64_t first_off = tokens[0].start;
    const uint64_t len = trimmed.size();
    size_t at = 0;  // first first-word occurrence that can anchor in r
    for (const Region& r : child) {
      if (r.length() < len) continue;
      at = PostingAtOrAfter(postings, at, r.start + first_off);
      bool hit = false;
      for (size_t i = at; !hit && i < postings.size() &&
                          postings[i] - first_off + len <= r.end;
           ++i) {
        TextPos begin = postings[i] - first_off;
        std::string_view text = corpus->ScanText(begin, begin + len);
        if (bytes_scanned) *bytes_scanned += text.size();
        hit = text == trimmed;
      }
      if (hit) out.push_back(r);
    }
  } else {
    // Phrase: candidate regions start at an occurrence of the first word
    // (index-located), then the full span is verified against the text.
    // The verification scan is the only text access in the algebra.
    if (corpus == nullptr) {
      return Status::InvalidArgument(
          "phrase selection requires corpus access: " + context);
    }
    const std::string first(tokens[0].text);
    const std::vector<TextPos>& postings = words->Lookup(first);
    size_t at = 0;  // first occurrence at or after the region's anchor
    for (const Region& r : child) {
      if (r.length() != literal.size()) continue;
      // The first word starts where the region starts (field spans are
      // trimmed by the parser, as are phrase literals by convention).
      TextPos word_start = r.start + tokens[0].start;
      at = PostingAtOrAfter(postings, at, word_start);
      if (at == postings.size() || postings[at] != word_start) continue;
      std::string_view text = corpus->ScanText(r.start, r.end);
      if (bytes_scanned) *bytes_scanned += text.size();
      if (text == literal) out.push_back(r);
    }
  }
  return out;
}

}  // namespace qof
