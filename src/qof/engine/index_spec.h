#ifndef QOF_ENGINE_INDEX_SPEC_H_
#define QOF_ENGINE_INDEX_SPEC_H_

#include <map>
#include <set>
#include <string>

#include "qof/parse/region_extractor.h"
#include "qof/schema/structuring_schema.h"
#include "qof/text/word_index.h"

namespace qof {

/// What to index (paper §5 full indexing, §6 partial indexing, §7
/// selective indexing). The word index is always built — the paper
/// assumes word indexing throughout and trades off *region* indices.
struct IndexSpec {
  enum class Mode {
    kFull,     // every non-terminal except the root
    kPartial,  // exactly `names`
  };

  Mode mode = Mode::kFull;
  std::set<std::string> names;

  /// Contextual restrictions (§7): index name N only inside ancestor A.
  std::map<std::string, std::string> within;

  WordIndexOptions word_options;

  /// Worker threads for index construction: documents are parsed and
  /// tokenized in parallel and the per-document contributions merged in
  /// document order, so the built indexes are identical at any setting.
  /// 1 = serial (the exact pre-parallelism code path); 0 = inherit the
  /// system's parallelism (one per usable CPU by default). A build-time
  /// knob only — it is not serialized with the indexes.
  int parallelism = 0;

  static IndexSpec Full() { return {}; }
  static IndexSpec Partial(std::set<std::string> names) {
    IndexSpec spec;
    spec.mode = Mode::kPartial;
    spec.names = std::move(names);
    return spec;
  }

  /// The region-extraction filter this spec induces.
  ExtractionFilter ToFilter() const;

  /// The set of indexed region names under this spec.
  std::set<std::string> IndexedNames(const StructuringSchema& schema) const;

  std::string ToString() const;
};

}  // namespace qof

#endif  // QOF_ENGINE_INDEX_SPEC_H_
