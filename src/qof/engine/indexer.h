#ifndef QOF_ENGINE_INDEXER_H_
#define QOF_ENGINE_INDEXER_H_

#include <cstdint>

#include "qof/engine/index_spec.h"
#include "qof/exec/exec_context.h"
#include "qof/region/region_index.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"
#include "qof/util/result.h"
#include "qof/util/thread_pool.h"

namespace qof {

/// The pre-processing the paper delegates to the text-indexing system
/// (§1: "we assume that this is a service given by the underlying text
/// indexing system"): parse every document once, record region spans per
/// the spec, and build the word index.
struct BuiltIndexes {
  RegionIndex regions;
  WordIndex words;
  uint64_t build_micros = 0;
  uint64_t documents = 0;
};

/// Documents are parsed and tokenized on `pool` (inline when null) and
/// merged in document order, so the built indexes are the same at any
/// worker count. `ctx` (optional,
/// borrowed) makes the build interruptible: a tripped deadline or
/// cancellation aborts the whole build with a typed error — no partial
/// BuiltIndexes ever escapes.
Result<BuiltIndexes> BuildIndexes(const StructuringSchema& schema,
                                  const Corpus& corpus,
                                  const IndexSpec& spec,
                                  ThreadPool* pool = nullptr,
                                  const ExecContext* ctx = nullptr);

}  // namespace qof

#endif  // QOF_ENGINE_INDEXER_H_
