#include "qof/engine/indexer.h"

#include <chrono>
#include <map>
#include <vector>

#include "qof/exec/fault_injector.h"
#include "qof/parse/parser.h"
#include "qof/parse/region_extractor.h"
#include "qof/util/thread_pool.h"

namespace qof {
namespace {

Status ParseFailure(const Corpus& corpus, DocId doc, const Status& status) {
  // Governance interrupts and injected faults keep their code; only real
  // parse failures get the per-document decoration.
  if (status.code() != StatusCode::kParseError) return status;
  return Status::ParseError("document '" + corpus.document_name(doc) +
                            "': " + status.message());
}

/// Parses every document on the pool and merges the per-document region
/// contributions in document order into canonical RegionSets (sort +
/// dedup over the span multiset, so the worker count cannot show).
Status RegionPass(const StructuringSchema& schema, const Corpus& corpus,
                  const ExtractionFilter& filter, ThreadPool* pool,
                  const ExecContext* ctx, BuiltIndexes* built) {
  const size_t num_docs = corpus.num_documents();
  SchemaParser parser(&schema, ctx);
  std::vector<std::map<std::string, std::vector<Region>>> collected(
      num_docs);
  std::vector<Status> statuses(num_docs, Status::OK());
  // The first failure, governance trips included, stops the job: workers
  // claim documents in order, so every document before a failed one was
  // parsed, and the scan below reports the first failure.
  std::atomic<bool> failed{false};
  ParallelFor(
      pool, num_docs,
      [&](int, size_t d) {
        DocId doc = static_cast<DocId>(d);
        if (!corpus.is_live(doc)) return;  // tombstoned — nothing to index
        Status fault = MaybeInjectFault(fault_site::kIndexerBuild);
        if (!fault.ok()) {
          statuses[d] = fault;
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        TextPos begin = corpus.document_start(doc);
        TextPos end = corpus.document_end(doc);
        auto tree = parser.ParseDocument(corpus.RawText(begin, end), begin);
        if (!tree.ok()) {
          statuses[d] = tree.status();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        CollectRegions(schema, **tree, filter, &collected[d]);
      },
      &failed);
  // Scan in document order so the reported error is the first document's
  // whichever worker drew it.
  for (size_t d = 0; d < num_docs; ++d) {
    if (!statuses[d].ok()) {
      return ParseFailure(corpus, static_cast<DocId>(d), statuses[d]);
    }
  }
  // A governance trip no document recorded (the parser must propagate
  // them, never swallow them) still must not let a partially built
  // index escape: re-derive the error.
  if (ctx != nullptr && ctx->stopped()) {
    QOF_RETURN_IF_ERROR(ctx->Check());
    return Status::Internal("index build stopped without a recorded cause");
  }
  std::map<std::string, std::vector<Region>> merged;
  for (auto& doc : collected) {
    for (auto& [name, regions] : doc) {
      std::vector<Region>& all = merged[name];
      if (all.empty()) {
        all = std::move(regions);
      } else {
        all.insert(all.end(), regions.begin(), regions.end());
      }
    }
  }
  // Every indexed name gets an instance, even with no regions, so lookups
  // distinguish "indexed but absent" from "not indexed".
  RegisterIndexedNames(schema, filter, &merged);
  for (auto& [name, regions] : merged) {
    built->regions.Add(name, RegionSet::FromUnsorted(std::move(regions)));
  }
  built->documents = corpus.num_live_documents();
  return Status::OK();
}

}  // namespace

Result<BuiltIndexes> BuildIndexes(const StructuringSchema& schema,
                                  const Corpus& corpus,
                                  const IndexSpec& spec, ThreadPool* pool,
                                  const ExecContext* ctx) {
  auto start = std::chrono::steady_clock::now();
  BuiltIndexes built;
  QOF_RETURN_IF_ERROR(
      RegionPass(schema, corpus, spec.ToFilter(), pool, ctx, &built));
  // Checkpoint between the two passes; the word pass itself is a
  // non-interruptible tail (it is the cheaper of the two).
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  built.words = WordIndex::Build(corpus, spec.word_options, pool);
  built.build_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return built;
}

}  // namespace qof
