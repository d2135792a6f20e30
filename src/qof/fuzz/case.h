#ifndef QOF_FUZZ_CASE_H_
#define QOF_FUZZ_CASE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qof/fuzz/grammar_model.h"
#include "qof/fuzz/query_gen.h"
#include "qof/maintain/journal.h"
#include "qof/schema/structuring_schema.h"
#include "qof/util/result.h"

namespace qof {

/// A corpus as (document name, text) pairs, in physical order.
using CaseDocs = std::vector<std::pair<std::string, std::string>>;

/// One corpus mutation applied after the indexes are built — every row
/// of the oracle's configuration matrix replays these through
/// FileQuerySystem::{Add,Update,Remove}File and cross-checks against a
/// from-scratch rebuild. Steps are stored fully concrete (the generator
/// renders the text up front) so repro files replay byte-identically
/// even after the schema model shrinks.
struct MutationStep {
  enum class Op { kAdd, kUpdate, kRemove };
  Op op = Op::kAdd;
  std::string name;
  std::string text;  // empty for kRemove

  bool operator==(const MutationStep& other) const {
    return op == other.op && name == other.name && text == other.text;
  }
};

/// A fully concrete (schema, corpus, query) triple plus the index subsets
/// to try — everything the oracle needs, with no model-level structure.
/// Repro files serialize exactly this, so a replayed failure runs the
/// same code path as a fresh one.
struct ConcreteCase {
  /// Non-empty selects a datagen corpus ("bibtex" | "mail" | "log" |
  /// "outline") regenerated from (canned_seed, canned_entries); empty
  /// means schema_text/docs carry a random schema.
  std::string canned;
  uint32_t canned_seed = 0;
  int canned_entries = 0;

  std::string schema_text;
  CaseDocs docs;

  std::string fql;
  /// False for the invalid-query class: the parser may reject fql (with a
  /// diagnostic, never a crash); if it happens to parse, the differential
  /// checks still apply.
  bool expect_valid = true;

  std::vector<std::vector<std::string>> subsets;

  /// Applied in order after the build; empty skips the mutation steps.
  std::vector<MutationStep> mutations;
};

/// The model-level form the generator produces and the shrinker reduces.
struct FuzzCase {
  std::string canned;  // same convention as ConcreteCase
  uint32_t canned_seed = 0;
  int canned_entries = 0;

  SchemaModel schema;
  CorpusModel corpus;

  QueryModel query;
  std::string raw_fql;  // set for mutated (invalid-class) queries
  bool expect_valid = true;

  std::vector<std::vector<std::string>> subsets;

  /// Concrete even at the model level: mutation texts are rendered from
  /// the *generation-time* schema, so shrinking the schema model cannot
  /// silently change them. The shrinker drops steps instead.
  std::vector<MutationStep> mutations;
};

/// The journal record a mutation step becomes when it produces
/// `generation` — the one conversion the journal and crash legs use to
/// apply steps through the production ReplayJournal.
JournalRecord JournalRecordFor(const MutationStep& step, uint64_t generation);

/// The document list after `steps`, in the maintainer's append-at-tail
/// physical order: an update moves its document to the tail, exactly as
/// the corpus re-appends replaced text. A from-scratch build of this
/// list is the ground truth a mutated system compacts to.
CaseDocs LiveDocsAfter(CaseDocs docs, const std::vector<MutationStep>& steps);

/// One canned datagen corpus kind, everything the generator and the
/// oracle need about it in one row.
struct CannedCorpus {
  const char* kind;      // "bibtex" | "mail" | "log" | "outline"
  const char* doc_name;  // the one document a canned case starts with
  const char* view_node;
  const char* view_name;  // the alias used in FROM clauses
  std::vector<std::string> literals;
  Result<StructuringSchema> (*schema)();
  /// The case's document for (canned_seed, canned_entries).
  std::string (*corpus)(uint32_t seed, int entries);
  /// A small document (one or two entries) for one mutation step.
  std::string (*mutation)(uint32_t seed, int entries);
};

/// The canned corpora, in the generator's pick order.
const std::vector<CannedCorpus>& CannedCorpora();
/// The row named `kind`, or nullptr (random-schema cases have none).
const CannedCorpus* FindCannedCorpus(std::string_view kind);

/// The case's schema and documents: parsed from the case's text, or
/// regenerated from its canned row.
Result<StructuringSchema> MaterializeSchema(const ConcreteCase& c);
Result<CaseDocs> MaterializeDocs(const ConcreteCase& c);

/// Renders the model to the concrete triple (schema text, documents,
/// FQL). Deterministic: the same case always concretizes to the same
/// bytes.
ConcreteCase Concretize(const FuzzCase& fuzz_case);

}  // namespace qof

#endif  // QOF_FUZZ_CASE_H_
