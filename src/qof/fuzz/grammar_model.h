#ifndef QOF_FUZZ_GRAMMAR_MODEL_H_
#define QOF_FUZZ_GRAMMAR_MODEL_H_

#include <string>
#include <utility>
#include <vector>

#include "qof/fuzz/rng.h"

namespace qof {

/// The random structuring-schema model. Rather than emitting arbitrary
/// grammars (most of which would violate the span-containment rules every
/// structuring schema must satisfy, §4.1), the generator composes schemas
/// from a template that is correct by construction and still spans the
/// interesting RIG shapes:
///
///   File ::= (Obj)*                      -- root collection
///   Obj  ::= "obj{" f1<F1> f2<F2> ... "}"  -- the view object
///   Fi   ::= leaf | "(" (Sub / ";")* ")" | "{" (Obj)* "}"
///
/// The knobs map to the paper's structural properties: a *recursive*
/// field gives a cyclic RIG (self-nested regions, §3.2); two collection
/// fields sharing one Sub non-terminal give the Authors/Editors-style
/// *ambiguity* (two RIG paths to one name, the §6.3 counterexample);
/// tuple subs give multi-level chains. Every non-terminal is wrapped in a
/// unique literal delimiter so parent spans strictly contain child spans
/// and generated documents parse deterministically.
enum class LeafKind { kUntil, kWord, kNumber };

/// A shared sub-non-terminal reachable from collection fields.
struct SubSpec {
  std::string name;  // "ItemA", "ItemB"
  bool tuple = false;
  LeafKind leaf = LeafKind::kUntil;      // when !tuple
  LeafKind key_leaf = LeafKind::kWord;   // tuple part 1
  LeafKind val_leaf = LeafKind::kUntil;  // tuple part 2

  std::string KeyName() const { return name + "Key"; }
  std::string ValName() const { return name + "Val"; }
};

/// One attribute of the view object.
struct FieldSpec {
  enum class Kind {
    kLeaf,     // token rule
    kSet,      // collection of a SubSpec
    kRecurse,  // collection of Obj itself (cyclic RIG)
  };
  Kind kind = Kind::kLeaf;
  std::string name;                 // "Alpha", "Beta", ...
  LeafKind leaf = LeafKind::kUntil; // kLeaf only
  int sub = 0;                      // kSet: index into SchemaModel::subs
  int min_count = 0;                // kSet: 0 ('*') or 1 ('+')
};

struct SchemaModel {
  std::vector<SubSpec> subs;
  std::vector<FieldSpec> fields;  // at least one

  /// The schema in the textual format ParseSchemaText accepts.
  std::string Render() const;

  /// Grammar rules excluding the fixed root collection rule (the shrinker
  /// reports repro size in these units): the Obj rule, one per field, and
  /// one (or three, for tuples) per *referenced* sub.
  int NumProductions() const;

  /// Sub indexes actually referenced by some kSet field.
  std::vector<int> UsedSubs() const;
};

struct SchemaGenOptions {
  int min_fields = 1;
  int max_fields = 4;
  int max_subs = 2;
  double set_rate = 0.45;       // a field is a collection
  double recursion_rate = 0.3;  // append a recursive field
  double ambiguity_rate = 0.5;  // collection fields share one sub
  double tuple_rate = 0.4;      // a sub is a two-part tuple
  double number_rate = 0.2;     // a leaf is numeric
};

SchemaModel GenerateSchemaModel(FuzzRng& rng, const SchemaGenOptions& options);

/// All single-step schema reductions (drop a field, collapse a collection
/// or recursive field to a leaf, collapse a tuple sub to a leaf) — the
/// shrinker's "drop productions" moves.
std::vector<SchemaModel> SchemaReductions(const SchemaModel& model);

/// The corpus is described, not stored: per-document object counts plus a
/// content seed regenerate identical text, so the shrinker can drop
/// documents and objects and re-render deterministically.
struct CorpusModel {
  std::vector<int> doc_objects;  // top-level objects per document
  uint32_t content_seed = 1;
  int max_depth = 1;      // nesting under recursive fields
  int max_items = 3;      // collection items per field
  double probe_rate = 0.3;  // leaf content uses the probe word

  /// Bench-scale knobs — defaults leave fuzzing behavior untouched.
  /// `scale` multiplies every document's object count at render time
  /// (the model stays shrinkable in its original units); `zipf_s > 0`
  /// draws leaf words rank-Zipfian (weight ∝ 1/rank^s) from the larger
  /// BenchVocab() instead of uniformly from FuzzVocab(), giving bench
  /// corpora the skewed posting-length distribution real text has.
  int scale = 1;
  double zipf_s = 0.0;
};

CorpusModel GenerateCorpusModel(FuzzRng& rng);

std::vector<CorpusModel> CorpusReductions(const CorpusModel& model);

/// Renders the documents for (schema, corpus): (name, text) pairs.
std::vector<std::pair<std::string, std::string>> RenderDocs(
    const SchemaModel& schema, const CorpusModel& corpus);

/// The closed word list leaf content draws from; delimiters never collide
/// with it, so word-index lookups hit content only where intended.
const std::vector<std::string>& FuzzVocab();

/// The benchmark word list (FuzzVocab plus generated alphanumeric words,
/// a few hundred total) — large enough that a Zipfian rank distribution
/// produces both hot words with long postings and a tail of rare ones.
const std::vector<std::string>& BenchVocab();

/// Deterministic benchmark corpus built on the grammar model: a fixed,
/// fully-featured schema (leaf, shared collection, tuple collection,
/// recursion) plus documents rendered until `target_bytes` is reached.
/// Same spec → same bytes, so 100 MB+ corpora regenerate from a seed
/// instead of being checked in.
struct BenchCorpusSpec {
  uint32_t seed = 1;
  size_t target_bytes = 1 << 20;
  double zipf_s = 1.1;        // word-rank skew; 0 = uniform
  int objects_per_doc = 512;  // scaling granularity (one doc ≈ 40 KiB)
};

struct BenchCorpus {
  std::string schema_text;
  std::vector<std::pair<std::string, std::string>> docs;
  size_t total_bytes = 0;
};

BenchCorpus MakeBenchCorpus(const BenchCorpusSpec& spec);

/// The planted probe word query literals are biased toward, so equality
/// and containment predicates have non-empty answers often enough.
inline constexpr const char* kFuzzProbeWord = "zulu";

}  // namespace qof

#endif  // QOF_FUZZ_GRAMMAR_MODEL_H_
