#include "qof/fuzz/fuzzer.h"

#include <set>
#include <vector>

#include "qof/datagen/seed.h"
#include "qof/engine/index_spec.h"
#include "qof/exec/fault_injector.h"
#include "qof/fuzz/matrix.h"
#include "qof/fuzz/repro.h"
#include "qof/fuzz/rng.h"
#include "qof/fuzz/shrink.h"
#include "qof/schema/rig_derivation.h"
#include "qof/schema/schema_text.h"

namespace qof {
namespace {

/// The oracle seed of iteration `i` — also what the repro file records.
uint64_t IterationSeed(const FuzzOptions& options, int i) {
  return (options.seed + 1) * 0x9e3779b97f4a7c15ull ^
         (static_cast<uint64_t>(i) * 0xbf58476d1ce4e5b9ull);
}

/// Random index subsets over the schema's indexable names. The view is
/// included often (0.75) so the two-phase leg usually runs; everything
/// else at 0.45 lands half way between full and view-only — the §6.3
/// exact/inexact boundary the fuzzer is hunting.
std::vector<std::vector<std::string>> MakeSubsets(
    FuzzRng& rng, const StructuringSchema& schema,
    const std::string& view_node, int count) {
  std::set<std::string> pool = IndexSpec::Full().IndexedNames(schema);
  std::vector<std::vector<std::string>> out;
  for (int s = 0; s < count; ++s) {
    std::vector<std::string> subset;
    for (const std::string& name : pool) {
      double keep = name == view_node ? 0.75 : 0.45;
      if (rng.Chance(keep)) subset.push_back(name);
    }
    out.push_back(std::move(subset));
  }
  return out;
}

/// Renders one document's worth of content for a mutation step. Texts
/// are concrete from here on: they parse under the schema by
/// construction, and occasionally come back empty (the update-to-empty
/// edge the maintainer must splice cleanly).
std::string MutationText(FuzzRng& rng, const FuzzCase& fuzz_case,
                         uint32_t step_seed) {
  if (rng.Chance(0.1)) return "";
  if (const CannedCorpus* canned = FindCannedCorpus(fuzz_case.canned)) {
    return canned->mutation(step_seed, rng.Range(1, 2));
  }
  CorpusModel content;
  content.doc_objects = {rng.Range(1, 3)};
  content.content_seed = step_seed;
  content.max_depth = fuzz_case.corpus.max_depth;
  content.max_items = fuzz_case.corpus.max_items;
  content.probe_rate = fuzz_case.corpus.probe_rate;
  return RenderDocs(fuzz_case.schema, content)[0].second;
}

/// The mutation_gen stage: a short random add/update/remove sequence
/// over the case's documents. Targets track liveness so every step
/// applies cleanly (updates and removes always name a live document, a
/// remove never empties the corpus — that edge lives in the unit tests).
void GenerateMutations(FuzzRng& rng, const FuzzOptions& options, int i,
                       FuzzCase* fuzz_case) {
  std::vector<std::string> live;
  if (const CannedCorpus* canned = FindCannedCorpus(fuzz_case->canned)) {
    live.push_back(canned->doc_name);
  } else {
    for (size_t d = 0; d < fuzz_case->corpus.doc_objects.size(); ++d) {
      live.push_back("doc" + std::to_string(d) + ".txt");
    }
  }
  int added = 0;
  int count = rng.Range(1, options.max_mutations);
  for (int step = 0; step < count; ++step) {
    uint32_t step_seed =
        WithSeed(static_cast<uint32_t>(options.seed),
                 static_cast<uint32_t>(i) ^ 0x20000000u ^
                     static_cast<uint32_t>(step) << 8);
    MutationStep m;
    uint64_t roll = live.empty() ? 0 : rng.Below(10);
    if (roll < 4 || live.empty()) {
      m.op = MutationStep::Op::kAdd;
      m.name = "extra-" + std::to_string(added++) + ".txt";
      m.text = MutationText(rng, *fuzz_case, step_seed);
      live.push_back(m.name);
    } else if (roll < 8 || live.size() < 2) {
      m.op = MutationStep::Op::kUpdate;
      size_t at = rng.Below(live.size());
      m.name = live[at];
      m.text = MutationText(rng, *fuzz_case, step_seed);
      // The corpus appends replaced text at the tail; mirror that so the
      // oracle can rebuild the post-mutation corpus in physical order.
      live.erase(live.begin() + static_cast<long>(at));
      live.push_back(m.name);
    } else {
      m.op = MutationStep::Op::kRemove;
      size_t at = rng.Below(live.size());
      m.name = live[at];
      live.erase(live.begin() + static_cast<long>(at));
    }
    fuzz_case->mutations.push_back(std::move(m));
  }
}

}  // namespace

FuzzCase GenerateCase(const FuzzOptions& options, int i) {
  FuzzRng rng(IterationSeed(options, i) ^ 0xfeedc0deull);
  FuzzCase fuzz_case;

  std::string view_node;
  std::string view_name;
  std::vector<std::string> literals;
  Result<StructuringSchema> schema = Status::NotFound("unset");

  if (rng.Chance(options.canned_fraction)) {
    const CannedCorpus& info = rng.Pick(CannedCorpora());
    Result<StructuringSchema> canned = info.schema();
    if (canned.ok()) {
      fuzz_case.canned = info.kind;
      fuzz_case.canned_seed =
          WithSeed(static_cast<uint32_t>(options.seed),
                   static_cast<uint32_t>(i));
      fuzz_case.canned_entries = rng.Range(2, 6);
      view_node = info.view_node;
      view_name = info.view_name;
      literals = info.literals;
      schema = std::move(canned);
    }
  }
  if (fuzz_case.canned.empty()) {
    fuzz_case.schema = GenerateSchemaModel(rng, options.schema_gen);
    fuzz_case.corpus = GenerateCorpusModel(rng);
    fuzz_case.corpus.content_seed =
        WithSeed(static_cast<uint32_t>(options.seed),
                 static_cast<uint32_t>(i) ^ 0x40000000u);
    view_node = "Obj";
    view_name = "Objs";
    literals = FuzzVocab();
    // Bias toward the planted probe word so predicates hit non-trivially.
    literals.push_back(kFuzzProbeWord);
    literals.push_back(kFuzzProbeWord);
    literals.push_back("3");
    literals.push_back("17");
    schema = ParseSchemaText(fuzz_case.schema.Render());
  }

  if (schema.ok()) {
    Rig rig = DeriveFullRig(*schema);
    fuzz_case.query = GenerateQuery(rng, rig, view_node, view_name,
                                    literals, options.query_gen);
    fuzz_case.subsets = MakeSubsets(rng, *schema, view_node, kCaseSubsets);
    if (rng.Chance(options.mutation_fraction)) {
      GenerateMutations(rng, options, i, &fuzz_case);
    }
  } else {
    // Should be unreachable (generated schemas are correct by
    // construction); emit a trivial query so the oracle reports the
    // schema problem itself.
    fuzz_case.query.view = view_name;
  }

  if (rng.Chance(options.invalid_fraction)) {
    fuzz_case.raw_fql = MutateToInvalid(rng, fuzz_case.query.Render());
    fuzz_case.expect_valid = false;
  }
  return fuzz_case;
}

Result<FuzzReport> RunFuzz(const FuzzOptions& options) {
  FuzzReport report;
  report.case_hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  auto hash_bytes = [&report](const std::string& bytes) {
    for (unsigned char b : bytes) {
      report.case_hash ^= b;
      report.case_hash *= 0x100000001b3ull;
    }
    report.case_hash ^= 0xff;  // field separator
    report.case_hash *= 0x100000001b3ull;
  };

  OracleOptions oracle_options;
  oracle_options.bug = options.bug;
  oracle_options.workers = options.workers;

  for (int i = 0; i < options.iterations; ++i) {
    FuzzCase fuzz_case = GenerateCase(options, i);
    ConcreteCase concrete = Concretize(fuzz_case);

    hash_bytes(concrete.canned);
    hash_bytes(std::to_string(concrete.canned_seed));
    hash_bytes(std::to_string(concrete.canned_entries));
    hash_bytes(concrete.schema_text);
    for (const auto& [name, text] : concrete.docs) {
      hash_bytes(name);
      hash_bytes(text);
    }
    hash_bytes(concrete.fql);
    for (const auto& subset : concrete.subsets) {
      for (const auto& name : subset) hash_bytes(name);
      hash_bytes("|");
    }
    for (const MutationStep& m : concrete.mutations) {
      hash_bytes(std::to_string(static_cast<int>(m.op)));
      hash_bytes(m.name);
      hash_bytes(m.text);
    }

    uint64_t seed = IterationSeed(options, i);
    if (!options.fault_site.empty()) {
      // Resolve "random" / hit 0 deterministically from the iteration
      // seed, so a run is reproducible from (options, i) alone and the
      // repro file can pin the resolved pair.
      FuzzRng fault_rng(seed ^ 0xfa017ull);
      oracle_options.fault_site =
          options.fault_site == "random"
              ? FaultSites()[fault_rng.Below(FaultSites().size())]
              : options.fault_site;
      oracle_options.fault_hit = options.fault_hit != 0
                                     ? options.fault_hit
                                     : 1 + fault_rng.Below(3);
    }
    QOF_ASSIGN_OR_RETURN(OracleOutcome outcome,
                         RunOracle(concrete, oracle_options, seed));
    ++report.iterations_run;
    if (!outcome.failed) continue;

    report.failed = true;
    report.failure = outcome.failure;
    report.failing_iteration = i;
    report.failing_seed = seed;
    report.original = fuzz_case;
    report.shrunk = fuzz_case;
    if (options.shrink) {
      ShrinkStats stats;
      report.shrunk = Shrink(fuzz_case, oracle_options, seed,
                             options.shrink_budget, &stats);
      report.shrink_oracle_runs = stats.oracle_runs;
    }
    ReproFile repro;
    repro.concrete_case = Concretize(report.shrunk);
    repro.bug = options.bug;
    repro.fault_site = oracle_options.fault_site;
    repro.fault_hit = oracle_options.fault_hit;
    repro.seed = seed;
    report.repro = WriteRepro(repro);
    return report;
  }
  return report;
}

}  // namespace qof
