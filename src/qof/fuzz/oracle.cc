#include "qof/fuzz/oracle.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/log_gen.h"
#include "qof/datagen/mail_gen.h"
#include "qof/datagen/outline_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/index_io.h"
#include "qof/engine/join.h"
#include "qof/engine/system.h"
#include "qof/exec/fault_injector.h"
#include "qof/fuzz/canon.h"
#include "qof/fuzz/rng.h"
#include "qof/fuzz/crash_leg.h"
#include "qof/fuzz/disk_leg.h"
#include "qof/fuzz/session_leg.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"
#include "qof/maintain/journal.h"
#include "qof/optimizer/optimizer.h"
#include "qof/schema/rig_derivation.h"
#include "qof/schema/schema_text.h"
#include "qof/store/store_format.h"

namespace qof {
namespace {

Result<StructuringSchema> MaterializeSchema(const ConcreteCase& c) {
  if (c.canned.empty()) return ParseSchemaText(c.schema_text);
  if (c.canned == "bibtex") return BibtexSchema();
  if (c.canned == "mail") return MailSchema();
  if (c.canned == "log") return LogSchema();
  if (c.canned == "outline") return OutlineSchema();
  return Status::InvalidArgument("unknown canned corpus: " + c.canned);
}

Result<std::vector<std::pair<std::string, std::string>>> MaterializeDocs(
    const ConcreteCase& c) {
  if (c.canned.empty()) return c.docs;
  int entries = std::max(1, c.canned_entries);
  if (c.canned == "bibtex") {
    BibtexGenOptions o;
    o.num_references = entries;
    o.seed = c.canned_seed;
    o.probe_author_rate = 0.3;
    o.probe_editor_rate = 0.2;
    return std::vector<std::pair<std::string, std::string>>{
        {"corpus.bib", GenerateBibtex(o)}};
  }
  if (c.canned == "mail") {
    MailGenOptions o;
    o.num_messages = entries;
    o.seed = c.canned_seed;
    o.probe_sender_rate = 0.3;
    o.probe_recipient_rate = 0.3;
    return std::vector<std::pair<std::string, std::string>>{
        {"corpus.mbox", GenerateMailbox(o)}};
  }
  if (c.canned == "log") {
    LogGenOptions o;
    o.num_entries = entries * 4;
    o.seed = c.canned_seed;
    o.error_rate = 0.2;
    o.num_sessions = 4;
    return std::vector<std::pair<std::string, std::string>>{
        {"corpus.log", GenerateLog(o)}};
  }
  if (c.canned == "outline") {
    OutlineGenOptions o;
    o.num_top_sections = entries;
    o.seed = c.canned_seed;
    o.max_depth = 3;
    o.probe_title_rate = 0.25;
    return std::vector<std::pair<std::string, std::string>>{
        {"corpus.outline", GenerateOutline(o)}};
  }
  return Status::InvalidArgument("unknown canned corpus: " + c.canned);
}

/// Inclusion chains enumerated from the RIG: every edge as a ⊃d pair,
/// every length-2 path under all four direct-flag combinations, plus a
/// few seeded longer chains carrying selections. Deterministic given
/// (rig, seed).
std::vector<InclusionChain> EnumerateChains(const Rig& rig, uint64_t seed,
                                            size_t max_chains) {
  std::vector<InclusionChain> out;
  auto add = [&](std::vector<std::string> names, std::vector<bool> direct) {
    InclusionChain chain;
    chain.orientation = InclusionChain::Orientation::kContains;
    chain.names = std::move(names);
    chain.direct = std::move(direct);
    chain.sels.assign(chain.names.size(), std::nullopt);
    out.push_back(std::move(chain));
  };
  size_t n = rig.num_nodes();
  for (size_t i = 0; i < n && out.size() < max_chains; ++i) {
    Rig::NodeId a = static_cast<Rig::NodeId>(i);
    for (Rig::NodeId b : rig.out_edges(a)) {
      add({rig.name(a), rig.name(b)}, {true});
      for (Rig::NodeId c : rig.out_edges(b)) {
        for (bool d1 : {true, false}) {
          for (bool d2 : {true, false}) {
            add({rig.name(a), rig.name(b), rig.name(c)}, {d1, d2});
          }
        }
        if (out.size() >= max_chains) break;
      }
      if (out.size() >= max_chains) break;
    }
  }
  // Seeded chains: longer, random flags, a selection at the end —
  // exercises triviality (random names may be unreachable) and the
  // selection-preserving rewrites.
  FuzzRng rng(seed ^ 0x5eedc4a15ull);
  std::vector<std::string> names = rig.NodeNames();
  if (!names.empty()) {
    for (int k = 0; k < 4; ++k) {
      size_t len = 2 + rng.Below(3);
      std::vector<std::string> cn;
      std::vector<bool> cd;
      for (size_t j = 0; j < len; ++j) {
        cn.push_back(rng.Pick(names));
        if (j > 0) cd.push_back(rng.Chance(0.6));
      }
      InclusionChain chain;
      chain.orientation = InclusionChain::Orientation::kContains;
      chain.names = std::move(cn);
      chain.direct = std::move(cd);
      chain.sels.assign(chain.names.size(), std::nullopt);
      chain.sels.back() =
          ChainSelection{ExprKind::kSelectContains, kFuzzProbeWord, "", 0};
      out.push_back(std::move(chain));
    }
  }
  return out;
}

/// The maintenance leg: replay the case's mutation sequence through the
/// incremental maintainer (serial and parallel) and cross-check against
/// a from-scratch rebuild of the mutated corpus. A Status error means
/// the harness broke its own preconditions (e.g. a shrink candidate
/// whose mutation targets a dropped document); a filled `failure` means
/// the maintainer violated an invariant — including compaction failures
/// and index-byte divergence, which is exactly how kDropTombstone
/// surfaces.
Status CheckMaintenance(
    const StructuringSchema& schema,
    const std::vector<std::pair<std::string, std::string>>& docs,
    const ConcreteCase& c, const OracleOptions& options, bool is_projection,
    std::string* failure) {
  const bool injected = options.bug == InjectedBug::kDropTombstone;
  auto fail = [&](const std::string& what) {
    *failure = "[maintain] " + what + " (fql: " + c.fql + ")";
    return Status::OK();
  };

  // The expected post-mutation document list, mirroring the maintainer's
  // append-at-tail physical order: updates move the document to the
  // tail, exactly as the corpus re-appends replaced text.
  std::vector<std::pair<std::string, std::string>> live = docs;
  for (const MutationStep& m : c.mutations) {
    auto it = std::find_if(
        live.begin(), live.end(),
        [&](const auto& doc) { return doc.first == m.name; });
    if (m.op != MutationStep::Op::kAdd && it != live.end()) live.erase(it);
    if (m.op != MutationStep::Op::kRemove) live.emplace_back(m.name, m.text);
  }

  // From-scratch rebuild of the mutated corpus: the ground truth.
  FileQuerySystem fresh(schema);
  for (const auto& [name, text] : live) {
    QOF_RETURN_IF_ERROR(fresh.AddFile(name, text));
  }
  fresh.SetParallelism(1);
  QOF_RETURN_IF_ERROR(fresh.BuildIndexes(IndexSpec::Full()));
  CanonExec rebuilt =
      Canon(fresh.Execute(c.fql, ExecutionMode::kBaseline));
  if (!Agrees("maintain/rebuild-auto", rebuilt,
              Canon(fresh.Execute(c.fql, ExecutionMode::kAuto)), c,
              failure)) {
    return Status::OK();
  }
  auto fresh_store = fresh.ExportIndexes();
  if (!fresh_store.ok()) return fresh_store.status();

  for (int parallelism : {1, options.workers}) {
    std::string plabel = " p=" + std::to_string(parallelism);
    FileQuerySystem maintained(schema);
    // One armed injector per maintained system: the tombstone drop stays
    // one-shot for each.
    std::optional<ScopedFaultInjector> planted;
    if (injected) {
      planted.emplace(FaultInjector::Spec{planted_bug::kDropTombstone});
    }
    for (const auto& [name, text] : docs) {
      QOF_RETURN_IF_ERROR(maintained.AddFile(name, text));
    }
    maintained.SetParallelism(parallelism);
    IndexSpec spec = IndexSpec::Full();
    spec.parallelism = parallelism;
    QOF_RETURN_IF_ERROR(maintained.BuildIndexes(spec));

    for (size_t mi = 0; mi < c.mutations.size(); ++mi) {
      const MutationStep& m = c.mutations[mi];
      Status applied = Status::OK();
      switch (m.op) {
        case MutationStep::Op::kAdd:
          applied = maintained.AddFile(m.name, m.text);
          break;
        case MutationStep::Op::kUpdate:
          applied = maintained.UpdateFile(m.name, m.text);
          break;
        case MutationStep::Op::kRemove:
          applied = maintained.RemoveFile(m.name);
          break;
      }
      if (!applied.ok()) {
        // With the injected tombstone drop, auto-compaction can trip over
        // the lost splice mid-sequence — that is a detection. Otherwise
        // the case itself is malformed (a shrink artifact), which must
        // not be adopted as a failure.
        if (injected) {
          return fail("mutation " + std::to_string(mi) + plabel +
                      " surfaced the dropped tombstone: " +
                      applied.ToString());
        }
        return Status::Internal("mutation " + std::to_string(mi) + " (" +
                                m.name + ") failed: " + applied.ToString());
      }
    }

    // All execution modes must agree on the maintained system; the
    // baseline scan re-parses the (tombstoned) corpus, so it is ground
    // truth even when the indexes were maintained wrongly.
    CanonExec m_base =
        Canon(maintained.Execute(c.fql, ExecutionMode::kBaseline));
    if (!Agrees("maintain/auto" + plabel, m_base,
                Canon(maintained.Execute(c.fql, ExecutionMode::kAuto)), c,
                failure)) {
      return Status::OK();
    }
    if (!Agrees("maintain/two-phase" + plabel, m_base,
                Canon(maintained.Execute(c.fql, ExecutionMode::kTwoPhase)),
                c, failure)) {
      return Status::OK();
    }
    auto plan = maintained.Plan(c.fql);
    if (plan.ok() && plan->exact &&
        (!is_projection || plan->projection != nullptr)) {
      if (!Agrees(
              "maintain/index-only" + plabel, m_base,
              Canon(maintained.Execute(c.fql, ExecutionMode::kIndexOnly)),
              c, failure)) {
        return Status::OK();
      }
    }

    // Values are offset-independent, so they must match the rebuild
    // exactly; region coordinates shift with fragmentation, so only the
    // count is comparable before compaction.
    if (m_base.ok != rebuilt.ok ||
        (m_base.ok && (m_base.values != rebuilt.values ||
                       m_base.regions.size() != rebuilt.regions.size()))) {
      return fail("maintained system" + plabel +
                  " diverges from a from-scratch rebuild; maintained=" +
                  Describe(m_base) + " rebuilt=" + Describe(rebuilt));
    }

    // Compaction must fold the tombstones into an index byte-identical
    // to the from-scratch build. A compaction/export error here is the
    // maintainer's own consistency check firing — a real defect (or the
    // injected one), never a harness problem.
    Status compacted = maintained.CompactIndexes();
    if (!compacted.ok()) {
      return fail("compaction" + plabel + " failed: " +
                  compacted.ToString());
    }
    auto store = maintained.ExportIndexes();
    if (!store.ok()) {
      return fail("export after compaction" + plabel + " failed: " +
                  store.status().ToString());
    }
    if (!SameStoreIgnoringGeneration(*store, *fresh_store)) {
      return fail("compacted index store" + plabel +
                  " differs from the from-scratch build (" +
                  std::to_string(store->size()) + " vs " +
                  std::to_string(fresh_store->size()) + " bytes)");
    }
  }
  return Status::OK();
}

/// The caching leg: a system with both query caches enabled must agree
/// byte-for-byte with an uncached one — cold, warm (the second run must
/// be served from the caches: a plan hit and no new eval misses), after
/// every interleaved mutation, and after a final compaction. This is the
/// leg that catches kStaleCache (the stale-cache planted bug, armed for
/// the whole leg: only `cached` has an eval cache), which keeps serving
/// entries cached under an older index epoch.
Status CheckCaching(
    const StructuringSchema& schema,
    const std::vector<std::pair<std::string, std::string>>& docs,
    const ConcreteCase& c, const OracleOptions& options,
    std::string* failure) {
  auto fail = [&](const std::string& what) {
    *failure = "[cache] " + what + " (fql: " + c.fql + ")";
    return Status::OK();
  };

  std::optional<ScopedFaultInjector> planted;
  if (options.bug == InjectedBug::kStaleCache) {
    planted.emplace(FaultInjector::Spec{planted_bug::kStaleCache});
  }
  FileQuerySystem plain(schema);
  FileQuerySystem cached(schema);
  for (const auto& [name, text] : docs) {
    QOF_RETURN_IF_ERROR(plain.AddFile(name, text));
    QOF_RETURN_IF_ERROR(cached.AddFile(name, text));
  }
  plain.SetParallelism(1);
  cached.SetParallelism(1);
  cached.SetCacheOptions(CacheOptions::Enabled());
  QOF_RETURN_IF_ERROR(plain.BuildIndexes(IndexSpec::Full()));
  QOF_RETURN_IF_ERROR(cached.BuildIndexes(IndexSpec::Full()));

  CanonExec want = Canon(plain.Execute(c.fql, ExecutionMode::kAuto));
  CanonExec cold = Canon(cached.Execute(c.fql, ExecutionMode::kAuto));
  if (!Agrees("cache/cold", want, cold, c, failure)) return Status::OK();
  CacheStats after_cold = cached.cache_stats();
  CanonExec warm = Canon(cached.Execute(c.fql, ExecutionMode::kAuto));
  if (!Agrees("cache/warm", want, warm, c, failure)) return Status::OK();
  if (cold.ok) {
    CacheStats after_warm = cached.cache_stats();
    if (after_warm.plan_hits <= after_cold.plan_hits) {
      return fail("second execution missed the plan cache (hits " +
                  std::to_string(after_cold.plan_hits) + " -> " +
                  std::to_string(after_warm.plan_hits) + ")");
    }
    if (after_warm.eval_misses != after_cold.eval_misses) {
      return fail("second execution recomputed subexpressions (eval "
                  "misses " +
                  std::to_string(after_cold.eval_misses) + " -> " +
                  std::to_string(after_warm.eval_misses) + ")");
    }
  }

  // Interleaved mutations: every one bumps the maintenance generation, so
  // the epoch-keyed eval cache must stop serving its pre-mutation
  // entries. Each step compares cold-after-mutation and warm-again
  // answers against the uncached system.
  for (size_t mi = 0; mi < c.mutations.size(); ++mi) {
    const MutationStep& m = c.mutations[mi];
    for (FileQuerySystem* sys : {&plain, &cached}) {
      Status applied = Status::OK();
      switch (m.op) {
        case MutationStep::Op::kAdd:
          applied = sys->AddFile(m.name, m.text);
          break;
        case MutationStep::Op::kUpdate:
          applied = sys->UpdateFile(m.name, m.text);
          break;
        case MutationStep::Op::kRemove:
          applied = sys->RemoveFile(m.name);
          break;
      }
      if (!applied.ok()) {
        return Status::Internal("cache leg: mutation " +
                                std::to_string(mi) + " (" + m.name +
                                ") failed: " + applied.ToString());
      }
    }
    std::string label = " after mutation " + std::to_string(mi);
    CanonExec w = Canon(plain.Execute(c.fql, ExecutionMode::kAuto));
    if (!Agrees("cache/mutated" + label, w,
                Canon(cached.Execute(c.fql, ExecutionMode::kAuto)), c,
                failure)) {
      return Status::OK();
    }
    if (!Agrees("cache/mutated-warm" + label, w,
                Canon(cached.Execute(c.fql, ExecutionMode::kAuto)), c,
                failure)) {
      return Status::OK();
    }
  }

  // Compaction rebases region offsets without bumping the generation —
  // the epoch's compaction count must flush the eval cache on its own.
  if (!c.mutations.empty()) {
    QOF_RETURN_IF_ERROR(plain.CompactIndexes());
    QOF_RETURN_IF_ERROR(cached.CompactIndexes());
    CanonExec w = Canon(plain.Execute(c.fql, ExecutionMode::kAuto));
    if (!Agrees("cache/compacted", w,
                Canon(cached.Execute(c.fql, ExecutionMode::kAuto)), c,
                failure)) {
      return Status::OK();
    }
  }
  return Status::OK();
}

/// One evaluator's answer for one expression leg, in the shape Agrees
/// compares.
CanonExec CanonSet(const Result<RegionSet>& r) {
  CanonExec out;
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.ok = true;
  out.regions.assign(r->begin(), r->end());
  return out;
}

/// The reference answers for the roots `ir` was lowered with, in root
/// order (candidates, then projection and join when present): the plan's
/// legs through the tree evaluator, then the engine rungs the
/// kProject/kJoin roots compute — attributes within candidates, and the
/// index join.
std::vector<Result<RegionSet>> TreeReference(const QueryPlan& plan,
                                             const IrProgram& ir,
                                             ExprEvaluator& tree,
                                             const Corpus& corpus) {
  std::vector<Result<RegionSet>> out;
  const Result<RegionSet> cands = tree.Evaluate(*plan.candidates);
  out.push_back(cands);
  if (ir.project >= 0) {
    Result<RegionSet> attrs = tree.Evaluate(*plan.projection);
    if (!cands.ok() || !attrs.ok()) {
      out.push_back(!cands.ok() ? cands.status() : attrs.status());
    } else {
      out.push_back(IncludedIn(*attrs, *cands));
    }
  }
  if (ir.join >= 0) {
    Result<RegionSet> lhs = tree.Evaluate(*plan.join_lhs_attrs);
    Result<RegionSet> rhs = tree.Evaluate(*plan.join_rhs_attrs);
    if (!cands.ok() || !lhs.ok() || !rhs.ok()) {
      out.push_back(!cands.ok() ? cands.status()
                    : !lhs.ok() ? lhs.status()
                                : rhs.status());
    } else {
      auto joined = RunIndexJoin(corpus, *cands, *lhs, *rhs);
      if (!joined.ok()) {
        out.push_back(joined.status());
      } else {
        out.push_back(RegionSet::FromUnsorted(std::move(*joined)));
      }
    }
  }
  return out;
}

/// The IR leg: every expression leg of the case's plan (candidates,
/// projection, join attributes) evaluated through the IR pipeline
/// (LowerToIr + RunPasses + IrExecutor) must agree byte-for-byte with
/// the reference ExprEvaluator. With the cache on, both evaluators share
/// one EvalCache in either order, so each is also served entries the
/// other published — the canonical-key interop the IR design promises.
/// This is the leg that catches kBadCse (the bad-cse planted bug, armed
/// around the pass pipeline), whose CSE pass merges selections that
/// differ only in their word operands.
Status CheckIrEquivalence(
    const StructuringSchema& schema,
    const std::vector<std::pair<std::string, std::string>>& docs,
    const ConcreteCase& c, const OracleOptions& options,
    std::string* failure) {
  FileQuerySystem sys(schema);
  for (const auto& [name, text] : docs) {
    QOF_RETURN_IF_ERROR(sys.AddFile(name, text));
  }
  sys.SetParallelism(1);
  QOF_RETURN_IF_ERROR(sys.BuildIndexes(IndexSpec::Full()));
  auto plan = sys.Plan(c.fql);
  if (!plan.ok() || plan->trivially_empty || !plan->view_indexed) {
    return Status::OK();  // no index plan to evaluate
  }
  IrProgram ir =
      LowerToIr(plan->candidates.get(), plan->projection.get(),
                plan->join_lhs_attrs.get(), plan->join_rhs_attrs.get());
  {
    std::optional<ScopedFaultInjector> planted;
    if (options.bug == InjectedBug::kBadCse) {
      planted.emplace(FaultInjector::Spec{planted_bug::kBadCse});
    }
    RunPasses(&ir, IrPlanOptions{}, &sys.region_index(), &sys.word_index());
  }
  std::vector<std::pair<const char*, int>> roots = {
      {"candidates", ir.candidates}};
  if (ir.project >= 0) roots.push_back({"projection", ir.project});
  if (ir.join >= 0) roots.push_back({"join", ir.join});

  struct Config {
    bool with_cache;
    bool ir_first;
    const char* label;
  };
  for (const Config& config :
       {Config{false, false, " cache=off"},
        Config{true, false, " cache=on tree-first"},
        Config{true, true, " cache=on ir-first"}}) {
    std::unique_ptr<EvalCache> cache;
    if (config.with_cache) {
      cache = std::make_unique<EvalCache>(
          CacheOptions::Enabled().max_cached_regions);
    }
    ExprEvaluator tree(&sys.region_index(), &sys.word_index(), &sys.corpus(),
                       DirectAlgorithm::kFast, nullptr, cache.get());
    IrExecutor exec(&ir, &sys.region_index(), &sys.word_index(),
                    &sys.corpus(), nullptr, cache.get());
    exec.SetJoinFn([&sys](const RegionSet& cands, const RegionSet& lhs,
                          const RegionSet& rhs) {
      return RunIndexJoin(sys.corpus(), cands, lhs, rhs);
    });
    std::vector<Result<RegionSet>> got;
    auto run_ir = [&] {
      for (const auto& [name, root] : roots) {
        got.push_back(exec.EvaluateRoot(root));
      }
    };
    if (config.ir_first) run_ir();
    const std::vector<Result<RegionSet>> want =
        TreeReference(*plan, ir, tree, sys.corpus());
    if (!config.ir_first) run_ir();
    for (size_t i = 0; i < roots.size(); ++i) {
      if (!Agrees("ir/" + std::string(roots[i].first) + config.label,
                  CanonSet(want[i]), CanonSet(got[i]), c, failure)) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

/// Journal sub-check of the fault leg, run for the journal.* sites: a
/// mutation session journals every applied record through
/// AppendJournalRecordToFile (where journal.append can tear a frame —
/// the simulated crash mid-append), then a recovery session parses and
/// replays the file (where journal.replay can abort mid-record). The
/// invariants: a torn tail is detected and discarded, the replayable
/// records are exactly the appended prefix, an aborted replay stops at a
/// record boundary and resumes cleanly, and the replayed state is
/// byte-identical (after compaction) to applying the same records
/// directly.
Status CheckJournalFault(
    const StructuringSchema& schema,
    const std::vector<std::pair<std::string, std::string>>& docs,
    const ConcreteCase& c, const FaultInjector::Spec& spec, uint64_t seed,
    std::string* failure) {
  if (c.mutations.empty()) return Status::OK();
  auto fail = [&](const std::string& what) {
    *failure = "[fault-journal " + spec.site + " hit " +
               std::to_string(spec.hit) + "] " + what +
               " (fql: " + c.fql + ")";
    return Status::OK();
  };

  auto build_state = [&](Corpus* corpus) -> Result<BuiltIndexes> {
    for (const auto& [name, text] : docs) {
      QOF_RETURN_IF_ERROR(corpus->AddDocument(name, text).status());
    }
    return BuildIndexes(schema, *corpus, IndexSpec::Full());
  };

  namespace fs = std::filesystem;
  fs::path path = fs::temp_directory_path() /
                  ("qof-fuzz-journal-" + std::to_string(seed) + ".jnl");
  std::error_code ec;
  fs::remove(path, ec);

  // Session 1: apply the mutations, journaling each applied record. A
  // torn append is a simulated crash: the session ends on the spot.
  Corpus corpus1;
  QOF_ASSIGN_OR_RETURN(BuiltIndexes built1, build_state(&corpus1));
  IndexMaintainer m1(&schema, &corpus1, &built1, IndexSpec::Full());
  std::vector<JournalRecord> journaled;
  bool torn = false;
  {
    ScopedFaultInjector inject(spec);
    for (const MutationStep& m : c.mutations) {
      JournalRecord record;
      record.name = m.name;
      record.text = m.text;
      Status applied = Status::OK();
      switch (m.op) {
        case MutationStep::Op::kAdd:
          record.op = JournalOp::kAdd;
          applied = m1.AddDocument(m.name, m.text).status();
          break;
        case MutationStep::Op::kUpdate:
          record.op = JournalOp::kUpdate;
          applied = m1.UpdateDocument(m.name, m.text).status();
          break;
        case MutationStep::Op::kRemove:
          record.op = JournalOp::kRemove;
          record.text.clear();
          applied = m1.RemoveDocument(m.name);
          break;
      }
      if (!applied.ok()) {
        return Status::Internal("journal leg: mutation on '" + m.name +
                                "' failed: " + applied.ToString());
      }
      record.generation = m1.generation();
      Status appended = AppendJournalRecordToFile(path.string(), record);
      if (!appended.ok()) {
        torn = true;
        break;
      }
      journaled.push_back(std::move(record));
    }
  }

  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  fs::remove(path, ec);

  auto parsed = ParseJournal(data);
  if (!parsed.ok()) {
    return fail("journal failed to parse after the injected fault: " +
                parsed.status().ToString());
  }
  if (torn && !parsed->truncated_tail) {
    return fail("torn append was not detected as a truncated tail");
  }
  if (!torn && parsed->truncated_tail) {
    return fail("intact journal reported a truncated tail");
  }
  if (parsed->records != journaled) {
    return fail("replayable records differ from the appended prefix (" +
                std::to_string(parsed->records.size()) + " vs " +
                std::to_string(journaled.size()) + ")");
  }

  // Session 2: recovery by replay, with the same fault spec re-armed so
  // journal.replay can abort mid-way. Mutations are atomic, so an abort
  // leaves the maintainer exactly at the last replayed record and the
  // remainder resumes cleanly once the one-shot fault has fired.
  Corpus corpus2;
  QOF_ASSIGN_OR_RETURN(BuiltIndexes built2, build_state(&corpus2));
  IndexMaintainer m2(&schema, &corpus2, &built2, IndexSpec::Full());
  {
    ScopedFaultInjector inject(spec);
    Status replayed = ReplayJournal(parsed->records, &m2);
    if (!replayed.ok()) {
      if (!inject.injector().fired()) {
        return Status::Internal(
            "journal leg: replay failed without the injected fault: " +
            replayed.ToString());
      }
      uint64_t done = m2.generation();
      if (done > parsed->records.size()) {
        return fail("aborted replay overshot the record count");
      }
      std::vector<JournalRecord> rest(
          parsed->records.begin() + static_cast<long>(done),
          parsed->records.end());
      Status resumed = ReplayJournal(rest, &m2);
      if (!resumed.ok()) {
        return fail("replay did not resume after the injected fault: " +
                    resumed.ToString());
      }
    }
  }
  if (m2.generation() != journaled.size()) {
    return fail("replayed generation " + std::to_string(m2.generation()) +
                " != journaled record count " +
                std::to_string(journaled.size()));
  }

  // Ground truth: the same records applied directly, fault-free.
  Corpus corpus3;
  QOF_ASSIGN_OR_RETURN(BuiltIndexes built3, build_state(&corpus3));
  IndexMaintainer m3(&schema, &corpus3, &built3, IndexSpec::Full());
  for (const JournalRecord& r : parsed->records) {
    Status applied = Status::OK();
    switch (r.op) {
      case JournalOp::kAdd:
        applied = m3.AddDocument(r.name, r.text).status();
        break;
      case JournalOp::kUpdate:
        applied = m3.UpdateDocument(r.name, r.text).status();
        break;
      case JournalOp::kRemove:
        applied = m3.RemoveDocument(r.name);
        break;
    }
    if (!applied.ok()) {
      return Status::Internal("journal leg: direct apply of '" + r.name +
                              "' failed: " + applied.ToString());
    }
  }

  Status c2 = m2.Compact();
  if (!c2.ok()) return fail("replayed state failed to compact: " + c2.ToString());
  Status c3 = m3.Compact();
  if (!c3.ok()) {
    return Status::Internal("journal leg: reference compaction failed: " +
                            c3.ToString());
  }
  auto store2 =
      EncodeIndexStore(built2, IndexSpec::Full(), corpus2, m2.generation());
  auto store3 =
      EncodeIndexStore(built3, IndexSpec::Full(), corpus3, m3.generation());
  if (!store2.ok()) return store2.status();
  if (!store3.ok()) return store3.status();
  if (*store2 != *store3) {
    return fail("replayed state diverges from direct application (" +
                std::to_string(store2->size()) + " vs " +
                std::to_string(store3->size()) + " store bytes)");
  }
  return Status::OK();
}

/// The fault-injection leg (OracleOptions::fault_site): drives the full
/// life cycle — build, query in every mode, save/open, mutations —
/// with a one-shot fault armed, then verifies recovery: the system stays
/// queryable, every surviving answer is correct, failed steps left no
/// partial state behind, and after Compact() the index store is
/// byte-identical to a from-scratch rebuild of exactly the steps that
/// succeeded.
Result<OracleOutcome> RunFaultLeg(const ConcreteCase& c,
                                  const OracleOptions& options,
                                  uint64_t seed) {
  OracleOutcome outcome;
  auto fail = [&](std::string message) {
    outcome.failed = true;
    outcome.failure = "[fault " + options.fault_site + " hit " +
                      std::to_string(options.fault_hit) + "] " +
                      std::move(message) + " (fql: " + c.fql + ")";
    return outcome;
  };

  QOF_ASSIGN_OR_RETURN(StructuringSchema schema, MaterializeSchema(c));
  QOF_ASSIGN_OR_RETURN(auto docs, MaterializeDocs(c));

  auto parsed_fql = ParseFql(c.fql);
  if (!parsed_fql.ok()) {
    // The invalid-query class ends at the parser; faults only matter on
    // executable queries.
    if (c.expect_valid) {
      return fail("generated query failed to parse: " +
                  parsed_fql.status().ToString());
    }
    return outcome;
  }

  FaultInjector::Spec spec{options.fault_site, options.fault_hit};

  FileQuerySystem sys(schema);
  for (const auto& [name, text] : docs) {
    QOF_RETURN_IF_ERROR(sys.AddFile(name, text));
  }
  sys.SetParallelism(1);

  // The fault-free answer on the pre-mutation corpus: any mode that still
  // answers under injection must agree with it (a fault may fail a query
  // or degrade its strategy, but never corrupt a returned answer).
  CanonExec pre = Canon(sys.Execute(c.fql, ExecutionMode::kBaseline));

  // Phase A: the life cycle under an armed injector. Nothing here may
  // crash or hang, and every failure must carry a diagnostic.
  std::vector<MutationStep> applied;
  bool built = false;
  {
    ScopedFaultInjector inject(spec);
    Status b = sys.BuildIndexes(IndexSpec::Full());
    built = b.ok();
    if (!built) {
      if (!inject.injector().fired()) {
        return Status::Internal(
            "fault leg: build failed without the injected fault: " +
            b.ToString());
      }
      if (b.message().empty()) {
        return fail("failed build carried no diagnostic");
      }
      // A failed build must leave the system queryable (the baseline
      // needs no indexes).
      auto q = sys.Execute(c.fql, ExecutionMode::kBaseline);
      CanonExec got = Canon(q);
      if (got.ok &&
          !Agrees("fault/baseline-after-failed-build", pre, got, c,
                  &outcome.failure)) {
        outcome.failed = true;
        return outcome;
      }
    }
    if (built) {
      struct ModeCase {
        ExecutionMode mode;
        const char* label;
      };
      for (const ModeCase& mc :
           {ModeCase{ExecutionMode::kAuto, "auto"},
            ModeCase{ExecutionMode::kTwoPhase, "two-phase"},
            ModeCase{ExecutionMode::kBaseline, "baseline"}}) {
        auto r = sys.Execute(c.fql, mc.mode);
        if (!r.ok()) {
          if (r.status().message().empty()) {
            return fail(std::string("mode ") + mc.label +
                        " failed without a diagnostic");
          }
          continue;
        }
        if (!Agrees(std::string("fault/") + mc.label, pre, Canon(r), c,
                    &outcome.failure)) {
          outcome.failed = true;
          return outcome;
        }
      }

      // Save / open under injection: a failed open must leave the
      // importing system intact and queryable.
      TempStoreFile store_file("fault", seed);
      Status saved = sys.SaveStore(store_file.path);
      if (!saved.ok()) {
        if (saved.message().empty()) {
          return fail("export failure carried no diagnostic");
        }
      } else {
        FileQuerySystem importer(schema);
        for (const auto& [name, text] : docs) {
          QOF_RETURN_IF_ERROR(importer.AddFile(name, text));
        }
        Status imported = importer.OpenStore(store_file.path);
        if (!imported.ok()) {
          if (imported.message().empty()) {
            return fail("open failure carried no diagnostic");
          }
          CanonExec got =
              Canon(importer.Execute(c.fql, ExecutionMode::kBaseline));
          if (got.ok &&
              !Agrees("fault/importer-after-failed-import", pre, got, c,
                      &outcome.failure)) {
            outcome.failed = true;
            return outcome;
          }
        }
      }

      // Mutations: whether a step applied is read off the maintenance
      // generation — auto-compaction can fail *after* a successful
      // splice, which still counts as applied (compaction is atomic and
      // simply did not happen).
      for (const MutationStep& m : c.mutations) {
        uint64_t before = sys.maintain_stats().generation;
        Status s = Status::OK();
        switch (m.op) {
          case MutationStep::Op::kAdd:
            s = sys.AddFile(m.name, m.text);
            break;
          case MutationStep::Op::kUpdate:
            s = sys.UpdateFile(m.name, m.text);
            break;
          case MutationStep::Op::kRemove:
            s = sys.RemoveFile(m.name);
            break;
        }
        if (sys.maintain_stats().generation > before) {
          applied.push_back(m);
        }
        if (!s.ok() && s.message().empty()) {
          return fail("mutation on '" + m.name +
                      "' failed without a diagnostic");
        }
      }
    }
  }

  // Phase B: recovery, injector gone. A build that was failed by the
  // fault must now succeed from the untouched corpus.
  if (!built) {
    Status again = sys.BuildIndexes(IndexSpec::Full());
    if (!again.ok()) {
      return fail("rebuild after the injected build failure failed: " +
                  again.ToString());
    }
  }

  // Ground truth: a fresh system over the documents plus exactly the
  // mutations that applied, in the maintainer's append-at-tail order.
  std::vector<std::pair<std::string, std::string>> live = docs;
  for (const MutationStep& m : applied) {
    auto it = std::find_if(
        live.begin(), live.end(),
        [&](const auto& doc) { return doc.first == m.name; });
    if (m.op != MutationStep::Op::kAdd && it != live.end()) live.erase(it);
    if (m.op != MutationStep::Op::kRemove) live.emplace_back(m.name, m.text);
  }
  FileQuerySystem fresh(schema);
  for (const auto& [name, text] : live) {
    QOF_RETURN_IF_ERROR(fresh.AddFile(name, text));
  }
  fresh.SetParallelism(1);
  QOF_RETURN_IF_ERROR(fresh.BuildIndexes(IndexSpec::Full()));
  CanonExec want = Canon(fresh.Execute(c.fql, ExecutionMode::kBaseline));

  // Cross-mode agreement on the recovered system itself. Against the
  // rebuild only values and the region count are comparable before
  // compaction — region coordinates shift with corpus fragmentation
  // (applied updates tombstone the old span and re-append).
  CanonExec got = Canon(sys.Execute(c.fql, ExecutionMode::kBaseline));
  if (!Agrees("fault/recovered-auto", got,
              Canon(sys.Execute(c.fql, ExecutionMode::kAuto)), c,
              &outcome.failure) ||
      !Agrees("fault/recovered-two-phase", got,
              Canon(sys.Execute(c.fql, ExecutionMode::kTwoPhase)), c,
              &outcome.failure)) {
    outcome.failed = true;
    return outcome;
  }
  if (got.ok != want.ok ||
      (got.ok && (got.values != want.values ||
                  got.regions.size() != want.regions.size()))) {
    return fail("recovered system diverges from a from-scratch rebuild; "
                "recovered=" +
                Describe(got) + " rebuilt=" + Describe(want));
  }

  // Compaction must fold the survivor to an index byte-identical to the
  // from-scratch rebuild — the injected failure left no hidden
  // divergence behind.
  Status compacted = sys.CompactIndexes();
  if (!compacted.ok()) {
    return fail("compaction after recovery failed: " + compacted.ToString());
  }
  auto sys_store = sys.ExportIndexes();
  if (!sys_store.ok()) {
    return fail("export after recovery failed: " +
                sys_store.status().ToString());
  }
  auto fresh_store = fresh.ExportIndexes();
  if (!fresh_store.ok()) return fresh_store.status();
  if (!SameStoreIgnoringGeneration(*sys_store, *fresh_store)) {
    return fail("post-recovery index store differs from a from-scratch "
                "rebuild (" +
                std::to_string(sys_store->size()) + " vs " +
                std::to_string(fresh_store->size()) + " bytes)");
  }
  // Compaction folded the corpus to the rebuild's layout, so the full
  // region comparison is now meaningful.
  if (!Agrees("fault/compacted-baseline", want,
              Canon(sys.Execute(c.fql, ExecutionMode::kBaseline)), c,
              &outcome.failure)) {
    outcome.failed = true;
    return outcome;
  }

  if (options.fault_site.rfind("journal.", 0) == 0) {
    QOF_RETURN_IF_ERROR(CheckJournalFault(schema, docs, c, spec, seed,
                                          &outcome.failure));
    if (!outcome.failure.empty()) {
      outcome.failed = true;
      return outcome;
    }
  }
  return outcome;
}

bool HasRewrite(const std::vector<ChainRewrite>& rewrites, size_t position) {
  for (const ChainRewrite& r : rewrites) {
    if (r.kind == ChainRewrite::Kind::kRelaxDirect &&
        r.position == position) {
      return true;
    }
  }
  return false;
}

/// Thm. 3.6 check: random-order rewrite walks (buggy or not) must land on
/// Optimize()'s normal form, and so must re-optimizing any intermediate.
Status CheckChainConvergence(const Rig& rig, const OracleOptions& options,
                             uint64_t seed, std::string* failure) {
  ChainOptimizer optimizer(&rig);
  FuzzRng rng(seed * 0x9e3779b97f4a7c15ull + 0xc4a5ull);
  for (const InclusionChain& chain :
       EnumerateChains(rig, seed, options.max_chains)) {
    auto outcome = optimizer.Optimize(chain);
    if (!outcome.ok()) return outcome.status();
    if (outcome->trivially_empty) continue;

    InclusionChain cur = chain;
    for (int step = 0; step < 64; ++step) {
      std::vector<ChainRewrite> rewrites = optimizer.ApplicableRewrites(cur);
      size_t legit = rewrites.size();
      if (options.bug == InjectedBug::kRelaxDirect) {
        // The injected bug: every ⊃d is treated as relaxable, guard or no
        // guard.
        for (size_t i = 0; i + 1 < cur.names.size(); ++i) {
          if (cur.direct[i] && !HasRewrite(rewrites, i)) {
            rewrites.push_back(
                {ChainRewrite::Kind::kRelaxDirect, i});
          }
        }
      }
      if (rewrites.empty()) break;
      size_t pick = rng.Below(rewrites.size());
      if (pick < legit) {
        cur = optimizer.ApplyRewrite(cur, rewrites[pick]);
      } else {
        cur.direct[rewrites[pick].position] = false;  // unguarded relax
      }
      auto re = optimizer.Optimize(cur);
      if (!re.ok()) return re.status();
      if (!re->trivially_empty && !(re->chain == outcome->chain)) {
        *failure = "[optimizer] Thm 3.6 normal form divergence: chain " +
                   chain.ToString() + " rewrote to " + cur.ToString() +
                   " which re-optimizes to " + re->chain.ToString() +
                   " instead of " + outcome->chain.ToString();
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<OracleOutcome> RunOracle(const ConcreteCase& c,
                                const OracleOptions& options,
                                uint64_t seed) {
  if (!options.fault_site.empty()) return RunFaultLeg(c, options, seed);
  OracleOutcome outcome;
  auto fail = [&](std::string message) {
    outcome.failed = true;
    outcome.failure = std::move(message);
    return outcome;
  };

  QOF_ASSIGN_OR_RETURN(StructuringSchema schema, MaterializeSchema(c));
  QOF_ASSIGN_OR_RETURN(auto docs, MaterializeDocs(c));

  // Parse once up front: the invalid-query class ends here when the
  // parser (correctly) rejects with a diagnostic.
  auto parsed = ParseFql(c.fql);
  if (!parsed.ok()) {
    if (c.expect_valid) {
      return fail("[parse] generated query failed to parse: " +
                  parsed.status().ToString() + " (fql: " + c.fql + ")");
    }
    if (parsed.status().message().empty()) {
      return fail("[parse] rejection without a diagnostic (fql: " + c.fql +
                  ")");
    }
    return outcome;  // rejected with a diagnostic — exactly right
  }
  const bool is_projection = parsed->IsProjection();

  // FileQuerySystem is immovable (its state mutex and snapshot contract
  // pin its address), so fresh systems come back behind a unique_ptr.
  auto make_system = [&]() {
    auto system = std::make_unique<FileQuerySystem>(schema);
    for (const auto& [name, text] : docs) {
      (void)system->AddFile(name, text);
    }
    return system;
  };

  // 1. Baseline scan: the ground truth.
  std::unique_ptr<FileQuerySystem> base_system = make_system();
  CanonExec baseline =
      Canon(base_system->Execute(c.fql, ExecutionMode::kBaseline));

  // 2. Full indexing, serial and parallel.
  std::unique_ptr<FileQuerySystem> full_owner = make_system();
  FileQuerySystem& full = *full_owner;
  full.SetParallelism(1);
  Status built = full.BuildIndexes(IndexSpec::Full());
  if (!built.ok()) {
    return fail("[index] full index build failed: " + built.ToString());
  }
  if (!Agrees("auto/full p=1", baseline,
              Canon(full.Execute(c.fql, ExecutionMode::kAuto)), c,
              &outcome.failure)) {
    outcome.failed = true;
    return outcome;
  }
  if (!Agrees("two-phase/full p=1", baseline,
              Canon(full.Execute(c.fql, ExecutionMode::kTwoPhase)), c,
              &outcome.failure)) {
    outcome.failed = true;
    return outcome;
  }
  auto full_plan = full.Plan(c.fql);
  if (full_plan.ok() && full_plan->exact &&
      (!is_projection || full_plan->projection != nullptr)) {
    if (!Agrees("index-only/full", baseline,
                Canon(full.Execute(c.fql, ExecutionMode::kIndexOnly)), c,
                &outcome.failure)) {
      outcome.failed = true;
      return outcome;
    }
  }

  full.SetParallelism(options.workers);
  IndexSpec parallel_spec = IndexSpec::Full();
  parallel_spec.parallelism = options.workers;
  built = full.BuildIndexes(parallel_spec);
  if (!built.ok()) {
    return fail("[index] parallel index build failed: " + built.ToString());
  }
  if (!Agrees("auto/full p=" + std::to_string(options.workers), baseline,
              Canon(full.Execute(c.fql, ExecutionMode::kAuto)), c,
              &outcome.failure)) {
    outcome.failed = true;
    return outcome;
  }
  if (!Agrees("two-phase/full p=" + std::to_string(options.workers),
              baseline,
              Canon(full.Execute(c.fql, ExecutionMode::kTwoPhase)), c,
              &outcome.failure)) {
    outcome.failed = true;
    return outcome;
  }

  // 3. Random index subsets (§6): exact or not, answers must match.
  for (size_t si = 0; si < c.subsets.size(); ++si) {
    std::set<std::string> names(c.subsets[si].begin(), c.subsets[si].end());
    std::unique_ptr<FileQuerySystem> partial_owner = make_system();
    FileQuerySystem& partial = *partial_owner;
    partial.SetParallelism(1);
    built = partial.BuildIndexes(IndexSpec::Partial(names));
    if (!built.ok()) {
      return fail("[index] partial build " + std::to_string(si) +
                  " failed: " + built.ToString());
    }
    std::string label = "subset " + std::to_string(si);
    if (!Agrees("auto/" + label, baseline,
                Canon(partial.Execute(c.fql, ExecutionMode::kAuto)), c,
                &outcome.failure)) {
      outcome.failed = true;
      return outcome;
    }
    auto plan = partial.Plan(c.fql);
    if (plan.ok() && plan->view_indexed && !plan->trivially_empty) {
      if (!Agrees("two-phase/" + label, baseline,
                  Canon(partial.Execute(c.fql, ExecutionMode::kTwoPhase)),
                  c, &outcome.failure)) {
        outcome.failed = true;
        return outcome;
      }
      if (options.bug == InjectedBug::kExactSkip && baseline.ok &&
          !is_projection && !plan->exact && plan->candidates != nullptr) {
        // The injected bug: trust phase-1 candidates as the final answer
        // even though the plan is inexact (§6.3 violated).
        ExprEvaluator evaluator(&partial.region_index(),
                                &partial.word_index(), &partial.corpus());
        auto candidates = evaluator.Evaluate(*plan->candidates);
        if (candidates.ok()) {
          std::vector<Region> got(candidates->begin(), candidates->end());
          std::sort(got.begin(), got.end(),
                    [](const Region& a, const Region& b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.end < b.end;
                    });
          if (got != baseline.regions) {
            return fail(
                "[exact-skip/" + label +
                "] injected bug detected: unfiltered phase-1 candidates (" +
                std::to_string(got.size()) + ") differ from baseline (" +
                std::to_string(baseline.regions.size()) +
                ") on an inexact plan (fql: " + c.fql + ")");
          }
        }
      }
    }
  }

  // 4. Incremental maintenance: replay the mutation sequence through the
  // maintainer and cross-check against a from-scratch rebuild, down to
  // the post-compaction index store bytes.
  if (!c.mutations.empty()) {
    QOF_RETURN_IF_ERROR(CheckMaintenance(schema, docs, c, options,
                                         is_projection, &outcome.failure));
    if (!outcome.failure.empty()) {
      outcome.failed = true;
      return outcome;
    }
  }

  // 5. Query caches: cached answers are byte-identical to uncached ones
  // cold, warm, across interleaved mutations, and past a compaction.
  QOF_RETURN_IF_ERROR(
      CheckCaching(schema, docs, c, options, &outcome.failure));
  if (!outcome.failure.empty()) {
    outcome.failed = true;
    return outcome;
  }

  // 5b. Multi-client sessions: interleaved query/mutation schedules
  // through the QueryService, each session's answers byte-identical to a
  // replay at its pinned generation (snapshot isolation).
  QOF_RETURN_IF_ERROR(
      CheckSessions(schema, docs, c, options, seed, &outcome.failure));
  if (!outcome.failure.empty()) {
    outcome.failed = true;
    return outcome;
  }

  // 5c. Disk-resident tier: answers served from a paged store (tiny
  // pages, lazy paging through the buffer pool) are byte-identical to
  // in-memory execution, and a forced full materialization reproduces
  // the exported store exactly.
  QOF_RETURN_IF_ERROR(
      CheckDiskTier(schema, docs, c, options, seed, &outcome.failure));
  if (!outcome.failure.empty()) {
    outcome.failed = true;
    return outcome;
  }

  // 5d. Crash consistency: the mutation sequence replayed as a durable
  // index-directory trace, with a power cut simulated after every
  // mutating I/O op — recovery must always land on an acknowledged
  // prefix, never lose an acknowledged commit, never read a torn state.
  QOF_RETURN_IF_ERROR(CheckCrashConsistency(schema, docs, c, options, seed,
                                            &outcome.failure));
  if (!outcome.failure.empty()) {
    outcome.failed = true;
    return outcome;
  }

  // 7. Dataflow IR engine vs. tree evaluator, every strategy, caches off
  // and on. (Runs before the chain check so a planted IR bug shrinks on
  // the cheap legs.)
  QOF_RETURN_IF_ERROR(
      CheckIrEquivalence(schema, docs, c, options, &outcome.failure));
  if (!outcome.failure.empty()) {
    outcome.failed = true;
    return outcome;
  }

  // 6. Thm. 3.6: rewrite walks converge to the unique normal form.
  if (options.check_chains) {
    Rig rig = DeriveFullRig(schema);
    QOF_RETURN_IF_ERROR(
        CheckChainConvergence(rig, options, seed, &outcome.failure));
    if (!outcome.failure.empty()) {
      outcome.failed = true;
      return outcome;
    }
  }
  return outcome;
}

}  // namespace qof
