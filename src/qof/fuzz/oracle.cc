#include "qof/fuzz/oracle.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>

#include "qof/engine/index_io.h"
#include "qof/engine/join.h"
#include "qof/engine/system.h"
#include "qof/exec/fault_injector.h"
#include "qof/fuzz/canon.h"
#include "qof/fuzz/crash_leg.h"
#include "qof/fuzz/matrix.h"
#include "qof/fuzz/rng.h"
#include "qof/fuzz/session_leg.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"
#include "qof/maintain/journal.h"
#include "qof/optimizer/optimizer.h"
#include "qof/query/parser.h"
#include "qof/schema/rig_derivation.h"

namespace qof {
namespace {

/// Cap on inclusion chains enumerated for the normal-form check.
constexpr size_t kMaxChains = 160;

/// Inclusion chains enumerated from the RIG: every edge as a ⊃d pair,
/// every length-2 path under all four direct-flag combinations, plus a
/// few seeded longer chains carrying selections. Deterministic given
/// (rig, seed).
std::vector<InclusionChain> EnumerateChains(const Rig& rig, uint64_t seed) {
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
  for (size_t i = 0; i < n && out.size() < kMaxChains; ++i) {
    Rig::NodeId a = static_cast<Rig::NodeId>(i);
    for (Rig::NodeId b : rig.out_edges(a)) {
      add({rig.name(a), rig.name(b)}, {true});
      for (Rig::NodeId c : rig.out_edges(b)) {
        for (bool d1 : {true, false}) {
          for (bool d2 : {true, false}) {
            add({rig.name(a), rig.name(b), rig.name(c)}, {d1, d2});
          }
        }
        if (out.size() >= kMaxChains) break;
      }
      if (out.size() >= kMaxChains) break;
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
    const CaseDocs& docs,
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
/// mutation session journals every step's record through
/// AppendJournalRecordToFile (where journal.append can tear a frame —
/// the simulated crash mid-append), then a recovery session parses and
/// replays the file (where journal.replay can abort mid-record). The
/// invariants: a torn tail is detected and discarded, the replayable
/// records are exactly the appended prefix, an aborted replay stops at a
/// record boundary and resumes cleanly, and the replayed state is
/// byte-identical (after compaction) to replaying the same records
/// with no fault armed.
Status CheckJournalFault(
    const StructuringSchema& schema,
    const CaseDocs& docs,
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

  // Session 1: journal every step's record. A torn append is a
  // simulated crash: the session ends on the spot.
  std::vector<JournalRecord> records;
  for (size_t i = 0; i < c.mutations.size(); ++i) {
    records.push_back(JournalRecordFor(c.mutations[i], i + 1));
  }
  std::vector<JournalRecord> journaled;
  bool torn = false;
  {
    ScopedFaultInjector inject(spec);
    for (const JournalRecord& record : records) {
      if (!AppendJournalRecordToFile(path.string(), record).ok()) {
        torn = true;
        break;
      }
      journaled.push_back(record);
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

  // Ground truth: the same records applied directly, fault-free. It
  // runs first, so a malformed case (a shrink that dropped the add a
  // later step needs, or shrank the schema under a step's text) is a
  // harness error here, not a failed resume below.
  Corpus corpus3;
  QOF_ASSIGN_OR_RETURN(BuiltIndexes built3, build_state(&corpus3));
  IndexMaintainer m3(&schema, &corpus3, &built3, IndexSpec::Full());
  Status applied = ReplayJournal(parsed->records, &m3);
  if (!applied.ok()) {
    return Status::Internal("journal leg: direct apply failed: " +
                            applied.ToString());
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
       EnumerateChains(rig, seed)) {
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

  const FaultInjector::Spec spec{options.fault_site, options.fault_hit};
  std::vector<std::function<Status(std::string*)>> checks;
  if (!options.fault_site.empty()) {
    // The fault leg replaces the differential checks: one row's lifecycle
    // under the armed fault, plus the journal sub-check for the journal.*
    // sites.
    checks.push_back([&](std::string* failure) {
      return CheckFaultLifecycle(schema, docs, c, options, spec, failure);
    });
    if (options.fault_site.rfind("journal.", 0) == 0) {
      checks.push_back([&](std::string* failure) {
        return CheckJournalFault(schema, docs, c, spec, seed, failure);
      });
    }
  } else {
    checks = {
        [&](std::string* failure) {
          return CheckMatrix(schema, docs, c, options, failure);
        },
        [&](std::string* failure) {
          return CheckSessions(schema, docs, c, options, seed, failure);
        },
        [&](std::string* failure) {
          return CheckCrashConsistency(schema, docs, c, options, seed,
                                       failure);
        },
        // Before the chain walk, so a planted IR bug shrinks on the
        // cheap checks.
        [&](std::string* failure) {
          return CheckIrEquivalence(schema, docs, c, options, failure);
        },
        [&](std::string* failure) {
          return CheckChainConvergence(DeriveFullRig(schema), options, seed,
                                       failure);
        },
    };
  }
  for (const auto& check : checks) {
    QOF_RETURN_IF_ERROR(check(&outcome.failure));
    if (!outcome.failure.empty()) {
      outcome.failed = true;
      return outcome;
    }
  }
  return outcome;
}

}  // namespace qof
