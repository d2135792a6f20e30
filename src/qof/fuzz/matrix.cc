#include "qof/fuzz/matrix.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "qof/algebra/evaluator.h"
#include "qof/fuzz/canon.h"
#include "qof/query/parser.h"
#include "qof/store/fault_vfs.h"
#include "qof/store/store_format.h"
#include "qof/store/vfs.h"

namespace qof {

const std::vector<MatrixRow>& MatrixRows() {
  // Two rows per index value, complementary on the other three axes, so
  // each binary pair shows up across the six.
  static const std::vector<MatrixRow> kRows = {
      // subset     store  cache  parallel
      {kFullIndex, false, false, false},  // the reference row
      {kFullIndex, true, true, true},
      {0, false, true, true},
      {0, true, false, false},
      {1, false, false, true},
      {1, true, true, false},
  };
  return kRows;
}

Status ApplyMutation(FileQuerySystem& system, const MutationStep& step) {
  switch (step.op) {
    case MutationStep::Op::kAdd:
      return system.AddFile(step.name, step.text);
    case MutationStep::Op::kUpdate:
      return system.UpdateFile(step.name, step.text);
    case MutationStep::Op::kRemove:
      return system.RemoveFile(step.name);
  }
  return Status::Internal("unreachable mutation op");
}

namespace {

/// "full/mem/cache-off/p1", "subset1/store/cache-on/p4", ...
std::string RowName(const MatrixRow& row, int workers) {
  return (row.subset == kFullIndex ? std::string("full")
                                   : "subset" + std::to_string(row.subset)) +
         (row.store ? "/store" : "/mem") +
         (row.cache ? "/cache-on" : "/cache-off") + "/p" +
         std::to_string(row.parallel ? workers : 1);
}

// 256-byte pages spread even a small corpus's posting streams over
// several pages, so lazy paging, block skipping and pinned multi-page
// reads all actually happen.
constexpr uint32_t kStorePageSize = 256;
constexpr uint32_t kStorePoolPages = 64;
// Where a store row saves, inside its own in-memory Vfs.
constexpr const char* kStorePath = "matrix.qofstore";

/// What one case's lifecycles share: the inputs, the ground-truth scan
/// they start from, and the fresh builds mutated rows compact to.
struct MatrixCase {
  MatrixCase(const StructuringSchema& schema, const CaseDocs& docs,
             const ConcreteCase& c, const OracleOptions& options,
             const FaultInjector::Spec* fault)
      : schema(schema), docs(docs), c(c), options(options), fault(fault) {}

  const StructuringSchema& schema;
  const CaseDocs& docs;
  const ConcreteCase& c;
  const OracleOptions& options;
  /// Armed over the lifecycle instead of the rows' planted bugs.
  const FaultInjector::Spec* fault;
  bool is_projection = false;
  /// Baseline scan of the unmutated corpus on a system with no indexes.
  CanonExec truth;

  struct FreshBuild {
    std::string store;  // ExportIndexes() of the build
    CanonExec baseline;
  };
  /// Keyed by MatrixRow::subset: every row applies the same steps.
  std::map<int, FreshBuild> fresh;
};

Result<MatrixCase> MakeMatrixCase(const StructuringSchema& schema,
                                  const CaseDocs& docs, const ConcreteCase& c,
                                  const OracleOptions& options,
                                  const FaultInjector::Spec* fault) {
  MatrixCase m(schema, docs, c, options, fault);
  auto parsed = ParseFql(c.fql);
  m.is_projection = parsed.ok() && parsed->IsProjection();
  FileQuerySystem scan(schema);
  for (const auto& [name, text] : docs) {
    QOF_RETURN_IF_ERROR(scan.AddFile(name, text));
  }
  m.truth = Canon(scan.Execute(c.fql, ExecutionMode::kBaseline));
  return m;
}

IndexSpec SpecFor(const MatrixCase& m, const MatrixRow& row) {
  IndexSpec spec = IndexSpec::Full();
  if (row.subset != kFullIndex) {
    const std::vector<std::string>& names = m.c.subsets[row.subset];
    spec = IndexSpec::Partial(
        std::set<std::string>(names.begin(), names.end()));
  }
  spec.parallelism = row.parallel ? m.options.workers : 1;
  return spec;
}

/// One row's run: build, check every strategy, mutate and check again,
/// compact and compare with a fresh build. Failures are written to
/// `failure` as "[<phase> <row>] ..." with phase "index" before the
/// first mutation and "maintain" from then on.
class Lifecycle {
 public:
  Lifecycle(MatrixCase& m, const MatrixRow& row, std::string* failure)
      : m_(m),
        row_(row),
        name_(RowName(row_, m.options.workers)),
        failure_(failure),
        tolerant_(m.fault != nullptr),
        planted_(m.fault != nullptr ? nullptr : PlantedBug()) {}

  Status Run() {
    if (row_.store) in_memory_.emplace(&store_vfs_);
    std::optional<ScopedFaultInjector> armed;
    if (m_.fault != nullptr) {
      armed.emplace(*m_.fault);
    } else if (planted_ != nullptr) {
      armed.emplace(FaultInjector::Spec{planted_});
    }

    Status built = BuildSystem();
    if (!built.ok()) {
      if (sys_ == nullptr) return built;  // the documents did not load
      const std::string step = opening_ ? "open" : "build";
      if (!tolerant_) return Fail(step + " failed: " + built.ToString());
      if (!armed->injector().fired()) {
        return Status::Internal("fault leg: " + step +
                                " failed without the injected fault: " +
                                built.ToString());
      }
      if (built.message().empty()) {
        return Fail("failed " + step + " carried no diagnostic");
      }
      // The baseline needs no indexes, so the system whose build or open
      // failed must still answer it.
      CanonExec got = Canon(sys_->Execute(m_.c.fql, ExecutionMode::kBaseline));
      if (got.ok && !Agrees(Label("baseline after failed " + step), m_.truth,
                            got, m_.c, failure_)) {
        return Status::OK();
      }
    } else {
      if (!Check(&m_.truth, "built")) return Status::OK();
      phase_ = "maintain";
      for (size_t mi = 0; mi < m_.c.mutations.size(); ++mi) {
        const MutationStep& step = m_.c.mutations[mi];
        const std::string when = "mutation " + std::to_string(mi);
        const uint64_t before = sys_->maintain_stats().generation;
        Status s = ApplyMutation(*sys_, step);
        // Read off the generation: auto-compaction can fail after a
        // successful splice, and the step still applied.
        if (sys_->maintain_stats().generation > before) {
          applied_.push_back(step);
        }
        // A step naming a missing (or present) document, or text its
        // schema cannot parse, is a malformed case: a shrink that dropped
        // the add a later step needs, or shrank the schema under it.
        const bool malformed = s.code() == StatusCode::kNotFound ||
                               s.code() == StatusCode::kAlreadyExists ||
                               s.code() == StatusCode::kParseError;
        if (!s.ok()) {
          if (tolerant_) {
            if (s.message().empty()) {
              return Fail(when + " failed without a diagnostic");
            }
          } else if (planted_ != nullptr && !malformed) {
            // An armed bug can trip a consistency check mid-sequence
            // (auto-compaction over a lost tombstone): a detection.
            return Fail(when + " surfaced the planted bug: " + s.ToString());
          } else {
            // Without an armed bug a failed step is never a finding.
            return Status::Internal(when + " (" + step.name +
                                    ") failed: " + s.ToString());
          }
        }
        if (!Check(nullptr, when)) return Status::OK();
      }
    }

    if (tolerant_) {
      // Compaction and export under the fault, then recovery: the
      // injector goes, a build or open it failed must now succeed on the
      // same system, and the survivor answers right in every mode.
      if (built.ok()) {
        QOF_RETURN_IF_ERROR(CompactAndCompare());
        if (!failure_->empty()) return Status::OK();
      }
      armed.reset();
      tolerant_ = false;
      if (!built.ok()) {
        const std::string step = opening_ ? "open" : "build";
        Status again = BuildSystem();
        if (!again.ok()) {
          return Fail("retry after the injected " + step +
                      " failure failed: " + again.ToString());
        }
      }
      if (!Check(nullptr, "recovered")) return Status::OK();
    }
    return CompactAndCompare();
  }

 private:
  /// The planted bug this row's layer holds, if the case plants one.
  const char* PlantedBug() const {
    switch (m_.options.bug) {
      case InjectedBug::kDropTombstone:
        return m_.c.mutations.empty() ? nullptr : planted_bug::kDropTombstone;
      case InjectedBug::kStaleCache:
        return row_.cache ? planted_bug::kStaleCache : nullptr;
      case InjectedBug::kEvictPinned:
        return row_.store ? planted_bug::kEvictPinned : nullptr;
      default:
        return nullptr;  // not armed through the injector on any row
    }
  }

  Result<std::unique_ptr<FileQuerySystem>> NewSystem() const {
    auto system = std::make_unique<FileQuerySystem>(m_.schema);
    for (const auto& [name, text] : m_.docs) {
      QOF_RETURN_IF_ERROR(system->AddFile(name, text));
    }
    system->SetParallelism(row_.parallel ? m_.options.workers : 1);
    if (row_.cache) system->SetCacheOptions(CacheOptions::Enabled());
    return system;
  }

  /// Builds the row's system: builds the indexes and, on store rows,
  /// saves them and opens the store in a second system. On failure
  /// `sys_` is the system whose build or open failed (`opening_` says
  /// which), and a second call resumes at that step on that system.
  Status BuildSystem() {
    if (!opening_) {
      if (sys_ == nullptr) {
        QOF_ASSIGN_OR_RETURN(sys_, NewSystem());
      }
      QOF_RETURN_IF_ERROR(sys_->BuildIndexes(SpecFor(m_, row_)));
      if (!row_.store) return Status::OK();
      QOF_RETURN_IF_ERROR(sys_->SaveStore(kStorePath, kStorePageSize));
      // Nothing paged in yet, so the cursor kernels stream the instances.
      QOF_ASSIGN_OR_RETURN(sys_, NewSystem());
      opening_ = true;
    }
    PagedStoreOptions options;
    // With evict-pinned armed, a one-frame pool makes every read that
    // crosses a page boundary steal one of its own pinned frames.
    options.pool_pages =
        planted_ != nullptr && m_.options.bug == InjectedBug::kEvictPinned
            ? 1
            : kStorePoolPages;
    return sys_->OpenStore(kStorePath, options);
  }

  /// Checks every strategy the row's plan allows against `truth`, or
  /// against the row's own baseline scan when `truth` is null. False
  /// once a failure is written.
  bool Check(const CanonExec* truth, const std::string& when) {
    const std::string& fql = m_.c.fql;
    // Runs `mode`, keeps its answer in `got`, and compares it. Under an
    // armed fault a typed, diagnosed error is an accepted outcome.
    auto agree = [&](ExecutionMode mode, const std::string& what,
                     CanonExec& got) {
      Result<QueryResult> r = sys_->Execute(fql, mode);
      got = Canon(r);
      if (!r.ok() && tolerant_) {
        if (!r.status().message().empty()) return true;
        Fail(when + "/" + what + " failed without a diagnostic");
        return false;
      }
      return Agrees(Label(when + "/" + what), *truth, got, m_.c, failure_);
    };
    CanonExec own;
    if (truth == nullptr) {
      Result<QueryResult> r = sys_->Execute(fql, ExecutionMode::kBaseline);
      if (!r.ok() && tolerant_) {
        if (!r.status().message().empty()) return true;
        Fail(when + "/baseline failed without a diagnostic");
        return false;
      }
      own = Canon(r);
      truth = &own;
    } else if (!agree(ExecutionMode::kBaseline, "baseline", own)) {
      return false;
    }

    CanonExec cold;
    if (!agree(ExecutionMode::kAuto, "auto", cold)) return false;
    auto plan = sys_->Plan(fql);
    CanonExec got;
    if ((!plan.ok() || plan->view_indexed) &&
        !agree(ExecutionMode::kTwoPhase, "two-phase", got)) {
      return false;
    }
    if (plan.ok() && plan->view_indexed && plan->exact &&
        (!m_.is_projection || plan->projection != nullptr) &&
        !agree(ExecutionMode::kIndexOnly, "index-only", got)) {
      return false;
    }
    if (m_.options.bug == InjectedBug::kExactSkip &&
        row_.subset != kFullIndex && truth->ok && !m_.is_projection &&
        plan.ok() && plan->view_indexed && !plan->trivially_empty &&
        !plan->exact && plan->candidates != nullptr) {
      // The planted bug: trust phase-1 candidates as the final answer
      // though the plan is inexact (§6.3 violated).
      ExprEvaluator evaluator(&sys_->region_index(), &sys_->word_index(),
                              &sys_->corpus());
      auto candidates = evaluator.Evaluate(*plan->candidates);
      if (candidates.ok()) {
        CanonExec skipped = *truth;
        skipped.regions.assign(candidates->begin(), candidates->end());
        SortRegions(skipped.regions);
        if (!Agrees(Label(when + "/exact-skip"), *truth, skipped, m_.c,
                    failure_)) {
          return false;
        }
      }
    }
    if (row_.cache) {
      // The second run must come from the caches: a plan hit and no new
      // eval misses.
      CacheStats before = sys_->cache_stats();
      CanonExec warm;
      if (!agree(ExecutionMode::kAuto, "warm", warm)) return false;
      CacheStats after = sys_->cache_stats();
      if (cold.ok && warm.ok) {
        if (after.plan_hits <= before.plan_hits) {
          Fail(when + ": second execution missed the plan cache (hits " +
               std::to_string(before.plan_hits) + " -> " +
               std::to_string(after.plan_hits) + ")");
          return false;
        }
        if (after.eval_misses != before.eval_misses) {
          Fail(when + ": second execution recomputed subexpressions (eval "
                      "misses " +
               std::to_string(before.eval_misses) + " -> " +
               std::to_string(after.eval_misses) + ")");
          return false;
        }
      }
    }
    return true;
  }

  /// Compaction must fold the row into a store that equals a fresh
  /// build of the live documents, generation aside. An error here is
  /// the maintainer's own consistency check firing — a defect (or the
  /// planted one), never a harness problem; under an armed fault a
  /// typed, diagnosed one is accepted. For store rows the export pages
  /// every stream in: the full materialization check.
  Status CompactAndCompare() {
    phase_ = "maintain";
    Status compacted = sys_->CompactIndexes();
    if (!compacted.ok()) {
      if (tolerant_ && !compacted.message().empty()) return Status::OK();
      return Fail("compaction failed: " + compacted.ToString());
    }
    auto store = sys_->ExportIndexes();
    if (!store.ok()) {
      if (tolerant_ && !store.status().message().empty()) {
        return Status::OK();
      }
      return Fail("export after compaction failed: " +
                  store.status().ToString());
    }
    if (tolerant_) return Status::OK();  // compared once the fault is gone
    QOF_ASSIGN_OR_RETURN(const MatrixCase::FreshBuild* fresh, Fresh());
    if (!SameStoreIgnoringGeneration(*store, fresh->store)) {
      return Fail("compacted index store differs from a fresh build (" +
                  std::to_string(store->size()) + " vs " +
                  std::to_string(fresh->store.size()) + " bytes)");
    }
    // Compaction folded the corpus into the fresh build's layout, so
    // whole answers (region offsets too) compare now.
    if (!applied_.empty()) Check(&fresh->baseline, "compacted");
    return Status::OK();
  }

  /// From-scratch build of the documents after the applied steps, serial,
  /// with the row's index spec: the ground truth a compacted row equals.
  Result<const MatrixCase::FreshBuild*> Fresh() {
    auto it = m_.fresh.find(row_.subset);
    if (it != m_.fresh.end()) return &it->second;
    ScopedFaultInjector unarmed(FaultInjector::Spec{});  // nothing planted
    FileQuerySystem fresh(m_.schema);
    for (const auto& [name, text] : LiveDocsAfter(m_.docs, applied_)) {
      QOF_RETURN_IF_ERROR(fresh.AddFile(name, text));
    }
    MatrixRow serial = row_;
    serial.parallel = false;
    fresh.SetParallelism(1);
    QOF_RETURN_IF_ERROR(fresh.BuildIndexes(SpecFor(m_, serial)));
    QOF_ASSIGN_OR_RETURN(std::string store, fresh.ExportIndexes());
    MatrixCase::FreshBuild build{
        std::move(store),
        Canon(fresh.Execute(m_.c.fql, ExecutionMode::kBaseline))};
    return &m_.fresh.emplace(row_.subset, std::move(build)).first->second;
  }

  std::string Label(const std::string& what) const {
    return phase_ + " " + name_ + " " + what;
  }

  Status Fail(const std::string& what) {
    *failure_ = "[" + phase_ + " " + name_ + "] " + what +
                " (fql: " + m_.c.fql + ")";
    return Status::OK();
  }

  MatrixCase& m_;
  const MatrixRow row_;
  std::string name_;
  std::string* failure_;
  bool tolerant_;
  const char* planted_;
  std::string phase_ = "index";
  // A store row saves into and pages from memory (declared before sys_,
  // which reads it): an fsync'd temp file per row tripled the fuzzer's
  // run time.
  FaultVfs store_vfs_;
  std::optional<ScopedVfs> in_memory_;
  std::unique_ptr<FileQuerySystem> sys_;
  bool opening_ = false;  // sys_ opens the store the row saved
  std::vector<MutationStep> applied_;
};

}  // namespace

Status CheckMatrix(const StructuringSchema& schema, const CaseDocs& docs,
                   const ConcreteCase& c, const OracleOptions& options,
                   std::string* failure) {
  QOF_ASSIGN_OR_RETURN(MatrixCase m,
                       MakeMatrixCase(schema, docs, c, options, nullptr));
  for (MatrixRow row : MatrixRows()) {
    // A shrunk case can lack the row's subset; the row then indexes every
    // name, so its storage, cache and parallelism pairs still run.
    if (row.subset >= static_cast<int>(c.subsets.size())) {
      row.subset = kFullIndex;
    }
    QOF_RETURN_IF_ERROR(Lifecycle(m, row, failure).Run());
    if (!failure->empty()) return Status::OK();
  }
  return Status::OK();
}

Status CheckFaultLifecycle(const StructuringSchema& schema,
                           const CaseDocs& docs, const ConcreteCase& c,
                           const OracleOptions& options,
                           const FaultInjector::Spec& fault,
                           std::string* failure) {
  QOF_ASSIGN_OR_RETURN(MatrixCase m,
                       MakeMatrixCase(schema, docs, c, options, &fault));
  // index_io.* sites fire only where a row saves and opens a store.
  const bool store = fault.site.rfind("index_io.", 0) == 0;
  const std::vector<MatrixRow>& rows = MatrixRows();
  const auto row =
      std::find_if(rows.begin(), rows.end(), [&](const MatrixRow& r) {
        return r.subset == kFullIndex && r.store == store;
      });
  QOF_RETURN_IF_ERROR(Lifecycle(m, *row, failure).Run());
  if (!failure->empty()) {
    *failure = "[fault " + fault.site + " hit " + std::to_string(fault.hit) +
               "] " + *failure;
  }
  return Status::OK();
}

}  // namespace qof
