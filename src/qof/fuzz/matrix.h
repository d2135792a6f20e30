#ifndef QOF_FUZZ_MATRIX_H_
#define QOF_FUZZ_MATRIX_H_

#include <string>
#include <vector>

#include "qof/engine/system.h"
#include "qof/exec/fault_injector.h"
#include "qof/fuzz/case.h"
#include "qof/fuzz/oracle.h"
#include "qof/schema/structuring_schema.h"
#include "qof/util/status.h"

namespace qof {

/// `MatrixRow::subset` of a row that indexes every name.
inline constexpr int kFullIndex = -1;

/// Index subsets a generated case carries: one per subset value on the
/// matrix's index axis.
inline constexpr int kCaseSubsets = 2;

/// One system configuration of the differential oracle: a value on each
/// of four axes.
struct MatrixRow {
  /// kFullIndex, or the case subset the row builds (0 or 1). A shrunk
  /// case that lacks the subset runs the row with the full index.
  int subset = kFullIndex;
  /// Served from a SaveStore/OpenStore paged store (256-byte pages, a
  /// 64-page pool, saved into an in-memory Vfs) instead of the indexes
  /// it was built as.
  bool store = false;
  /// Plan and eval caches on.
  bool cache = false;
  /// Parallelism OracleOptions::workers instead of 1.
  bool parallel = false;
};

/// The rows every case runs on, chosen so that every pair of axis
/// values (index full / subset 0 / subset 1, memory / store, cache off /
/// on, p=1 / p=workers) occurs in at least one row. Row 0 is the
/// reference row: memory, full, cache off, p=1.
const std::vector<MatrixRow>& MatrixRows();

/// Applies one step through FileQuerySystem::{Add,Update,Remove}File.
Status ApplyMutation(FileQuerySystem& system, const MutationStep& step);

/// Runs the lifecycle (see oracle.h) on every row of MatrixRows(). A
/// Status error means the harness broke its own preconditions (e.g. a
/// shrink candidate whose mutation names a dropped document); a filled
/// `failure` means a row violated an invariant.
Status CheckMatrix(const StructuringSchema& schema, const CaseDocs& docs,
                   const ConcreteCase& c, const OracleOptions& options,
                   std::string* failure);

/// The fault leg: the same lifecycle under an armed
/// ScopedFaultInjector(`fault`), on the reference row, or for an
/// index_io.* site on the first full-index store row (the only rows that
/// save and open a store). Failures that are typed and carry a message
/// are accepted; a system whose build or open failed must still answer
/// its baseline scan right, answers that come back must be right, and
/// once the injector is gone the failed step must succeed on the same
/// system and the recovered system must compact to a fresh build of
/// exactly the steps that applied.
Status CheckFaultLifecycle(const StructuringSchema& schema,
                           const CaseDocs& docs, const ConcreteCase& c,
                           const OracleOptions& options,
                           const FaultInjector::Spec& fault,
                           std::string* failure);

}  // namespace qof

#endif  // QOF_FUZZ_MATRIX_H_
