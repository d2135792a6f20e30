#ifndef QOF_FUZZ_SESSION_LEG_H_
#define QOF_FUZZ_SESSION_LEG_H_

#include <string>
#include <utility>
#include <vector>

#include "qof/fuzz/case.h"
#include "qof/fuzz/oracle.h"
#include "qof/schema/structuring_schema.h"
#include "qof/util/status.h"

namespace qof {

/// The interleaved-session leg: drives the case's mutation sequence
/// through a QueryService with several concurrently open sessions on a
/// deterministic (seed-derived) schedule — sessions query before and
/// after every mutation, the mutating session rotates, and sessions
/// occasionally REFRESH to the latest generation.
///
/// Invariant checked: every query a session runs is byte-identical
/// (regions and rendered values) to a fresh single-threaded incremental
/// replay of the document state at the session's pinned generation —
/// repeatable reads for non-mutators, read-your-writes for the mutator.
/// Pin metadata is cross-checked too (a session's reported generation
/// must equal the number of mutations it had observed at pin time).
///
/// This is the leg that catches kStaleSnapshot (the stale-snapshot
/// planted bug, armed for the service's life), which silently serves a
/// pinned session's queries from the live state instead of its snapshot.
///
/// Same conventions as the oracle's other legs: a Status error means the
/// harness broke (e.g. a mutation that cannot apply); a filled `failure`
/// means the isolation invariant was violated.
Status CheckSessions(
    const StructuringSchema& schema,
    const std::vector<std::pair<std::string, std::string>>& docs,
    const ConcreteCase& c, const OracleOptions& options, uint64_t seed,
    std::string* failure);

}  // namespace qof

#endif  // QOF_FUZZ_SESSION_LEG_H_
