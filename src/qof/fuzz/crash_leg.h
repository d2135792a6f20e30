#ifndef QOF_FUZZ_CRASH_LEG_H_
#define QOF_FUZZ_CRASH_LEG_H_

#include <string>
#include <utility>
#include <vector>

#include "qof/fuzz/case.h"
#include "qof/fuzz/oracle.h"
#include "qof/schema/structuring_schema.h"
#include "qof/util/status.h"

namespace qof {

/// The crash-sweep leg (ALICE-style): replays the case's mutation
/// sequence as a durable-index-directory trace — create, journaled
/// mutations, a mid-sequence compaction checkpoint — against an
/// in-memory FaultVfs, then simulates a power cut after *every* mutating
/// I/O operation the trace performs. For each crash point the machine
/// "comes back up" (FaultVfs::CutPower: the namespace reverts to its
/// durable mapping, unsynced file tails survive sector-wise
/// adversarially or rot to garbage), recovery runs the same path the
/// qof_index CLI uses (manifest → store → journal replay, torn tails
/// discarded), and the leg asserts crash consistency:
///
///   1. recovery succeeds whenever a commit was ever acknowledged — the
///      manifest protocol may not strand the directory unreadable;
///   2. no acknowledged durable state is lost: the recovered generation
///      is at least the highest generation whose journal append (or
///      checkpoint) returned success before the cut — fsync means fsync;
///   3. the recovered state is *some* acknowledged prefix of the
///      mutation history, byte-identical (after compaction, generation
///      stripped) to applying exactly that prefix directly — never a
///      torn in-between; and
///   4. the journal frames that survive are exactly the mutation records
///      that were appended — checksums discard garbage, never admit it.
///
/// This is the leg that catches kSkipDirSync
/// (FaultVfs::set_skip_dir_sync), which turns the parent-directory fsync
/// after every atomic rename into a silent no-op: the rename that
/// publishes the MANIFEST (or the store it names) is then volatile, so a
/// cut after a "durable" commit rolls the directory back — surfacing as
/// a failed recovery or a recovered generation below the durability
/// floor, both of which the sweep flags.
///
/// Skipped when the case carries no mutations. Same conventions as the
/// oracle's other legs: a Status error means the harness itself broke; a
/// filled `failure` means a crash point violated an invariant.
Status CheckCrashConsistency(
    const StructuringSchema& schema,
    const CaseDocs& docs,
    const ConcreteCase& c, const OracleOptions& options, uint64_t seed,
    std::string* failure);

}  // namespace qof

#endif  // QOF_FUZZ_CRASH_LEG_H_
