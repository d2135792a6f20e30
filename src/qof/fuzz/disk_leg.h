#ifndef QOF_FUZZ_DISK_LEG_H_
#define QOF_FUZZ_DISK_LEG_H_

#include <string>
#include <utility>
#include <vector>

#include "qof/fuzz/case.h"
#include "qof/fuzz/oracle.h"
#include "qof/schema/structuring_schema.h"
#include "qof/util/status.h"

namespace qof {

/// The disk-tier leg: saves the case's full indexes as a paged store
/// (256-byte pages, so posting streams span several pages even on small
/// corpora), reopens them in a fresh system that pages index data in
/// lazily through the buffer pool, and cross-checks against in-memory
/// execution:
///
///   1. every execution mode's answers are byte-identical to the
///      in-memory baseline (the store round trip changes nothing; the
///      first query runs on a cold system, so its cursor kernels stream
///      the instances page by page), and
///   2. a forced full materialization (ExportIndexes, which pages every
///      stream in) reproduces the original system's export blob
///      byte-for-byte.
///
/// This is the leg that catches kEvictPinned (the evict-pinned planted
/// bug, armed from the store's open on), which lets the buffer pool
/// steal frames that are still pinned: it runs under a pool smaller
/// than the longest stream, so a multi-page read sees one of its pinned
/// pages overwritten mid-assembly and decodes another page's bytes —
/// surfacing as decode errors, count mismatches, or divergent answers,
/// all of which the cross-checks flag.
///
/// Same conventions as the oracle's other legs: a Status error means
/// the harness itself broke (e.g. the temp file could not be written);
/// a filled `failure` means the disk tier violated an invariant.
Status CheckDiskTier(
    const StructuringSchema& schema,
    const std::vector<std::pair<std::string, std::string>>& docs,
    const ConcreteCase& c, const OracleOptions& options, uint64_t seed,
    std::string* failure);

}  // namespace qof

#endif  // QOF_FUZZ_DISK_LEG_H_
