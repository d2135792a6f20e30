#ifndef QOF_ENGINE_SNAPSHOT_H_
#define QOF_ENGINE_SNAPSHOT_H_

#include <memory>

#include "qof/cache/eval_cache.h"
#include "qof/compiler/query_compiler.h"
#include "qof/engine/indexer.h"
#include "qof/maintain/maintainer.h"
#include "qof/text/corpus.h"

namespace qof {

/// A generation-stamped immutable view of one index state, pinned by a
/// reader (see FileQuerySystem::AcquireSnapshot). A mutation arriving
/// after the pin forks the state: the fork shares the text bytes and
/// every instance, word shard and posting list with the pinned one, and
/// the write copies only the pieces it touches (CowPtr), so snapshot
/// queries never block mutations and never observe them, and a write
/// costs what it touches rather than the whole state. Reclamation is by
/// refcount: when the last snapshot of a superseded state drops, the
/// pieces only it held free — no epochs to advance by hand, no reader
/// ever holding a dangling view.
///
/// The snapshot pins its CacheEpoch in the eval cache too (entries cached
/// under it survive later mutations, serving repeat snapshot queries
/// warm) and records the maintenance counters at pin time for stats
/// reporting. The owning FileQuerySystem must outlive every snapshot it
/// handed out — the compiler borrows the system's rig.
struct IndexSnapshot {
  std::shared_ptr<const Corpus> corpus;
  std::shared_ptr<const BuiltIndexes> built;
  std::shared_ptr<const QueryCompiler> compiler;
  /// Epoch at pin time — globally unique (build / generation /
  /// compactions), keys this snapshot's eval-cache entries.
  CacheEpoch epoch;
  /// Maintenance counters at pin time (generation notes in QueryStats).
  MaintainStats maintain;
};

/// How snapshots travel: the deleter of the outer shared_ptr unpins the
/// snapshot's epoch from the eval cache, so cache retention tracks
/// snapshot lifetime exactly.
using SnapshotRef = std::shared_ptr<const IndexSnapshot>;

}  // namespace qof

#endif  // QOF_ENGINE_SNAPSHOT_H_
