#ifndef QOF_ENGINE_SNAPSHOT_H_
#define QOF_ENGINE_SNAPSHOT_H_

#include <memory>

#include "qof/cache/cache.h"
#include "qof/compiler/query_compiler.h"
#include "qof/engine/indexer.h"
#include "qof/maintain/maintainer.h"
#include "qof/text/corpus.h"

namespace qof {

/// One index state as the system publishes it: corpus, built indexes,
/// compiler and the caches that describe them. A snapshot (see
/// FileQuerySystem::AcquireSnapshot) is a copy of this value. A mutation
/// arriving after the copy forks the state: the fork shares the text
/// bytes and every instance, word shard and posting list with the pinned
/// one, and the write copies only the pieces it touches (CowPtr), so
/// snapshot queries never block mutations and never observe them, and a
/// write costs what it touches rather than the whole state.
///
/// Each state owns its caches. Every write publishes its new state with
/// a fresh eval cache, and every build (BuildIndexes / OpenStore) with a
/// fresh plan cache too, so an entry only ever reaches queries on the
/// state that filled it. Reclamation is by refcount: when the last
/// snapshot of a superseded state drops, the pieces and cache entries
/// only it held free. A snapshot uses the caches that were on when it
/// was taken. The owning FileQuerySystem must outlive every snapshot it
/// handed out — the compiler borrows the system's rig.
struct IndexSnapshot {
  std::shared_ptr<const Corpus> corpus;
  std::shared_ptr<const BuiltIndexes> built;
  std::shared_ptr<const QueryCompiler> compiler;
  /// Both null while the caches are off. The caches are internally
  /// locked, so any number of queries on the state share them.
  std::shared_ptr<PlanCache> plan_cache;
  std::shared_ptr<EvalCache> eval_cache;
  /// Maintenance counters of the state (generation notes in QueryStats).
  MaintainStats maintain;
};

using SnapshotRef = std::shared_ptr<const IndexSnapshot>;

}  // namespace qof

#endif  // QOF_ENGINE_SNAPSHOT_H_
