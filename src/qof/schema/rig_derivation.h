#ifndef QOF_SCHEMA_RIG_DERIVATION_H_
#define QOF_SCHEMA_RIG_DERIVATION_H_

#include <set>
#include <string>

#include "qof/rig/rig.h"
#include "qof/schema/structuring_schema.h"

namespace qof {

/// Derives the full RIG of a structuring schema (paper §4.2): one node per
/// non-terminal, and an edge (A, B) iff some rule has A on the left and B
/// among its right-side non-terminals — exactly when an A region can
/// directly include a B region under full indexing.
Rig DeriveFullRig(const StructuringSchema& schema);

/// The sub-graph of the full RIG whose edges (A, B) let an A region share
/// its exact span with a B child: A's rule is a repetition (one item
/// spans the whole) or a sequence with no non-empty literal of its own.
/// A sequence with a literal always spans that literal's bytes, which no
/// child does. Direct inclusion is blind to equal spans, so the separator
/// analysis (ir/passes.h) must not rely on an A region between the two
/// ends of a path when this graph has a path from A to the inner name.
Rig DeriveSameSpanRig(const StructuringSchema& schema);

/// Derives the RIG of a partial index (paper §6.1): nodes are the indexed
/// names; edge (A, B) iff the full RIG has a path A ⇝ B whose interior
/// nodes are all unindexed.
Rig DerivePartialRig(const Rig& full_rig,
                     const std::set<std::string>& indexed_names);

/// Generalization for contextually-restricted indices (§7): nodes are the
/// indexed names, but only `blocking_names` (the names indexed
/// *everywhere*) exclude a path's interior. A name indexed only within
/// some context may be absent anywhere, so it cannot be relied on to
/// separate regions: treating it as transparent yields a graph every
/// partially-indexed instance satisfies (Def. 3.1), keeping the
/// optimizer's rewrites and triviality test sound.
Rig DerivePartialRig(const Rig& full_rig,
                     const std::set<std::string>& indexed_names,
                     const std::set<std::string>& blocking_names);

}  // namespace qof

#endif  // QOF_SCHEMA_RIG_DERIVATION_H_
