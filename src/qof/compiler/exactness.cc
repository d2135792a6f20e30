#include "qof/compiler/exactness.h"

#include <vector>

namespace qof {
namespace {

// When a selected name is dropped from the chain, its selection weakens
// to a containment test on the surviving ancestor: word/phrase equality
// becomes word containment, prefix forms become contains-prefix.
ChainSelection Degrade(const ChainSelection& sel) {
  if (sel.kind == ExprKind::kSelectStartsWith ||
      sel.kind == ExprKind::kSelectContainsPrefix) {
    return ChainSelection{ExprKind::kSelectContainsPrefix, sel.word, {}, 0};
  }
  return ChainSelection{ExprKind::kSelectContains, sel.word, {}, 0};
}

}  // namespace

Result<ChainProjection> ProjectChain(
    const Rig& full_rig, const std::set<std::string>& indexed_names,
    const InclusionChain& chain,
    const std::map<std::string, std::string>& within) {
  if (chain.orientation != InclusionChain::Orientation::kContains) {
    return Status::InvalidArgument(
        "ProjectChain expects a ⊃-oriented chain");
  }
  ChainProjection out;
  if (chain.names.empty()) {
    return Status::InvalidArgument("empty chain");
  }
  // A name is usable at position i when it is indexed and any contextual
  // restriction (§7) is discharged by an earlier chain name.
  auto usable = [&](size_t i) {
    const std::string& name = chain.names[i];
    if (indexed_names.count(name) == 0) return false;
    auto it = within.find(name);
    if (it == within.end()) return true;
    for (size_t j = 0; j < i; ++j) {
      if (chain.names[j] == it->second) return true;
    }
    return false;
  };
  if (!usable(0)) {
    out.view_indexed = false;
    out.exact = false;
    return out;
  }

  // Indices of kept (usable) positions.
  std::vector<size_t> kept;
  for (size_t i = 0; i < chain.names.size(); ++i) {
    if (usable(i)) kept.push_back(i);
  }

  InclusionChain projected;
  projected.orientation = InclusionChain::Orientation::kContains;
  // Only names indexed *everywhere* are reliable separators; a
  // contextually-restricted name may be absent between two regions even
  // when the derivation passes through it (conservative for exactness).
  auto unindexed_interior = [&](Rig::NodeId v) {
    const std::string& name = full_rig.name(v);
    if (indexed_names.find(name) == indexed_names.end()) return true;
    return within.find(name) != within.end();
  };

  for (size_t k = 0; k < kept.size(); ++k) {
    size_t idx = kept[k];
    projected.names.push_back(chain.names[idx]);
    projected.sels.push_back(chain.sels[idx]);
    if (k == 0) continue;
    size_t prev = kept[k - 1];
    bool all_direct = true;
    for (size_t op = prev; op < idx; ++op) {
      all_direct = all_direct && chain.direct[op];
    }
    // Any selection on a dropped interior position cannot be represented
    // on the indices; degrade it to containment on the segment's deeper
    // endpoint (superset semantics).
    for (size_t mid = prev + 1; mid < idx; ++mid) {
      if (chain.sels[mid].has_value()) {
        projected.sels.back() = Degrade(*chain.sels[mid]);
        out.exact = false;
      }
    }
    projected.direct.push_back(all_direct);
    if (all_direct) {
      // §6.3: the candidate link is exact iff the segment matches a
      // unique derivation through unindexed names. idx - prev == 1 means
      // no name was dropped; then the link is exact iff the edge is the
      // only unindexed-interior path as well (a bypass through unindexed
      // names would admit extra pairs).
      Rig::NodeId a = full_rig.FindNode(chain.names[prev]);
      Rig::NodeId b = full_rig.FindNode(chain.names[idx]);
      if (a == Rig::kInvalidNode || b == Rig::kInvalidNode ||
          full_rig.PathMultiplicity(a, b, unindexed_interior) != 1) {
        out.exact = false;
      }
    } else if (idx - prev > 1) {
      // A wildcard combined with dropped names: conservative.
      out.exact = false;
    }
    // A pure wildcard link (idx - prev == 1, simple) is exact by
    // definition: ⊃ is precisely "any derivation".
  }

  // Selection on a dropped *final* position (the common partial-index
  // case: the compared attribute itself is unindexed).
  if (kept.back() != chain.names.size() - 1) {
    out.exact = false;
    for (size_t mid = kept.back() + 1; mid < chain.names.size(); ++mid) {
      if (chain.sels[mid].has_value()) {
        projected.sels.back() = Degrade(*chain.sels[mid]);
      }
    }
  }

  out.chain = std::move(projected);
  return out;
}

}  // namespace qof
