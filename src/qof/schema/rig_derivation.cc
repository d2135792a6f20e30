#include "qof/schema/rig_derivation.h"

#include <algorithm>

namespace qof {

namespace {

/// One node per non-terminal and an edge (A, B) for each non-terminal B
/// of A's rule, for the rules `keep` accepts.
template <typename Keep>
Rig RuleGraph(const StructuringSchema& schema, Keep&& keep) {
  Rig rig;
  const Grammar& g = schema.grammar();
  for (size_t i = 0; i < g.num_symbols(); ++i) {
    rig.AddNode(g.SymbolName(static_cast<SymbolId>(i)));
  }
  for (size_t i = 0; i < g.num_symbols(); ++i) {
    SymbolId lhs = static_cast<SymbolId>(i);
    if (!g.HasRule(lhs) || !keep(g.RuleFor(lhs))) continue;
    for (SymbolId child : g.RuleChildren(lhs)) {
      rig.AddEdge(g.SymbolName(lhs), g.SymbolName(child));
    }
  }
  return rig;
}

}  // namespace

Rig DeriveFullRig(const StructuringSchema& schema) {
  return RuleGraph(schema, [](const RuleBody&) { return true; });
}

Rig DeriveSameSpanRig(const StructuringSchema& schema) {
  return RuleGraph(schema, [](const RuleBody& body) {
    const auto* seq = std::get_if<SequenceBody>(&body);
    return seq == nullptr ||
           std::none_of(seq->elements.begin(), seq->elements.end(),
                        [](const GrammarElement& e) {
                          return e.kind == GrammarElement::Kind::kLiteral &&
                                 !e.literal.empty();
                        });
  });
}

Rig DerivePartialRig(const Rig& full_rig,
                     const std::set<std::string>& indexed_names) {
  return DerivePartialRig(full_rig, indexed_names, indexed_names);
}

Rig DerivePartialRig(const Rig& full_rig,
                     const std::set<std::string>& indexed_names,
                     const std::set<std::string>& blocking_names) {
  Rig partial;
  std::vector<Rig::NodeId> indexed_ids;
  for (const std::string& name : indexed_names) {
    if (full_rig.FindNode(name) != Rig::kInvalidNode) {
      partial.AddNode(name);
      indexed_ids.push_back(full_rig.FindNode(name));
    }
  }
  auto interior_unindexed = [&](Rig::NodeId v) {
    return blocking_names.find(full_rig.name(v)) == blocking_names.end();
  };
  for (Rig::NodeId a : indexed_ids) {
    for (Rig::NodeId b : indexed_ids) {
      if (full_rig.PathMultiplicity(a, b, interior_unindexed) > 0) {
        partial.AddEdge(full_rig.name(a), full_rig.name(b));
      }
    }
  }
  return partial;
}

}  // namespace qof
