#include "qof/compiler/query_compiler.h"

#include <algorithm>

#include "qof/schema/rig_derivation.h"
#include "qof/text/tokenizer.h"
#include "qof/util/string_util.h"

namespace qof {
namespace {

// Equality literals become σw for single whole words and phrase
// verification otherwise (§5.1's σ only handles words).
Result<ChainSelection> SelectionForEquality(const std::string& literal) {
  std::string trimmed(TrimView(literal));
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty comparison literal");
  }
  auto tokens = Tokenizer::Tokenize(trimmed);
  if (tokens.empty()) {
    return Status::InvalidArgument(
        "comparison literal has no indexable word: \"" + literal + "\"");
  }
  if (tokens.size() == 1 && tokens[0].start == 0 &&
      tokens[0].end == trimmed.size()) {
    return ChainSelection{ExprKind::kSelectMatches, trimmed, {}, 0};
  }
  return ChainSelection{ExprKind::kSelectPhrase, trimmed, {}, 0};
}

RegionExprPtr UnionAll(std::vector<RegionExprPtr> exprs) {
  if (exprs.empty()) return nullptr;
  RegionExprPtr out = exprs[0];
  for (size_t i = 1; i < exprs.size(); ++i) {
    out = RegionExpr::Union(std::move(out), exprs[i]);
  }
  return out;
}

}  // namespace

QueryCompiler::QueryCompiler(const Rig* full_rig,
                             std::set<std::string> indexed_names,
                             std::string view_region,
                             std::map<std::string, std::string> within)
    : full_rig_(full_rig),
      indexed_names_(std::move(indexed_names)),
      view_region_(std::move(view_region)),
      within_(std::move(within)) {
  std::set<std::string> blocking;
  for (const std::string& name : indexed_names_) {
    if (within_.find(name) == within_.end()) blocking.insert(name);
  }
  partial_rig_ = DerivePartialRig(*full_rig, indexed_names_, blocking);
}

Result<QueryCompiler::Leaf> QueryCompiler::CompilePathLeaf(
    const PathExpr& path, std::optional<ChainSelection> selection,
    std::vector<std::string>* notes) const {
  QOF_ASSIGN_OR_RETURN(
      MappedPath mapped,
      MapPathToChains(*full_rig_, view_region_, path, selection));
  ChainOptimizer optimizer(&partial_rig_);
  Leaf leaf;
  std::vector<RegionExprPtr> exprs;
  for (const InclusionChain& full_chain : mapped.alternatives) {
    QOF_ASSIGN_OR_RETURN(
        ChainProjection projection,
        ProjectChain(*full_rig_, indexed_names_, full_chain, within_));
    if (!projection.view_indexed) {
      return Status::Internal("view region must be indexed here");
    }
    QOF_ASSIGN_OR_RETURN(OptimizeOutcome outcome,
                         optimizer.Optimize(projection.chain));
    if (outcome.trivially_empty) {
      notes->push_back("alternative trivially empty: " +
                       full_chain.ToString());
      continue;
    }
    notes->push_back("leaf " + full_chain.ToString() + "  =>  " +
                     outcome.chain.ToString() +
                     (projection.exact ? "  [exact]" : "  [superset]"));
    leaf.exact = leaf.exact && projection.exact;
    exprs.push_back(outcome.chain.ToExpr());
  }
  leaf.expr = UnionAll(std::move(exprs));
  if (leaf.expr == nullptr) leaf.exact = true;  // provably empty is exact
  return leaf;
}

Result<RegionExprPtr> QueryCompiler::CompileAttrRegions(
    const PathExpr& path, std::vector<std::string>* notes) const {
  QOF_ASSIGN_OR_RETURN(
      MappedPath mapped,
      MapPathToChains(*full_rig_, view_region_, path, std::nullopt));
  ChainOptimizer optimizer(&partial_rig_);
  std::vector<RegionExprPtr> exprs;
  for (const InclusionChain& full_chain : mapped.alternatives) {
    // Attribute regions are recovered by an innermost-strict-encloser
    // sweep against the candidate view regions. When any chain node lies
    // on a RIG cycle (a self-nested schema), a nested instance's
    // attributes sit inside *several* view regions and the sweep assigns
    // them to whichever candidate survives filtering — wrong once the
    // candidate set is a strict subset. Fall back to database
    // navigation, which walks the parse structure and cannot confuse
    // nesting levels.
    for (const std::string& name : full_chain.names) {
      Rig::NodeId id = full_rig_->FindNode(name);
      if (id != Rig::kInvalidNode && full_rig_->Reachable(id, id)) {
        notes->push_back("attr path touches self-nested region '" + name +
                         "': database navigation");
        return RegionExprPtr(nullptr);
      }
    }
    QOF_ASSIGN_OR_RETURN(
        ChainProjection projection,
        ProjectChain(*full_rig_, indexed_names_, full_chain, within_));
    // The attribute itself must be indexed and the chain exact, or the
    // regions would not be the true attribute instances.
    if (!projection.exact ||
        projection.chain.names.back() != full_chain.names.back()) {
      return RegionExprPtr(nullptr);
    }
    // Reverse into a ⊂-oriented chain yielding the attribute regions.
    InclusionChain reversed;
    reversed.orientation = InclusionChain::Orientation::kContained;
    reversed.names.assign(projection.chain.names.rbegin(),
                          projection.chain.names.rend());
    reversed.direct.assign(projection.chain.direct.rbegin(),
                           projection.chain.direct.rend());
    reversed.sels.resize(reversed.names.size());
    QOF_ASSIGN_OR_RETURN(OptimizeOutcome outcome,
                         optimizer.Optimize(reversed));
    if (outcome.trivially_empty) continue;
    notes->push_back("attr regions " + reversed.ToString() + "  =>  " +
                     outcome.chain.ToString());
    exprs.push_back(outcome.chain.ToExpr());
  }
  return UnionAll(std::move(exprs));
}

Result<QueryCompiler::Leaf> QueryCompiler::CompileCondition(
    const Condition& cond, std::vector<std::string>* notes) const {
  switch (cond.kind()) {
    case Condition::Kind::kEqualsLiteral: {
      QOF_ASSIGN_OR_RETURN(ChainSelection sel,
                           SelectionForEquality(cond.literal()));
      return CompilePathLeaf(cond.path(), sel, notes);
    }
    case Condition::Kind::kContainsWord: {
      std::string trimmed(TrimView(cond.literal()));
      auto tokens = Tokenizer::Tokenize(trimmed);
      if (tokens.empty()) {
        return Status::InvalidArgument(
            "CONTAINS needs an indexable word, got: \"" +
            cond.literal() + "\"");
      }
      // Single words select via postings alone; multi-word literals use
      // phrase containment (first-word anchor + verifying scan).
      ChainSelection sel{ExprKind::kSelectContains,
                         tokens.size() == 1 ? std::string(tokens[0].text)
                                            : trimmed,
                         {}, 0};
      return CompilePathLeaf(cond.path(), sel, notes);
    }
    case Condition::Kind::kStartsWith: {
      std::string trimmed(TrimView(cond.literal()));
      auto tokens = Tokenizer::Tokenize(trimmed);
      // The prefix must be one word fragment covering the whole literal
      // (the index anchors it at a single token).
      if (tokens.size() != 1 || tokens[0].start != 0) {
        return Status::InvalidArgument(
            "STARTS expects a single word prefix, got: \"" +
            cond.literal() + "\"");
      }
      ChainSelection sel{ExprKind::kSelectStartsWith, trimmed, {}, 0};
      return CompilePathLeaf(cond.path(), sel, notes);
    }
    case Condition::Kind::kEqualsPath: {
      QOF_ASSIGN_OR_RETURN(
          Leaf lhs, CompilePathLeaf(cond.path(), std::nullopt, notes));
      QOF_ASSIGN_OR_RETURN(
          Leaf rhs,
          CompilePathLeaf(cond.rhs_path(), std::nullopt, notes));
      if (lhs.expr == nullptr || rhs.expr == nullptr) {
        return Leaf{nullptr, true};
      }
      // Candidates: view regions holding both attributes; the content
      // comparison itself is beyond the region algebra (§5.2).
      return Leaf{RegionExpr::Intersect(lhs.expr, rhs.expr), false};
    }
    case Condition::Kind::kAnd: {
      QOF_ASSIGN_OR_RETURN(Leaf l, CompileCondition(*cond.left(), notes));
      QOF_ASSIGN_OR_RETURN(Leaf r,
                           CompileCondition(*cond.right(), notes));
      if (l.expr == nullptr || r.expr == nullptr) {
        return Leaf{nullptr, true};
      }
      return Leaf{RegionExpr::Intersect(l.expr, r.expr),
                  l.exact && r.exact};
    }
    case Condition::Kind::kOr: {
      QOF_ASSIGN_OR_RETURN(Leaf l, CompileCondition(*cond.left(), notes));
      QOF_ASSIGN_OR_RETURN(Leaf r,
                           CompileCondition(*cond.right(), notes));
      if (l.expr == nullptr) return r;
      if (r.expr == nullptr) return l;
      return Leaf{RegionExpr::Union(l.expr, r.expr), l.exact && r.exact};
    }
    case Condition::Kind::kNot: {
      QOF_ASSIGN_OR_RETURN(Leaf child,
                           CompileCondition(*cond.child(), notes));
      RegionExprPtr all = RegionExpr::Name(view_region_);
      if (child.expr == nullptr) {
        // NOT(provably empty) = every view region.
        return Leaf{all, true};
      }
      if (child.exact) {
        return Leaf{RegionExpr::Difference(all, child.expr), true};
      }
      // The complement of a superset is not a superset; the only safe
      // candidate set is every view region.
      notes->push_back(
          "NOT over inexact child: falling back to all view regions");
      return Leaf{all, false};
    }
  }
  return Status::Internal("unhandled condition kind");
}

Result<QueryPlan> QueryCompiler::Compile(const SelectQuery& query) const {
  QueryPlan plan;
  plan.query = query;
  plan.view_region = view_region_;

  if (indexed_names_.count(view_region_) == 0) {
    plan.view_indexed = false;
    plan.exact = false;
    plan.notes.push_back("view region '" + view_region_ +
                         "' is not indexed: full scan required");
    return plan;
  }

  Leaf leaf;
  if (query.where == nullptr) {
    leaf = Leaf{RegionExpr::Name(view_region_), true};
    plan.notes.push_back("no WHERE clause: all view regions");
  } else {
    QOF_ASSIGN_OR_RETURN(leaf,
                         CompileCondition(*query.where, &plan.notes));
  }
  if (leaf.expr == nullptr) {
    plan.trivially_empty = true;
    plan.exact = true;
    plan.notes.push_back("query is trivially empty (Prop. 3.3)");
    return plan;
  }
  plan.candidates = leaf.expr;
  plan.exact = leaf.exact;

  if (query.IsProjection()) {
    QOF_ASSIGN_OR_RETURN(plan.projection,
                         CompileAttrRegions(query.target, &plan.notes));
    plan.projection_exact = plan.projection != nullptr;
    if (!plan.projection_exact) {
      plan.notes.push_back(
          "projection target not index-computable: database projection");
    }
  }

  if (query.where != nullptr &&
      query.where->kind() == Condition::Kind::kEqualsPath &&
      plan.candidates != nullptr) {
    QOF_ASSIGN_OR_RETURN(
        plan.join_lhs_attrs,
        CompileAttrRegions(query.where->path(), &plan.notes));
    QOF_ASSIGN_OR_RETURN(
        plan.join_rhs_attrs,
        CompileAttrRegions(query.where->rhs_path(), &plan.notes));
    plan.index_join =
        plan.join_lhs_attrs != nullptr && plan.join_rhs_attrs != nullptr;
    if (plan.index_join) {
      plan.notes.push_back(
          "join predicate served by index-assisted join (§5.2)");
    }
  }
  return plan;
}

}  // namespace qof
