#ifndef QOF_FUZZ_QUERY_GEN_H_
#define QOF_FUZZ_QUERY_GEN_H_

#include <optional>
#include <string>
#include <vector>

#include "qof/fuzz/rng.h"
#include "qof/query/ast.h"
#include "qof/rig/rig.h"

namespace qof {

/// One WHERE-clause leaf of a generated query.
struct QueryAtom {
  enum class Op { kEqLiteral, kContains, kStarts, kEqPath };
  Op op = Op::kEqLiteral;
  std::vector<PathStep> lhs;
  std::vector<PathStep> rhs;  // kEqPath
  std::string literal;        // the other ops
};

/// A generated condition tree: atoms combined by AND / OR / NOT.
struct QueryNode {
  enum class Kind { kAtom, kAnd, kOr, kNot };
  Kind kind = Kind::kAtom;
  QueryAtom atom;
  std::vector<QueryNode> kids;  // 2 for kAnd/kOr, 1 for kNot
};

/// A generated FQL query in model form, so the shrinker can drop atoms
/// and the projection structurally instead of editing strings.
struct QueryModel {
  std::string view;  // e.g. "Objs"
  std::string var = "r";
  std::vector<PathStep> target;  // empty: SELECT r
  std::optional<QueryNode> where;

  std::string Render() const;
  int AtomCount() const;
};

struct QueryGenOptions {
  double projection_rate = 0.3;
  double where_rate = 0.85;
  double wildcard_rate = 0.15;
  double bogus_rate = 0.06;  // off-schema attribute (error-path class)
  double join_rate = 0.1;
  int max_tree_depth = 2;
  int max_path_len = 5;
};

/// Emits a query whose paths are random walks on `rig` from the view
/// node, ending at sink non-terminals (token rules, whose region text
/// equals their flattened database value, so every plan kind renders
/// projections identically), with occasional *X / ?X wildcards and
/// off-schema attributes.
QueryModel GenerateQuery(FuzzRng& rng, const Rig& rig,
                         const std::string& view_node,
                         const std::string& view_name,
                         const std::vector<std::string>& literals,
                         const QueryGenOptions& options);

/// All single-step query reductions: drop the WHERE clause, drop the
/// projection, or replace an AND/OR/NOT node by one of its children.
std::vector<QueryModel> QueryReductions(const QueryModel& model);

/// Turns a valid FQL string into a (likely) invalid one: truncation,
/// unbalanced operators, stray characters, duplicated keywords, an
/// unknown view name. Parsers must diagnose these, never crash.
std::string MutateToInvalid(FuzzRng& rng, const std::string& fql);

}  // namespace qof

#endif  // QOF_FUZZ_QUERY_GEN_H_
