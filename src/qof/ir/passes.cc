#include "qof/ir/passes.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "qof/exec/fault_injector.h"
#include "qof/region/cost_model.h"
#include "qof/text/tokenizer.h"

namespace qof {
namespace {

/// True when the selection never touches the corpus: single-token exact
/// and prefix forms, proximity and frequency search. Multi-token σ
/// degrades to phrase (verifying scans), as does contains with a
/// multi-token literal — those stay where they are so pushdown cannot
/// duplicate byte-budget charges across ∪ branches.
bool CorpusFreeSelect(const SelectSpec& spec) {
  switch (spec.kind) {
    case ExprKind::kSelectStartsWith:
    case ExprKind::kSelectContainsPrefix:
    case ExprKind::kSelectNear:
    case ExprKind::kSelectAtLeast:
      return true;
    case ExprKind::kSelectMatches:
    case ExprKind::kSelectContains:
      return Tokenizer::Tokenize(spec.word).size() == 1;
    default:
      return false;
  }
}

double LoadCardinality(const RegionIndex* regions, const std::string& name) {
  // Count-only: estimating a disk-backed load must not materialize it
  // (the whole point of the lazy tier is that planning is I/O-free).
  if (regions == nullptr) return 0;
  return static_cast<double>(regions->InstanceCount(name));
}

double SelectPostings(const WordIndex* words, const SelectSpec& spec) {
  if (words == nullptr) return 0;
  auto tokens = Tokenizer::Tokenize(spec.word);
  if (tokens.empty()) return 0;
  std::string word(tokens[0].text);
  if (spec.kind == ExprKind::kSelectStartsWith ||
      spec.kind == ExprKind::kSelectContainsPrefix) {
    return static_cast<double>(words->LookupPrefix(word).size());
  }
  return static_cast<double>(words->Lookup(word).size());
}

struct Est {
  double card = 0;
  double work = 0;
};

Est SelectEst(const Est& child, const SelectSpec& spec,
              const WordIndex* words) {
  Est est;
  est.card = std::min(child.card, SelectPostings(words, spec));
  est.work = child.work + child.card;
  if (spec.kind == ExprKind::kSelectPhrase) est.work += est.card * 8;
  return est;
}

/// `op` is one of ⊃ ⊂ ⊃d ⊂d; `separators` are a ⊃d/⊂d node's.
Est InclusionEst(const Est& l, const Est& r, IrOp op,
                 const std::vector<std::string>& separators,
                 const RegionIndex* regions) {
  Est est;
  est.card = std::min(l.card, r.card);
  double merge = l.card + r.card;
  const bool direct =
      op == IrOp::kDirectlyIncluding || op == IrOp::kDirectlyIncluded;
  if (direct && regions != nullptr) {
    // ⊃d probes each right member into the separator table (or the
    // universe), ⊂d each left.
    double table = 0;
    if (separators.empty()) {
      table = static_cast<double>(regions->UniverseSize());
    } else {
      for (const std::string& name : separators) {
        table += LoadCardinality(regions, name);
      }
    }
    double probes = op == IrOp::kDirectlyIncluding ? r.card : l.card;
    merge += CostModel::DirectProbeWork(probes, table);
    merge *= CostModel::kDirectFactor;
  }
  est.work = l.work + r.work + merge;
  return est;
}

/// The region name every member of node `id`'s result carries, or ""
/// when there is none: these operators keep a subset of their first
/// input, a union only of its inputs.
std::string OperandName(const IrProgram& p, int id) {
  const IrNode& n = p.nodes[id];
  switch (n.op) {
    case IrOp::kLoad:
      return n.name;
    case IrOp::kSelect:
    case IrOp::kIncluding:
    case IrOp::kIncluded:
    case IrOp::kDirectlyIncluding:
    case IrOp::kDirectlyIncluded:
    case IrOp::kIntersect:
    case IrOp::kDifference:
    case IrOp::kInnermost:
    case IrOp::kOutermost:
      return OperandName(p, n.inputs[0]);
    case IrOp::kUnion: {
      std::string name = OperandName(p, n.inputs[0]);
      for (size_t k = 1; k < n.inputs.size(); ++k) {
        if (OperandName(p, n.inputs[k]) != name) return "";
      }
      return name;
    }
    case IrOp::kProject:
    case IrOp::kJoin:
      break;
  }
  return "";
}

/// Separators for an `outer` region directly including an `inner` one;
/// empty for the universe. See AssignSeparators.
std::vector<std::string> SeparatorsFor(const std::string& outer,
                                       const std::string& inner,
                                       const RegionIndex& regions,
                                       const SeparatorFacts& facts) {
  const Rig& rig = *facts.full_rig;
  const Rig::NodeId x = rig.FindNode(outer);
  const Rig::NodeId y = rig.FindNode(inner);
  if (x == Rig::kInvalidNode || y == Rig::kInvalidNode || !regions.Has(outer)) {
    return {};
  }
  const Rig& same = *facts.same_span_rig;
  const bool shares_span =
      same.Reachable(same.FindNode(outer), same.FindNode(inner));
  std::set<std::string> names = {outer};
  for (Rig::NodeId n : rig.Between(x, y, !shares_span)) {
    if (regions.Has(rig.name(n))) names.insert(rig.name(n));
  }
  if (names.size() >= regions.num_names()) return {};
  return {names.begin(), names.end()};
}

}  // namespace

void AssignSeparators(IrProgram* program, const RegionIndex* regions,
                      const SeparatorFacts* facts) {
  for (IrNode& n : program->nodes) {
    if (n.op != IrOp::kDirectlyIncluding && n.op != IrOp::kDirectlyIncluded) {
      continue;
    }
    n.separators.clear();
    if (regions == nullptr || facts == nullptr) continue;
    // ⊃d keeps left members enclosing right ones; ⊂d the reverse.
    const bool including = n.op == IrOp::kDirectlyIncluding;
    n.separators = SeparatorsFor(
        OperandName(*program, n.inputs[including ? 0 : 1]),
        OperandName(*program, n.inputs[including ? 1 : 0]), *regions,
        *facts);
  }
}

void AnnotateIrCosts(IrProgram* program, const RegionIndex* regions,
                     const WordIndex* words) {
  // Bottom-up over the topological order: n-ary nodes cost like the
  // left-fold of the binary operator they replaced.
  std::vector<Est> est(program->nodes.size());
  for (size_t i = 0; i < program->nodes.size(); ++i) {
    IrNode& n = program->nodes[i];
    Est& e = est[i];
    switch (n.op) {
      case IrOp::kLoad:
        e.card = LoadCardinality(regions, n.name);
        e.work = e.card;  // one pass over the instance
        break;
      case IrOp::kUnion:
      case IrOp::kIntersect:
      case IrOp::kDifference: {
        e = est[n.inputs[0]];
        for (size_t k = 1; k < n.inputs.size(); ++k) {
          const Est& r = est[n.inputs[k]];
          Est acc;
          acc.work = e.work + r.work + e.card + r.card;
          acc.card = n.op == IrOp::kUnion        ? e.card + r.card
                     : n.op == IrOp::kIntersect  ? std::min(e.card, r.card)
                                                 : e.card;
          e = acc;
        }
        break;
      }
      case IrOp::kInnermost:
      case IrOp::kOutermost: {
        const Est& c = est[n.inputs[0]];
        e.card = c.card;  // upper bound
        e.work = c.work + c.card * std::max(1.0, std::log2(c.card + 1));
        break;
      }
      case IrOp::kSelect:
        e = SelectEst(est[n.inputs[0]], n.select, words);
        break;
      case IrOp::kIncluding:
      case IrOp::kIncluded:
      case IrOp::kDirectlyIncluding:
      case IrOp::kDirectlyIncluded:
        e = InclusionEst(est[n.inputs[0]], est[n.inputs[1]], n.op,
                         n.separators, regions);
        break;
      case IrOp::kProject:
        e = InclusionEst(est[n.inputs[0]], est[n.inputs[1]],
                         IrOp::kIncluded, n.separators, regions);
        break;
      case IrOp::kJoin: {
        const Est& c = est[n.inputs[0]];
        const Est& l = est[n.inputs[1]];
        const Est& r = est[n.inputs[2]];
        e.card = c.card;
        // Sort-merge: sort both attribute sides, sweep the candidates.
        double pairs = l.card + r.card;
        e.work = c.work + l.work + r.work + c.card +
                 pairs * std::max(1.0, std::log2(pairs + 1));
        break;
      }
    }
    n.est_cardinality = e.card;
    n.est_work = e.work;
  }
}

void PassCse(IrProgram* program) {
  const bool bad_cse = PlantedBugArmed(planted_bug::kBadCse);
  std::unordered_map<std::string, int> seen;
  std::vector<int> repl(program->nodes.size());
  for (size_t i = 0; i < program->nodes.size(); ++i) {
    IrNode& n = program->nodes[i];
    for (int& input : n.inputs) input = repl[input];
    n.key = ComputeNodeKey(*program, n);
    std::string cse_key = n.key;
    if (bad_cse && n.op == IrOp::kSelect) {
      // Planted bug (--inject bad-cse): hash selections without their
      // word operands, merging non-identical nodes. The differential
      // fuzzer must catch the resulting wrong answers.
      cse_key = "select#" +
                std::to_string(static_cast<int>(n.select.kind)) + "#" +
                std::to_string(n.select.param) + "(" +
                program->nodes[n.inputs[0]].key + ")";
    }
    auto [it, inserted] = seen.emplace(std::move(cse_key),
                                       static_cast<int>(i));
    repl[i] = inserted ? static_cast<int>(i) : it->second;
  }
  auto fix = [&](int& root) {
    if (root >= 0) root = repl[root];
  };
  fix(program->candidates);
  fix(program->projection);
  fix(program->project);
  fix(program->join_lhs);
  fix(program->join_rhs);
  fix(program->join);
  Canonicalize(program);
}

namespace {

/// One pushdown sweep. Rewrites each pushable select in place into its
/// child's operator applied over new, deeper selects; appended nodes get
/// valid keys immediately (their inputs are older nodes). Returns whether
/// anything moved; the caller canonicalizes and re-annotates per round.
bool PushdownSweep(IrProgram* p) {
  bool changed = false;
  size_t original = p->nodes.size();
  for (size_t i = 0; i < original; ++i) {
    if (p->nodes[i].op != IrOp::kSelect) continue;
    const int child_id = p->nodes[i].inputs[0];
    const IrOp child_op = p->nodes[child_id].op;
    SelectSpec spec = p->nodes[i].select;

    auto make_select = [&](int over) {
      IrNode s;
      s.op = IrOp::kSelect;
      s.select = spec;
      s.inputs.push_back(over);
      s.key = spec.Describe(p->nodes[over].key);
      p->nodes.push_back(std::move(s));
      return static_cast<int>(p->nodes.size()) - 1;
    };
    // The child node is never mutated (it may have other consumers); the
    // select node itself is rewritten into a copy of the child with the
    // selection moved into the chosen operand(s). A child left without
    // consumers is dropped by the canonicalize step.
    auto rewrite_as_child_with = [&](std::vector<int> inputs) {
      IrNode replacement = p->nodes[child_id];
      replacement.inputs = std::move(inputs);
      replacement.est_cardinality = -1;
      replacement.est_work = -1;
      replacement.key = ComputeNodeKey(*p, replacement);
      p->nodes[i] = std::move(replacement);
      changed = true;
    };

    const std::vector<int>& operands = p->nodes[child_id].inputs;
    switch (child_op) {
      case IrOp::kIntersect: {
        // σ(A ∩ B ∩ …) = σ(X) ∩ rest — member predicates commute with
        // span intersection; the cheapest operand takes the filter.
        size_t best = 0;
        for (size_t k = 1; k < operands.size(); ++k) {
          if (p->nodes[operands[k]].est_cardinality <
              p->nodes[operands[best]].est_cardinality) {
            best = k;
          }
        }
        std::vector<int> inputs = operands;
        inputs[best] = make_select(operands[best]);
        rewrite_as_child_with(std::move(inputs));
        break;
      }
      case IrOp::kDifference: {
        // σ(A − B − …) = σ(A) − B − …
        std::vector<int> inputs = operands;
        inputs[0] = make_select(operands[0]);
        rewrite_as_child_with(std::move(inputs));
        break;
      }
      case IrOp::kUnion: {
        // σ(A ∪ B) = σ(A) ∪ σ(B): only for corpus-free selections, so
        // distributing cannot re-verify overlap members against the text
        // (which would inflate byte-budget charges).
        if (!CorpusFreeSelect(spec)) break;
        std::vector<int> inputs;
        inputs.reserve(operands.size());
        for (int operand : operands) inputs.push_back(make_select(operand));
        rewrite_as_child_with(std::move(inputs));
        break;
      }
      case IrOp::kIncluding:
      case IrOp::kIncluded:
      case IrOp::kDirectlyIncluding:
      case IrOp::kDirectlyIncluded: {
        // Results are drawn from the left operand, so the member filter
        // commutes with the containment test (and with ⊃d/⊂d, whose
        // separators depend on the operands' names, which it keeps).
        std::vector<int> inputs = operands;
        inputs[0] = make_select(operands[0]);
        rewrite_as_child_with(std::move(inputs));
        break;
      }
      default:
        // Loads, ι/ω (whole-set semantics), other selections: the
        // selection stays put.
        break;
    }
  }
  return changed;
}

}  // namespace

void PassPushdown(IrProgram* program, const RegionIndex* regions,
                  const WordIndex* words) {
  // Each round moves every pushable selection one operator deeper, so the
  // bound only guards against pathological inputs.
  for (int round = 0; round < 64; ++round) {
    AnnotateIrCosts(program, regions, words);
    bool changed = PushdownSweep(program);
    Canonicalize(program);
    if (!changed) break;
  }
}

void PassOrderOperands(IrProgram* program, const RegionIndex* regions,
                       const WordIndex* words) {
  AnnotateIrCosts(program, regions, words);
  for (IrNode& n : program->nodes) {
    if (n.op != IrOp::kIntersect && n.op != IrOp::kUnion) continue;
    // Cheapest operand first keeps the left-fold's intermediates small;
    // the key tie-break keeps plans deterministic when estimates agree.
    std::stable_sort(n.inputs.begin(), n.inputs.end(), [&](int a, int b) {
      const IrNode& na = program->nodes[a];
      const IrNode& nb = program->nodes[b];
      if (na.est_cardinality != nb.est_cardinality) {
        return na.est_cardinality < nb.est_cardinality;
      }
      return na.key < nb.key;
    });
  }
  Canonicalize(program);
}

void RunPasses(IrProgram* program, const RegionIndex* regions,
               const WordIndex* words, const SeparatorFacts* facts,
               std::vector<PassTrace>* trace) {
  auto record = [&](const char* name) {
    if (trace != nullptr) trace->push_back({name, program->Dump()});
  };
  record("lower");
  PassCse(program);
  record("cse");
  PassPushdown(program, regions, words);
  record("pushdown");
  PassOrderOperands(program, regions, words);
  record("order");
  AssignSeparators(program, regions, facts);
  AnnotateIrCosts(program, regions, words);
  record("annotate");
}

}  // namespace qof
