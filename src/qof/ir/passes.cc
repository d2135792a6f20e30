#include "qof/ir/passes.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

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

/// A selection the fusion pass may turn into a fused-chain stage: the
/// corpus-free per-member kinds over the word index alone.
bool FusableSelect(const SelectSpec& spec) {
  switch (spec.kind) {
    case ExprKind::kSelectMatches:
      return Tokenizer::Tokenize(spec.word).size() == 1;
    case ExprKind::kSelectStartsWith:
    case ExprKind::kSelectNear:
    case ExprKind::kSelectAtLeast:
      return true;
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

/// `op` is one of ⊃ ⊂ ⊃d ⊂d.
Est InclusionEst(const Est& l, const Est& r, IrOp op,
                 const RegionIndex* regions) {
  Est est;
  est.card = std::min(l.card, r.card);
  double merge = l.card + r.card;
  const bool direct =
      op == IrOp::kDirectlyIncluding || op == IrOp::kDirectlyIncluded;
  if (direct && regions != nullptr) {
    // ⊃d probes each right member into the universe, ⊂d each left.
    double probes = op == IrOp::kDirectlyIncluding ? r.card : l.card;
    merge += CostModel::DirectProbeWork(
        probes, static_cast<double>(regions->UniverseSize()));
    merge *= CostModel::kDirectFactor;
  }
  est.work = l.work + r.work + merge;
  return est;
}

}  // namespace

void AnnotateIrCosts(IrProgram* program, const RegionIndex* regions,
                     const WordIndex* words) {
  // Mirrors CostEstimator::Estimate over the flattened form: n-ary nodes
  // cost like the left-fold of the binary operator they replaced.
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
        e = InclusionEst(est[n.inputs[0]], est[n.inputs[1]], n.op, regions);
        break;
      case IrOp::kFusedChain: {
        e = est[n.inputs[0]];
        for (const IrStage& stage : n.stages) {
          switch (stage.kind) {
            case IrStage::Kind::kSelect:
              e = SelectEst(e, stage.select, words);
              break;
            case IrStage::Kind::kIncluding:
            case IrStage::Kind::kIncluded:
              e = InclusionEst(e, est[stage.rhs], IrOp::kIncluding,
                               regions);
              break;
          }
        }
        break;
      }
      case IrOp::kProject:
        e = InclusionEst(est[n.inputs[0]], est[n.inputs[1]],
                         IrOp::kIncluded, regions);
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

void PassCse(IrProgram* program, bool inject_bad_cse) {
  std::unordered_map<std::string, int> seen;
  std::vector<int> repl(program->nodes.size());
  for (size_t i = 0; i < program->nodes.size(); ++i) {
    IrNode& n = program->nodes[i];
    for (int& input : n.inputs) input = repl[input];
    for (IrStage& stage : n.stages) {
      if (stage.rhs >= 0) stage.rhs = repl[stage.rhs];
    }
    n.key = ComputeNodeKey(*program, n);
    std::string cse_key = n.key;
    if (inject_bad_cse && n.op == IrOp::kSelect) {
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
        // separators come from the index universe, not the operands).
        std::vector<int> inputs = operands;
        inputs[0] = make_select(operands[0]);
        rewrite_as_child_with(std::move(inputs));
        break;
      }
      default:
        // Loads, ι/ω (whole-set semantics), other selections, fused
        // chains: the selection stays put.
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

void PassFuse(IrProgram* program) {
  // Consumer counts decide which intermediates may disappear into a
  // chain: only single-use, non-root nodes (a shared or rooted node must
  // stay materialized — fusing it would recompute it per consumer).
  std::vector<int> consumers(program->nodes.size(), 0);
  for (const IrNode& n : program->nodes) {
    for (int input : n.inputs) ++consumers[input];
  }
  std::vector<char> is_root(program->nodes.size(), 0);
  for (int root : {program->candidates, program->projection,
                   program->project, program->join_lhs, program->join_rhs,
                   program->join}) {
    if (root >= 0) is_root[root] = 1;
  }
  auto fusable = [&](int id) {
    const IrNode& n = program->nodes[id];
    if (n.op == IrOp::kIncluding || n.op == IrOp::kIncluded) return true;
    return n.op == IrOp::kSelect && FusableSelect(n.select);
  };
  std::vector<char> absorbed(program->nodes.size(), 0);
  for (int i = static_cast<int>(program->nodes.size()) - 1; i >= 0; --i) {
    if (absorbed[i] || !fusable(i)) continue;
    // Walk down the chain of single-use fusable ops below the top node.
    std::vector<int> chain = {i};
    int cursor = program->nodes[i].inputs[0];
    while (fusable(cursor) && consumers[cursor] == 1 && !is_root[cursor]) {
      chain.push_back(cursor);
      cursor = program->nodes[cursor].inputs[0];
    }
    if (chain.size() < 2) continue;
    // chain holds top→bottom; stages run bottom→top over source `cursor`.
    IrNode fused;
    fused.op = IrOp::kFusedChain;
    fused.inputs.push_back(cursor);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const IrNode& link = program->nodes[*it];
      IrStage stage;
      if (link.op == IrOp::kSelect) {
        stage.kind = IrStage::Kind::kSelect;
        stage.select = link.select;
      } else {
        stage.kind = link.op == IrOp::kIncluding ? IrStage::Kind::kIncluding
                                                 : IrStage::Kind::kIncluded;
        stage.rhs = link.inputs[1];
        fused.inputs.push_back(link.inputs[1]);
      }
      fused.stages.push_back(std::move(stage));
      if (*it != chain.front()) absorbed[*it] = 1;
    }
    program->nodes[i] = std::move(fused);
  }
  Canonicalize(program);
}

void PassManager::Run(IrProgram* program,
                      std::vector<PassTrace>* trace) const {
  if (trace != nullptr) trace->push_back({"lower", program->Dump()});
  for (const Entry& entry : passes_) {
    entry.pass(program);
    if (trace != nullptr) trace->push_back({entry.name, program->Dump()});
  }
}

void RunPasses(IrProgram* program, const IrPlanOptions& options,
               const RegionIndex* regions, const WordIndex* words,
               std::vector<PassTrace>* trace) {
  PassManager manager;
  if (options.enable_cse) {
    manager.Add("cse", [&](IrProgram* p) {
      PassCse(p, options.inject_bad_cse);
    });
  }
  if (options.enable_pushdown) {
    manager.Add("pushdown",
                [&](IrProgram* p) { PassPushdown(p, regions, words); });
  }
  if (options.enable_ordering) {
    manager.Add("order",
                [&](IrProgram* p) { PassOrderOperands(p, regions, words); });
  }
  if (options.enable_fusion) {
    manager.Add("fuse", [](IrProgram* p) { PassFuse(p); });
  }
  // Final annotation so dumps and --explain show the costs the executor
  // will actually see.
  manager.Add("annotate",
              [&](IrProgram* p) { AnnotateIrCosts(p, regions, words); });
  manager.Run(program, trace);
}

}  // namespace qof
