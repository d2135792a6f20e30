// Property test for the RIG-narrowed direct-inclusion probe (paper §3):
// AssignSeparators gives each ⊃d/⊂d node the names whose regions can lie
// between its operands, and the executor probes their SeparatorTable
// instead of the universe. Over random grammar-model schemas and corpora,
// under full, partial and context-restricted index specs, every ⊃d and ⊂d
// between two indexed names must agree with the universe probe and with
// the brute-force definition — also with zero-length members in the
// probed operand, under unit productions and on recursive names.

#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qof/algebra/parser.h"
#include "qof/engine/system.h"
#include "qof/fuzz/grammar_model.h"
#include "qof/ir/executor.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"
#include "qof/schema/schema_text.h"
#include "region/direct_oracle.h"

namespace qof {
namespace {

using Docs = std::vector<std::pair<std::string, std::string>>;

std::unique_ptr<FileQuerySystem> Build(const std::string& schema_text,
                                       const Docs& docs,
                                       const IndexSpec& spec) {
  auto schema = ParseSchemaText(schema_text);
  EXPECT_TRUE(schema.ok()) << schema.status().message();
  if (!schema.ok()) return nullptr;
  auto sys = std::make_unique<FileQuerySystem>(*schema);
  for (const auto& [name, text] : docs) {
    EXPECT_TRUE(sys->AddFile(name, text).ok());
  }
  sys->SetParallelism(1);
  Status built = sys->BuildIndexes(spec);
  EXPECT_TRUE(built.ok()) << built.message();
  return built.ok() ? std::move(sys) : nullptr;
}

/// `outer >> inner` (or `inner << outer`) through the one pass pipeline,
/// with the system's separator facts.
IrProgram Program(const FileQuerySystem& sys, const RegionIndex& regions,
                  const std::string& outer, const std::string& inner,
                  bool including) {
  auto expr = ParseRegionExpr(including ? outer + " >> " + inner
                                        : inner + " << " + outer);
  EXPECT_TRUE(expr.ok()) << expr.status().message();
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  const SeparatorFacts facts = sys.separator_facts();
  RunPasses(&p, &regions, nullptr, &facts);
  return p;
}

std::vector<std::string> SeparatorsOf(const FileQuerySystem& sys,
                                      const std::string& outer,
                                      const std::string& inner) {
  IrProgram p = Program(sys, sys.region_index(), outer, inner, true);
  return p.nodes[p.candidates].separators;
}

RegionSet Subset(std::mt19937& rng, const RegionSet& base) {
  std::bernoulli_distribution keep(0.5);
  std::vector<Region> v;
  for (const Region& r : base) {
    if (keep(rng)) v.push_back(r);
  }
  return RegionSet::FromUnsorted(std::move(v));
}

/// Checks every ⊃d and ⊂d between two names of `regions` (an index of
/// `sys`'s schema): the executor, the universe probe and the definition
/// agree; with `subset_trials`, so do the node's separator table and the
/// definition on random operand subsets. Returns how many nodes were
/// narrowed.
int CheckAllPairs(const FileQuerySystem& sys, const RegionIndex& regions,
                  std::mt19937& rng, int subset_trials) {
  const RegionSet& universe = regions.Universe();
  const ParentTable& parents = regions.Parents();
  int narrowed = 0;
  for (const std::string& outer : regions.Names()) {
    for (const std::string& inner : regions.Names()) {
      const RegionSet& x = **regions.Get(outer);
      const RegionSet& y = **regions.Get(inner);
      for (bool including : {true, false}) {
        SCOPED_TRACE(including ? outer + " >> " + inner
                               : inner + " << " + outer);
        IrProgram p = Program(sys, regions, outer, inner, including);
        IrExecutor exec(&p, &regions, nullptr, &sys.corpus());
        auto got = exec.EvaluateRoot(p.candidates);
        if (!got.ok()) {
          ADD_FAILURE() << got.status().message();
          continue;
        }
        EXPECT_EQ(*got, including ? OracleDirectlyIncluding(x, y, universe)
                                  : OracleDirectlyIncluded(y, x, universe));
        EXPECT_EQ(*got, including
                            ? DirectlyIncluding(x, y, universe, parents)
                            : DirectlyIncluded(y, x, universe, parents));
        const std::vector<std::string>& seps =
            p.nodes[p.candidates].separators;
        if (seps.empty()) continue;
        ++narrowed;
        auto table = regions.Separators(seps);
        if (!table.ok()) {
          ADD_FAILURE() << table.status().message();
          continue;
        }
        const RegionSet& sep_regions = (*table)->regions;
        const ParentTable& sep_parents = (*table)->parents;
        for (int trial = 0; trial < subset_trials; ++trial) {
          RegionSet xs = Subset(rng, x);
          RegionSet ys = Subset(rng, y);
          if (including) {
            EXPECT_EQ(DirectlyIncluding(xs, ys, sep_regions, sep_parents),
                      OracleDirectlyIncluding(xs, ys, universe));
          } else {
            EXPECT_EQ(DirectlyIncluded(ys, xs, sep_regions, sep_parents),
                      OracleDirectlyIncluded(ys, xs, universe));
          }
        }
      }
    }
  }
  return narrowed;
}

/// A small random grammar-model case: schema text plus documents.
struct ModelCase {
  std::string schema_text;
  Docs docs;
};

ModelCase MakeModelCase(uint32_t seed) {
  FuzzRng rng(seed);
  SchemaModel schema = GenerateSchemaModel(rng, SchemaGenOptions{});
  CorpusModel corpus = GenerateCorpusModel(rng);
  // Small enough for the cubic oracle, deep enough to nest recursion.
  corpus.doc_objects = {1 + static_cast<int>(seed % 3), 2};
  corpus.max_depth = 2;
  corpus.max_items = 2;
  return {schema.Render(), RenderDocs(schema, corpus)};
}

class SeparatorPropertyTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeparatorPropertyTest,
                         ::testing::Range(0u, 16u));

TEST_P(SeparatorPropertyTest, FullPartialAndContextSpecsAgree) {
  const ModelCase c = MakeModelCase(GetParam());
  std::mt19937 rng(GetParam());
  auto full = Build(c.schema_text, c.docs, IndexSpec::Full());
  ASSERT_NE(full, nullptr);
  EXPECT_GT(CheckAllPairs(*full, full->region_index(), rng, 3), 0);

  // Partial: a random half of the names (§6).
  std::set<std::string> names;
  for (const std::string& name : full->region_index().Names()) {
    if (rng() % 2 == 0) names.insert(name);
  }
  auto partial = Build(c.schema_text, c.docs, IndexSpec::Partial(names));
  ASSERT_NE(partial, nullptr);
  CheckAllPairs(*partial, partial->region_index(), rng, 3);

  // Context-restricted (§7): one name indexed only inside an ancestor.
  // Its instance misses regions, but never below one of its own indexed
  // regions, so paths may still skip it.
  const Rig& rig = full->full_rig();
  IndexSpec within = IndexSpec::Full();
  for (const std::string& name : full->region_index().Names()) {
    for (const std::string& ancestor : full->region_index().Names()) {
      if (within.within.empty() && ancestor != name &&
          rig.Reachable(rig.FindNode(ancestor), rig.FindNode(name)) &&
          rng() % 3 == 0) {
        within.within[name] = ancestor;
      }
    }
  }
  auto restricted = Build(c.schema_text, c.docs, within);
  ASSERT_NE(restricted, nullptr);
  CheckAllPairs(*restricted, restricted->region_index(), rng, 3);
}

TEST_P(SeparatorPropertyTest, ZeroLengthProbesAgree) {
  // Parsing never indexes zero-length regions; plant them on member
  // boundaries (where they sit inside regions that are not their parse
  // ancestors) in a random half of the instances.
  const ModelCase c = MakeModelCase(GetParam());
  std::mt19937 rng(GetParam());
  auto sys = Build(c.schema_text, c.docs, IndexSpec::Full());
  ASSERT_NE(sys, nullptr);
  RegionIndex planted = sys->region_index();
  const std::vector<Region> members = planted.Universe().regions();
  for (const std::string& name : planted.Names()) {
    if (rng() % 2 == 0) continue;
    std::vector<Region> points;
    for (int k = 0; k < 4; ++k) {
      const Region& m = members[rng() % members.size()];
      const uint64_t at = rng() % 2 == 0 ? m.start : m.end;
      points.push_back({at, at});
    }
    planted.Add(name, RegionSet::FromUnsorted(std::move(points)));
  }
  CheckAllPairs(*sys, planted, rng, 0);
}

// The benchmark schema: Obj ::= "obj{" f1<Alpha> f2<Beta> f3<Gamma>
// f4<Nest> "}", Beta/Gamma collections of ItemA/ItemB, Nest ::= "{"
// (Obj)* "}".
class BenchSchemaSeparatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BenchCorpusSpec spec;
    spec.seed = 42;
    spec.target_bytes = 1;
    spec.objects_per_doc = 24;
    BenchCorpus corpus = MakeBenchCorpus(spec);
    sys_ = Build(corpus.schema_text, corpus.docs, IndexSpec::Full());
    ASSERT_NE(sys_, nullptr);
  }

  std::unique_ptr<FileQuerySystem> sys_;
};

TEST_F(BenchSchemaSeparatorsTest, NarrowsToTheOuterName) {
  using Names = std::vector<std::string>;
  for (const char* field : {"Alpha", "Beta", "Gamma"}) {
    EXPECT_EQ(SeparatorsOf(*sys_, "Obj", field), Names{"Obj"}) << field;
  }
  // Recursive: a path Nest ⇝ Obj ⇝ Nest ⇝ Obj passes through Nest, and
  // a Nest region there would itself separate.
  EXPECT_EQ(SeparatorsOf(*sys_, "Nest", "Obj"), Names{"Nest"});
  EXPECT_EQ(SeparatorsOf(*sys_, "Obj", "Obj"), (Names{"Nest", "Obj"}));
  std::mt19937 rng(7);
  EXPECT_GT(CheckAllPairs(*sys_, sys_->region_index(), rng, 2), 0);
}

TEST_F(BenchSchemaSeparatorsTest, OperandNamesFollowSubsetOperators) {
  const RegionIndex& regions = sys_->region_index();
  auto seps = [&](const std::string& text) {
    auto expr = ParseRegionExpr(text);
    EXPECT_TRUE(expr.ok()) << text;
    IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
    const SeparatorFacts facts = sys_->separator_facts();
    RunPasses(&p, &regions, nullptr, &facts);
    return p.nodes[p.candidates].separators;
  };
  const std::vector<std::string> obj = {"Obj"};
  EXPECT_EQ(seps("(outermost(Obj) - (Obj > Beta)) >> sigma(\"zulu\", Alpha)"),
            obj);
  EXPECT_EQ(seps("(Obj | innermost(Obj)) >> Alpha"), obj);
  // ⊂d: the outer operand is the right one.
  EXPECT_EQ(seps("Alpha << (Obj & (Obj > Gamma))"), obj);
  // A union of two names has no single name: the universe.
  EXPECT_TRUE(seps("(Obj | Nest) >> Alpha").empty());
}

TEST_F(BenchSchemaSeparatorsTest, NegativeControlObjOverItemA) {
  // Beta lies between Obj and ItemA, so the set is not {Obj} and the
  // answer stays empty. Probing {Obj} alone would return every Obj with
  // an ItemA below it: the RIG check is what keeps the probe exact.
  const RegionIndex& regions = sys_->region_index();
  const std::vector<std::string> seps = SeparatorsOf(*sys_, "Obj", "ItemA");
  EXPECT_EQ(seps, (std::vector<std::string>{"Beta", "Obj"}));
  IrProgram p = Program(*sys_, regions, "Obj", "ItemA", true);
  IrExecutor exec(&p, &regions, nullptr, &sys_->corpus());
  auto got = exec.EvaluateRoot(p.candidates);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  auto obj_only = regions.Separators({"Obj"});
  ASSERT_TRUE(obj_only.ok());
  const RegionSet& objs = **regions.Get("Obj");
  EXPECT_FALSE(DirectlyIncluding(objs, **regions.Get("ItemA"),
                                 (*obj_only)->regions, (*obj_only)->parents)
                   .empty());
}

// Unit productions: a repetition with one item spans exactly that item,
// so an inner Wrap region can share its span with the Inner below it.
// Skipping Wrap on the Wrap ⇝ Inner paths would then let the outer Wrap
// see past Inner and Sub to the inner Inner.
constexpr char kUnitSchema[] =
    "schema Unit root File view Top;\n"
    "File ::= (Top)* => collect set;\n"
    "Top ::= \"t{\" Wrap \"}\" => object Top(Wrap: $1);\n"
    "Wrap ::= (Inner / \",\")+ => collect set;\n"
    "Inner ::= \"<\" Leaf Subs \">\" => tuple(Leaf: $1, Subs: $2);\n"
    "Subs ::= (Sub / \";\")* => collect set;\n"
    "Sub ::= \"[\" Wrap \"]\" => $1;\n"
    "Leaf ::= word;\n";

TEST(UnitProductionSeparatorsTest, SameSpanPathsKeepTheOuterName) {
  auto sys = Build(kUnitSchema,
                   {{"a.txt", "t{<a [<b>]>}\nt{<c>,<d [<e>,<f>];[<g>]>}\n"}},
                   IndexSpec::Full());
  ASSERT_NE(sys, nullptr);
  const RegionIndex& regions = sys->region_index();
  ASSERT_EQ(regions.Get("Wrap").value()->size(), 5u);
  EXPECT_EQ(SeparatorsOf(*sys, "Wrap", "Inner"),
            (std::vector<std::string>{"Inner", "Sub", "Subs", "Wrap"}));
  std::mt19937 rng(11);
  EXPECT_GT(CheckAllPairs(*sys, regions, rng, 3), 0);
  // {Wrap} alone answers wrongly: <b>'s Wrap has its span, so the probe
  // climbs to the outer Wrap past Inner, Subs and Sub.
  auto wrap_only = regions.Separators({"Wrap"});
  ASSERT_TRUE(wrap_only.ok());
  const RegionSet& wraps = **regions.Get("Wrap");
  const RegionSet& inners = **regions.Get("Inner");
  EXPECT_NE(DirectlyIncluding(wraps, inners, (*wrap_only)->regions,
                              (*wrap_only)->parents),
            OracleDirectlyIncluding(wraps, inners, regions.Universe()));
}

}  // namespace
}  // namespace qof
