#include "qof/compiler/path_mapper.h"

#include <set>

#include <gtest/gtest.h>

#include "qof/datagen/schemas.h"
#include "qof/query/parser.h"
#include "qof/schema/rig_derivation.h"

namespace qof {
namespace {

class PathMapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    rig_ = DeriveFullRig(*schema);
  }

  PathExpr Path(std::string_view fql_where_path) {
    // Parse via a throwaway query.
    auto q = ParseFql("SELECT r FROM References r WHERE " +
                      std::string(fql_where_path) + " = \"x\"");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? q->where->path() : PathExpr{};
  }

  Rig rig_;
};

TEST_F(PathMapperTest, PlainAttributePathIsAllDirect) {
  auto mapped = MapPathToChains(
      rig_, "Reference", Path("r.Authors.Name.Last_Name"),
      ChainSelection{ExprKind::kSelectMatches, "Chang", {}, 0});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped->alternatives.size(), 1u);
  const InclusionChain& chain = mapped->alternatives[0];
  EXPECT_EQ(chain.ToString(),
            "Reference >> Authors >> Name >> sigma(\"Chang\", Last_Name)");
}

TEST_F(PathMapperTest, NoSelectionLocatesAttribute) {
  auto mapped =
      MapPathToChains(rig_, "Reference", Path("r.Key"), std::nullopt);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->alternatives[0].ToString(), "Reference >> Key");
}

TEST_F(PathMapperTest, WildStarBecomesPlainInclusion) {
  auto mapped = MapPathToChains(
      rig_, "Reference", Path("r.*X.Last_Name"),
      ChainSelection{ExprKind::kSelectMatches, "Chang", {}, 0});
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ(mapped->alternatives.size(), 1u);
  EXPECT_EQ(mapped->alternatives[0].ToString(),
            "Reference > sigma(\"Chang\", Last_Name)");
}

TEST_F(PathMapperTest, WildOneEnumeratesDerivations) {
  // r.?A.Name: paths of length 2 Reference -> ? -> Name: via Authors and
  // via Editors.
  auto mapped = MapPathToChains(rig_, "Reference", Path("r.?A.Name"),
                                std::nullopt);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped->alternatives.size(), 2u);
  std::set<std::string> forms;
  for (const auto& c : mapped->alternatives) forms.insert(c.ToString());
  EXPECT_TRUE(forms.count("Reference >> Authors >> Name") == 1);
  EXPECT_TRUE(forms.count("Reference >> Editors >> Name") == 1);
}

TEST_F(PathMapperTest, WildOneRunOfTwo) {
  auto mapped = MapPathToChains(rig_, "Reference",
                                Path("r.?A.?B.Last_Name"), std::nullopt);
  ASSERT_TRUE(mapped.ok());
  // Reference -> {Authors,Editors} -> Name -> Last_Name... but the run is
  // ?A.?B then Last_Name: interiors of length 2.
  ASSERT_EQ(mapped->alternatives.size(), 2u);
  for (const auto& c : mapped->alternatives) {
    EXPECT_EQ(c.names.size(), 4u);
    EXPECT_EQ(c.names.back(), "Last_Name");
  }
}

TEST_F(PathMapperTest, MixedWildAndAttr) {
  auto mapped = MapPathToChains(
      rig_, "Reference", Path("r.Authors.*X.First_Name"), std::nullopt);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->alternatives[0].ToString(),
            "Reference >> Authors > First_Name");
}

TEST_F(PathMapperTest, InvalidAttributeRejected) {
  auto r = MapPathToChains(rig_, "Reference", Path("r.Publisher.Name"),
                           std::nullopt);
  EXPECT_FALSE(r.ok());
  auto r2 = MapPathToChains(rig_, "Reference", Path("r.Nonexistent"),
                            std::nullopt);
  EXPECT_FALSE(r2.ok());
  // Valid names but no edge: Authors is not under Editors.
  auto r3 = MapPathToChains(rig_, "Reference", Path("r.Editors.Authors"),
                            std::nullopt);
  EXPECT_FALSE(r3.ok());
}

TEST_F(PathMapperTest, WildcardMustPrecedeAttribute) {
  PathExpr p;
  p.var = "r";
  p.steps.push_back(PathStep::WildStar("X"));
  EXPECT_FALSE(MapPathToChains(rig_, "Reference", p, std::nullopt).ok());
  PathExpr q;
  q.var = "r";
  q.steps.push_back(PathStep::WildOne("X"));
  EXPECT_FALSE(MapPathToChains(rig_, "Reference", q, std::nullopt).ok());
}

TEST_F(PathMapperTest, EmptyPathIsViewChain) {
  PathExpr p;
  p.var = "r";
  auto mapped = MapPathToChains(rig_, "Reference", p, std::nullopt);
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ(mapped->alternatives.size(), 1u);
  EXPECT_EQ(mapped->alternatives[0].ToString(), "Reference");
}

TEST_F(PathMapperTest, NavStepsExpandWildcards) {
  auto nav = MapPathToNavSteps(rig_, "Reference", Path("r.?A.Name"));
  ASSERT_TRUE(nav.ok());
  ASSERT_EQ(nav->size(), 2u);
  // Each alternative: [Attr(Authors|Editors), Attr(Name)].
  for (const auto& steps : *nav) {
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(steps[1].name, "Name");
  }
  auto nav2 =
      MapPathToNavSteps(rig_, "Reference", Path("r.*X.Last_Name"));
  ASSERT_TRUE(nav2.ok());
  ASSERT_EQ(nav2->size(), 1u);
  ASSERT_EQ((*nav2)[0].size(), 2u);
  EXPECT_EQ((*nav2)[0][0].kind, NavStep::Kind::kAnyStar);
  EXPECT_EQ((*nav2)[0][1].name, "Last_Name");
}

}  // namespace
}  // namespace qof
