#include "qof/schema/rig_derivation.h"

#include <gtest/gtest.h>

#include "qof/datagen/schemas.h"

namespace qof {
namespace {

TEST(RigDerivationTest, FullRigMatchesPaperDiagram) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  Rig rig = DeriveFullRig(*schema);
  // §3.2 / §5.1 diagram edges.
  EXPECT_TRUE(rig.HasEdge("Reference", "Key"));
  EXPECT_TRUE(rig.HasEdge("Reference", "Title"));
  EXPECT_TRUE(rig.HasEdge("Reference", "Authors"));
  EXPECT_TRUE(rig.HasEdge("Reference", "Editors"));
  EXPECT_TRUE(rig.HasEdge("Authors", "Name"));
  EXPECT_TRUE(rig.HasEdge("Editors", "Name"));
  EXPECT_TRUE(rig.HasEdge("Name", "First_Name"));
  EXPECT_TRUE(rig.HasEdge("Name", "Last_Name"));
  EXPECT_TRUE(rig.HasEdge("Ref_Set", "Reference"));
  // Non-edges.
  EXPECT_FALSE(rig.HasEdge("Reference", "Name"));
  EXPECT_FALSE(rig.HasEdge("Reference", "Last_Name"));
  EXPECT_FALSE(rig.HasEdge("Authors", "First_Name"));
  EXPECT_FALSE(rig.HasEdge("Name", "Authors"));
}

TEST(RigDerivationTest, SameSpanRigKeepsOnlyLiteralFreeRules) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  Rig same = DeriveSameSpanRig(*schema);
  // A repetition with one item, and Name ::= First_Name Last_Name with an
  // empty first name, span exactly their child.
  EXPECT_TRUE(same.HasEdge("Ref_Set", "Reference"));
  EXPECT_TRUE(same.HasEdge("Name", "First_Name"));
  EXPECT_TRUE(same.HasEdge("Name", "Last_Name"));
  // Rules with literals of their own span bytes no child does.
  EXPECT_FALSE(same.HasEdge("Reference", "Authors"));
  EXPECT_FALSE(same.HasEdge("Authors", "Name"));
  EXPECT_FALSE(same.HasEdge("Keywords", "Keyword"));
  EXPECT_EQ(same.num_nodes(), DeriveFullRig(*schema).num_nodes());
}

TEST(RigDerivationTest, PartialRigMatchesPaperSection61) {
  // §6.1: Ip = {Reference, Key, Last_Name} gives
  //   Reference -> Key, Reference -> Last_Name.
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  Rig full = DeriveFullRig(*schema);
  Rig partial =
      DerivePartialRig(full, {"Reference", "Key", "Last_Name"});
  EXPECT_EQ(partial.num_nodes(), 3u);
  EXPECT_TRUE(partial.HasEdge("Reference", "Key"));
  EXPECT_TRUE(partial.HasEdge("Reference", "Last_Name"));
  EXPECT_FALSE(partial.HasEdge("Key", "Last_Name"));
  EXPECT_FALSE(partial.HasEdge("Last_Name", "Key"));
}

TEST(RigDerivationTest, PartialRigKeepsDirectEdges) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  Rig full = DeriveFullRig(*schema);
  Rig partial = DerivePartialRig(
      full, {"Reference", "Authors", "Name", "Last_Name"});
  EXPECT_TRUE(partial.HasEdge("Reference", "Authors"));
  EXPECT_TRUE(partial.HasEdge("Authors", "Name"));
  EXPECT_TRUE(partial.HasEdge("Name", "Last_Name"));
  // Editors is unindexed, so Reference gains a bypass edge to Name.
  EXPECT_TRUE(partial.HasEdge("Reference", "Name"));
  // But not to Last_Name: every derivation passes the indexed Name.
  EXPECT_FALSE(partial.HasEdge("Reference", "Last_Name"));
  EXPECT_FALSE(partial.HasEdge("Authors", "Last_Name"));
}

TEST(RigDerivationTest, PartialRigIgnoresUnknownNames) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  Rig full = DeriveFullRig(*schema);
  Rig partial = DerivePartialRig(full, {"Reference", "NoSuchRegion"});
  EXPECT_EQ(partial.num_nodes(), 1u);
}

TEST(RigDerivationTest, MailRig) {
  auto schema = MailSchema();
  ASSERT_TRUE(schema.ok());
  Rig rig = DeriveFullRig(*schema);
  EXPECT_TRUE(rig.HasEdge("Message", "Sender"));
  EXPECT_TRUE(rig.HasEdge("Sender", "Address"));
  EXPECT_TRUE(rig.HasEdge("Recipients", "Address"));
  EXPECT_TRUE(rig.HasEdge("Address", "Addr_Name"));
  EXPECT_TRUE(rig.HasEdge("Address", "Email"));
  EXPECT_FALSE(rig.HasEdge("Message", "Address"));
}

TEST(RigDerivationTest, DotRenderingHasAllNodes) {
  auto schema = LogSchema();
  ASSERT_TRUE(schema.ok());
  Rig rig = DeriveFullRig(*schema);
  std::string dot = rig.ToDot("log");
  for (const char* name :
       {"Entry", "Timestamp", "Level", "Component", "Message"}) {
    EXPECT_NE(dot.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace qof
