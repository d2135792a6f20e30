#include "qof/parse/value_builder.h"

#include <gtest/gtest.h>

#include "qof/datagen/schemas.h"
#include "qof/db/evaluator.h"
#include "qof/schema/schema_text.h"

namespace qof {
namespace {

constexpr const char* kDoc = R"(@INCOLLECTION{Corl82a,
  AUTHOR = "G. F. Corliss and Y. F. Chang",
  TITLE = "Solving Equations",
  BOOKTITLE = "Differentiation Algorithms",
  YEAR = "1982",
  EDITOR = "A. Griewank",
  PUBLISHER = "SIAM",
  ADDRESS = "Philadelphia, Penn.",
  PAGES = "114--144",
  REFERRED = "[Aber88a]; [Corl88a]",
  KEYWORDS = "point algorithm; Taylor series",
  ABSTRACT = "A Fortran pre-processor"
}
)";

class ValueBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<StructuringSchema>(*schema);
    ASSERT_TRUE(corpus_.AddDocument("doc.bib", kDoc).ok());
    SchemaParser parser(schema_.get());
    auto tree = parser.ParseDocument(corpus_.full_text(), 0);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(*tree);
  }

  std::unique_ptr<StructuringSchema> schema_;
  Corpus corpus_;
  std::unique_ptr<ParseNode> tree_;
};

TEST_F(ValueBuilderTest, BuildsReferenceObject) {
  ObjectStore store;
  auto value = BuildValue(*schema_, corpus_, *tree_, &store);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  // Root action is CollectSet over Reference objects.
  ASSERT_EQ(value->kind(), Value::Kind::kSet);
  ASSERT_EQ(value->elements().size(), 1u);
  const Value& ref = value->elements()[0];
  EXPECT_EQ(ref.kind(), Value::Kind::kRef);
  EXPECT_EQ(store.size(), 1u);

  auto obj = store.Get(ref.ref_id());
  ASSERT_TRUE(obj.ok());
  const Value& state = (*obj)->state;
  EXPECT_EQ(state.Field("Key")->str(), "Corl82a");
  EXPECT_EQ(state.Field("Title")->str(), "Solving Equations");
  EXPECT_EQ(state.Field("Year")->int_value(), 1982);
  EXPECT_EQ(state.Field("Publisher")->str(), "SIAM");
  EXPECT_EQ(state.Field("Pages")->str(), "114--144");
}

TEST_F(ValueBuilderTest, AuthorsAreTypedNameTuples) {
  ObjectStore store;
  auto value = BuildValue(*schema_, corpus_, *tree_, &store);
  ASSERT_TRUE(value.ok());
  auto obj = store.Get(value->elements()[0].ref_id());
  ASSERT_TRUE(obj.ok());
  const Value* authors = (*obj)->state.Field("Authors");
  ASSERT_NE(authors, nullptr);
  EXPECT_EQ(authors->kind(), Value::Kind::kSet);
  EXPECT_EQ(authors->type_name(), "Authors");
  ASSERT_EQ(authors->elements().size(), 2u);
  for (const Value& name : authors->elements()) {
    EXPECT_EQ(name.type_name(), "Name");
    EXPECT_NE(name.Field("Last_Name"), nullptr);
  }
}

TEST_F(ValueBuilderTest, NavigationFindsChangAuthor) {
  ObjectStore store;
  auto value = BuildValue(*schema_, corpus_, *tree_, &store);
  ASSERT_TRUE(value.ok());
  Value root = value->elements()[0];
  auto lasts = NavigatePath(store, root,
                            {NavStep::Attr("Authors"), NavStep::Attr("Name"),
                             NavStep::Attr("Last_Name")});
  ASSERT_EQ(lasts.size(), 2u);
  bool chang = false;
  for (const Value& v : lasts) chang = chang || v.str() == "Chang";
  EXPECT_TRUE(chang);
  // Editors' side has Griewank only.
  auto editors =
      NavigatePath(store, root,
                   {NavStep::Attr("Editors"), NavStep::Attr("Name"),
                    NavStep::Attr("Last_Name")});
  ASSERT_EQ(editors.size(), 1u);
  EXPECT_EQ(editors[0].str(), "Griewank");
}

TEST_F(ValueBuilderTest, KeywordsCollectAsStringSet) {
  ObjectStore store;
  auto value = BuildValue(*schema_, corpus_, *tree_, &store);
  ASSERT_TRUE(value.ok());
  auto obj = store.Get(value->elements()[0].ref_id());
  const Value* kw = (*obj)->state.Field("Keywords");
  ASSERT_NE(kw, nullptr);
  ASSERT_EQ(kw->elements().size(), 2u);
  EXPECT_EQ(kw->elements()[0].str(), "Taylor series");
  EXPECT_EQ(kw->elements()[1].str(), "point algorithm");
}

TEST_F(ValueBuilderTest, BuildingChargesNoExtraScanBytes) {
  // Leaf reads are free: the plan that acquired the text already paid for
  // it (see value_builder.h).
  corpus_.ResetBytesRead();
  ObjectStore store;
  auto value = BuildValue(*schema_, corpus_, *tree_, &store);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(corpus_.bytes_read(), 0u);
}

TEST_F(ValueBuilderTest, BuildObjectOnViewNode) {
  ObjectStore store;
  const ParseNode& ref_node = *tree_->children[0];
  auto id = BuildObject(*schema_, corpus_, ref_node, &store);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto obj = store.Get(*id);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ((*obj)->class_name, "Reference");
}

TEST_F(ValueBuilderTest, ObjectActionWithoutStoreFails) {
  auto value = BuildValue(*schema_, corpus_, *tree_, nullptr);
  ASSERT_FALSE(value.ok());
  EXPECT_TRUE(value.status().IsInvalidArgument());
}

TEST(ValueBuilderListTest, CollectListKeepsDocumentOrder) {
  // "collect list" in the schema text builds a list: elements stay in
  // document order with duplicates, where "collect set" would sort them.
  auto schema = ParseSchemaText(R"qq(
    schema L root File view Item;
    File ::= (Item)*             => collect set;
    Item ::= "[" (Word / ",")+ "]" => collect list;
    Word ::= word;
  )qq");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  Corpus corpus;
  ASSERT_TRUE(corpus.AddDocument("d", "[pear, apple, pear, fig]").ok());
  SchemaParser parser(&*schema);
  auto tree = parser.ParseDocument(corpus.full_text(), 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ObjectStore store;
  auto file = BuildValue(*schema, corpus, **tree, &store);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->kind(), Value::Kind::kSet);
  ASSERT_EQ(file->elements().size(), 1u);
  const Value& item = file->elements()[0];
  ASSERT_EQ(item.kind(), Value::Kind::kList);
  std::vector<std::string> words;
  for (const Value& w : item.elements()) words.push_back(w.str());
  EXPECT_EQ(words,
            (std::vector<std::string>{"pear", "apple", "pear", "fig"}));
}

}  // namespace
}  // namespace qof
