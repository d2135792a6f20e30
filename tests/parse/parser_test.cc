#include "qof/parse/parser.h"

#include <gtest/gtest.h>

#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/schema/schema_text.h"

namespace qof {
namespace {

// The paper's Figure 1 entry, in the generator's field order/format.
constexpr const char* kFig1 = R"(@INCOLLECTION{Corl82a,
  AUTHOR = "G. F. Corliss and Y. F. Chang",
  TITLE = "Solving Ordinary Differential Equations Using Taylor Series",
  BOOKTITLE = "Automatic Differentiation Algorithms",
  YEAR = "1982",
  EDITOR = "A. Griewank and G. F. Corliss",
  PUBLISHER = "SIAM",
  ADDRESS = "Philadelphia, Penn.",
  PAGES = "114--144",
  REFERRED = "[Aber88a]; [Corl88a]; [Gupt85a]",
  KEYWORDS = "point algorithm; Taylor series; radius of convergence",
  ABSTRACT = "A Fortran pre-processor uses automatic differentiation"
}
)";

class BibtexParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    schema_ = std::make_unique<StructuringSchema>(*schema);
    parser_ = std::make_unique<SchemaParser>(schema_.get());
  }

  // All nodes of a symbol, preorder.
  static void Collect(const ParseNode& node, SymbolId symbol,
                      std::vector<const ParseNode*>* out) {
    if (node.symbol == symbol) out->push_back(&node);
    for (const auto& c : node.children) Collect(*c, symbol, out);
  }

  std::vector<const ParseNode*> Find(const ParseNode& root,
                                     const char* name) {
    std::vector<const ParseNode*> out;
    Collect(root, schema_->grammar().FindSymbol(name), &out);
    return out;
  }

  std::string Text(std::string_view doc, const ParseNode& n) {
    return std::string(
        doc.substr(n.span.start, n.span.end - n.span.start));
  }

  std::unique_ptr<StructuringSchema> schema_;
  std::unique_ptr<SchemaParser> parser_;
};

TEST_F(BibtexParserTest, ParsesFigure1) {
  auto tree = parser_->ParseDocument(kFig1, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ((*tree)->symbol, schema_->root());
  ASSERT_EQ((*tree)->children.size(), 1u);  // one Reference
}

TEST_F(BibtexParserTest, LeafSpansAreTight) {
  auto tree = parser_->ParseDocument(kFig1, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto keys = Find(**tree, "Key");
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(Text(kFig1, *keys[0]), "Corl82a");

  auto years = Find(**tree, "Year");
  ASSERT_EQ(years.size(), 1u);
  EXPECT_EQ(Text(kFig1, *years[0]), "1982");

  auto titles = Find(**tree, "Title");
  ASSERT_EQ(titles.size(), 1u);
  EXPECT_EQ(Text(kFig1, *titles[0]),
            "Solving Ordinary Differential Equations Using Taylor Series");
}

TEST_F(BibtexParserTest, NamesSplitFirstAndLast) {
  auto tree = parser_->ParseDocument(kFig1, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto names = Find(**tree, "Name");
  ASSERT_EQ(names.size(), 4u);  // 2 authors + 2 editors
  auto firsts = Find(**tree, "First_Name");
  auto lasts = Find(**tree, "Last_Name");
  ASSERT_EQ(firsts.size(), 4u);
  ASSERT_EQ(lasts.size(), 4u);
  EXPECT_EQ(Text(kFig1, *firsts[0]), "G. F.");
  EXPECT_EQ(Text(kFig1, *lasts[0]), "Corliss");
  EXPECT_EQ(Text(kFig1, *firsts[1]), "Y. F.");
  EXPECT_EQ(Text(kFig1, *lasts[1]), "Chang");
  EXPECT_EQ(Text(kFig1, *lasts[2]), "Griewank");
}

TEST_F(BibtexParserTest, CompositeSpansStrictlyContainChildren) {
  auto tree = parser_->ParseDocument(kFig1, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto authors = Find(**tree, "Authors");
  ASSERT_EQ(authors.size(), 1u);
  // Authors includes the quotes.
  std::string text = Text(kFig1, *authors[0]);
  EXPECT_EQ(text.front(), '"');
  EXPECT_EQ(text.back(), '"');
  auto names = Find(**tree, "Name");
  for (const ParseNode* n : names) {
    if (authors[0]->span.Contains(n->span)) {
      EXPECT_TRUE(authors[0]->span.StrictlyContains(n->span));
    }
  }
  // Name strictly contains First_Name and Last_Name.
  for (const ParseNode* n : names) {
    for (const auto& child : n->children) {
      EXPECT_TRUE(n->span.StrictlyContains(child->span));
    }
  }
}

TEST_F(BibtexParserTest, KeywordsSplitOnSemicolons) {
  auto tree = parser_->ParseDocument(kFig1, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto kws = Find(**tree, "Keyword");
  ASSERT_EQ(kws.size(), 3u);
  EXPECT_EQ(Text(kFig1, *kws[0]), "point algorithm");
  EXPECT_EQ(Text(kFig1, *kws[1]), "Taylor series");
  EXPECT_EQ(Text(kFig1, *kws[2]), "radius of convergence");
}

TEST_F(BibtexParserTest, MultipleReferences) {
  std::string doc = std::string(kFig1) + kFig1;
  // Duplicate keys are fine at parse level.
  auto tree = parser_->ParseDocument(doc, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ((*tree)->children.size(), 2u);
  auto refs = Find(**tree, "Reference");
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_LT(refs[0]->span.end, refs[1]->span.start);
}

TEST_F(BibtexParserTest, BaseOffsetShiftsAllSpans) {
  auto t0 = parser_->ParseDocument(kFig1, 0);
  auto t100 = parser_->ParseDocument(kFig1, 100);
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t100.ok());
  EXPECT_EQ((*t100)->span.start, (*t0)->span.start + 100);
  EXPECT_EQ((*t100)->span.end, (*t0)->span.end + 100);
}

TEST_F(BibtexParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(parser_->ParseDocument("@BOOK{x}", 0).ok());
  EXPECT_FALSE(
      parser_->ParseDocument("@INCOLLECTION{Key, AUTHOR = broken", 0).ok());
  // Trailing garbage after a valid entry.
  std::string doc = std::string(kFig1) + "garbage";
  EXPECT_FALSE(parser_->ParseDocument(doc, 0).ok());
}

TEST_F(BibtexParserTest, ErrorsCarryLineAndContext) {
  std::string doc = "@INCOLLECTION{Key,\n  AUTHOR = oops";
  auto r = parser_->ParseDocument(doc, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
}

TEST_F(BibtexParserTest, EmptyDocumentIsEmptyRefSet) {
  auto tree = parser_->ParseDocument("", 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE((*tree)->children.empty());
}

TEST_F(BibtexParserTest, ParseSubtreeFromViewSymbol) {
  // Two-phase plans re-parse a candidate region rooted at Reference.
  std::string_view doc = kFig1;
  auto tree = parser_->ParseDocument(doc, 0);
  ASSERT_TRUE(tree.ok());
  const ParseNode& ref = *(*tree)->children[0];
  std::string_view region_text =
      doc.substr(ref.span.start, ref.span.end - ref.span.start);
  auto sub = parser_->Parse(region_text, ref.span.start, schema_->view());
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_EQ((*sub)->span.start, ref.span.start);
  EXPECT_EQ((*sub)->span.end, ref.span.end);
}

TEST_F(BibtexParserTest, ParseTreeRendering) {
  auto tree = parser_->ParseDocument(kFig1, 0);
  ASSERT_TRUE(tree.ok());
  std::string rendered = ParseTreeToString(*schema_, **tree);
  EXPECT_NE(rendered.find("Ref_Set"), std::string::npos);
  EXPECT_NE(rendered.find("  Reference"), std::string::npos);
  EXPECT_NE(rendered.find("Last_Name"), std::string::npos);
}

class MailLogParserTest : public ::testing::Test {};

TEST_F(MailLogParserTest, ParsesMailMessage) {
  auto schema = MailSchema();
  ASSERT_TRUE(schema.ok());
  SchemaParser parser(&*schema);
  const char* doc =
      "MESSAGE {\n  FROM [Alice Zhou <azhou@example.org>]\n"
      "  TO [Bob Tanaka <btanaka@example.org>; Carol Iverson "
      "<carol@example.com>]\n"
      "  SUBJECT [budget review]\n  DATE [1994-05-24]\n"
      "  TAGS [work; urgent]\n  BODY [please see attached]\n}\n";
  auto tree = parser.ParseDocument(doc, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_EQ((*tree)->children.size(), 1u);
}

TEST_F(MailLogParserTest, ParsesLogEntries) {
  auto schema = LogSchema();
  ASSERT_TRUE(schema.ok());
  SchemaParser parser(&*schema);
  const char* doc =
      "[1994-05-24T00:00:07] INFO (cache) sid=3 : cache hit for key ;;\n"
      "[1994-05-24T00:00:09] ERROR (auth) sid=12 : connection refused ;;\n";
  auto tree = parser.ParseDocument(doc, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ((*tree)->children.size(), 2u);
}

// A literal-free sequence whose children all match empty (the second
// Pair below, in "r{}") spans its own position, inside its Rec — not
// [0, 9), which would overlap the first Rec [0, 6) partially.
TEST(ParserRegressionTest, EmptyLiteralFreeSequenceStaysLaminar) {
  auto schema = ParseSchemaText(R"qq(
    schema Recs root File view Rec;
    File ::= (Rec)* => collect set;
    Rec  ::= "r{" Pair "}" => object Rec(Pair: $1);
    Pair ::= A B => tuple(A: $1, B: $2);
    A    ::= until(";", "}");
    B    ::= until("}");
  )qq");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  FileQuerySystem system(*schema);
  ASSERT_TRUE(system.AddFile("recs.txt", "r{x;y}\nr{}").ok());
  ASSERT_TRUE(system.BuildIndexes(IndexSpec::Full()).ok());
  EXPECT_TRUE(system.region_index().Universe().IsLaminar());
  // The empty Pair is zero-length at offset 9, so it is not indexed.
  auto pairs = system.region_index().Get("Pair");
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(**pairs, RegionSet::FromUnsorted({{2, 5}}));
}

}  // namespace
}  // namespace qof
