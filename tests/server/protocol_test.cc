// The qof_serve line protocol: command parsing, field escaping, and
// response formatting (see qof/server/protocol.h for the grammar).

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "qof/server/protocol.h"

namespace qof {
namespace {

TEST(Escaping, RoundTripsEveryEscapedByte) {
  const std::string raw = "a\\b\nline2\r\ntrailing\\";
  std::string escaped = EscapeField(raw);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\r'), std::string::npos);
  auto back = UnescapeField(escaped);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, raw);
}

TEST(Escaping, PlainTextPassesThrough) {
  EXPECT_EQ(EscapeField("hello world"), "hello world");
  auto back = UnescapeField("hello world");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "hello world");
}

TEST(Escaping, RejectsDanglingAndUnknownEscapes) {
  EXPECT_FALSE(UnescapeField("oops\\").ok());
  EXPECT_FALSE(UnescapeField("bad\\x").ok());
}

TEST(ParseCommand, OpenAndQuitTakeNoSession) {
  auto open = ParseCommand("OPEN");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->kind, CommandKind::kOpen);
  EXPECT_EQ(open->session, 0u);

  auto quit = ParseCommand("QUIT\n");
  ASSERT_TRUE(quit.ok());
  EXPECT_EQ(quit->kind, CommandKind::kQuit);
}

TEST(ParseCommand, QueryKeepsRestOfLineVerbatim) {
  auto cmd = ParseCommand(
      "QUERY 7 SELECT r FROM References r WHERE r.Year = \"1994\"\n");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->kind, CommandKind::kQuery);
  EXPECT_EQ(cmd->session, 7u);
  EXPECT_EQ(cmd->text,
            "SELECT r FROM References r WHERE r.Year = \"1994\"");
}

TEST(ParseCommand, AddUnescapesThePayload) {
  auto cmd = ParseCommand("ADD 3 refs.bib line1\\nline2");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->kind, CommandKind::kAdd);
  EXPECT_EQ(cmd->session, 3u);
  EXPECT_EQ(cmd->name, "refs.bib");
  EXPECT_EQ(cmd->text, "line1\nline2");

  auto update = ParseCommand("UPDATE 3 refs.bib new\\\\text");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->kind, CommandKind::kUpdate);
  EXPECT_EQ(update->text, "new\\text");
}

TEST(ParseCommand, SessionOnlyVerbs) {
  struct Case {
    const char* line;
    CommandKind kind;
  } cases[] = {
      {"REMOVE 5 refs.bib", CommandKind::kRemove},
      {"COMPACT 5", CommandKind::kCompact},
      {"REFRESH 5", CommandKind::kRefresh},
      {"STATS 5", CommandKind::kStats},
      {"CANCEL 5", CommandKind::kCancel},
      {"CLOSE 5", CommandKind::kClose},
  };
  for (const Case& c : cases) {
    auto cmd = ParseCommand(c.line);
    ASSERT_TRUE(cmd.ok()) << c.line;
    EXPECT_EQ(cmd->kind, c.kind) << c.line;
    EXPECT_EQ(cmd->session, 5u) << c.line;
  }
}

TEST(ParseCommand, MalformedLinesAreInvalidArgument) {
  for (const char* line :
       {"", "   ", "NOPE 1", "QUERY", "QUERY x SELECT",
        "QUERY 1", "ADD 1", "ADD 1 refs.bib bad\\x", "REMOVE 2",
        "STATS abc"}) {
    auto cmd = ParseCommand(line);
    EXPECT_FALSE(cmd.ok()) << "accepted: \"" << line << "\"";
    if (!cmd.ok()) {
      EXPECT_TRUE(cmd.status().IsInvalidArgument())
          << cmd.status().ToString();
    }
  }
}

TEST(Format, ResponsesAreTaggedAndNewlineTerminated) {
  EXPECT_EQ(FormatOk(4, "generation=2"), "OK 4 generation=2\n");
  EXPECT_EQ(FormatOk(0, ""), "OK 0\n");
  EXPECT_EQ(FormatRow(9, "a\nb"), "ROW 9 a\\nb\n");
  EXPECT_EQ(FormatErr(2, Status::NotFound("no session 2")),
            "ERR 2 not-found no session 2\n");
  EXPECT_EQ(FormatErr(1, Status::Unavailable("queue full\nretry")),
            "ERR 1 unavailable queue full\\nretry\n");
}

TEST(Format, EveryStatusCodeHasADistinctToken) {
  // ERR lines name the code as their third space-separated field; a code
  // without its own token would be reported as another one.
  std::set<std::string> tokens;
  const int last = static_cast<int>(StatusCode::kDataLoss);
  for (int c = static_cast<int>(StatusCode::kInvalidArgument); c <= last;
       ++c) {
    const std::string line =
        FormatErr(0, Status(static_cast<StatusCode>(c), "m"));
    ASSERT_EQ(line.rfind("ERR 0 ", 0), 0u) << line;
    const std::string token = line.substr(6, line.find(' ', 6) - 6);
    EXPECT_TRUE(tokens.insert(token).second)
        << "duplicate token '" << token << "' for code " << c;
  }
  EXPECT_EQ(tokens.count("ok"), 0u);
  EXPECT_EQ(FormatErr(3, Status(StatusCode::kDataLoss, "bad page")),
            "ERR 3 data-loss bad page\n");
}

TEST(Format, RoundTripThroughParse) {
  // A response payload that went through EscapeField can be safely
  // embedded in a follow-up ADD command — the protocol is closed under
  // its own escaping.
  const std::string text = "@article{k,\n  title = {T}\n}\n";
  auto cmd = ParseCommand("ADD 1 f.bib " + EscapeField(text));
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->text, text);
}

}  // namespace
}  // namespace qof
