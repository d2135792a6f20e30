#include "qof/parse/parser.h"

#include <algorithm>
#include <string>

#include "qof/exec/fault_injector.h"

namespace qof {
namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool IsWordCh(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '\'' || c == '-' ||
         c == '.';
}

// Core characters — the span of a word token is trimmed to these so that
// parsed leaf regions line up with what the word index records.
bool IsCoreCh(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

}  // namespace

class SchemaParser::Run {
 public:
  Run(const StructuringSchema& schema, std::string_view text, TextPos base,
      const ExecContext* ctx)
      : schema_(schema),
        g_(schema.grammar()),
        text_(text),
        base_(base),
        ctx_(ctx) {}

  Result<std::unique_ptr<ParseNode>> ParseAll(SymbolId symbol) {
    auto node = ParseSymbol(symbol);
    // Governance interrupts describe the caller's limits, not this text:
    // pass them through without line/column decoration.
    if (!node.ok() && IsGovernanceError(node.status())) {
      return node.status();
    }
    if (!node.ok()) return RenderDeepestError(node.status());
    SkipWs();
    if (pos_ != text_.size()) {
      // A repetition may have rolled back a partial item; the deepest
      // recorded error explains why the input could not be consumed.
      if (deepest_error_pos_ >= pos_ && !deepest_error_msg_.empty()) {
        return RenderDeepestError(
            Status::ParseError("trailing input after " +
                               g_.SymbolName(symbol)));
      }
      return RenderDeepestError(
          Error("trailing input after " + g_.SymbolName(symbol)));
    }
    return std::move(*node);
  }

 private:
  // Failures are control flow (star rollback), so Error() must be cheap:
  // it records the message and offset; line/column rendering happens once
  // when the overall parse fails (RenderDeepestError).
  Status Error(std::string msg) const {
    if (pos_ >= deepest_error_pos_) {
      deepest_error_pos_ = pos_;
      deepest_error_msg_ = msg;
    }
    return Status::ParseError(std::move(msg));
  }

  // Renders the deepest recorded failure with line:column and context.
  Status RenderDeepestError(const Status& fallback) const {
    if (deepest_error_msg_.empty()) return fallback;
    size_t pos = std::min(deepest_error_pos_, text_.size());
    size_t line = 1;
    size_t col = 1;
    for (size_t i = 0; i < pos; ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::string context(
        text_.substr(pos, std::min<size_t>(24, text_.size() - pos)));
    return Status::ParseError(deepest_error_msg_ + " at line " +
                              std::to_string(line) + ":" +
                              std::to_string(col) + " near \"" + context +
                              "\"");
  }

  void SkipWs() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  Status MatchLiteral(const std::string& lit) {
    SkipWs();
    if (text_.compare(pos_, lit.size(), lit) == 0) {
      pos_ += lit.size();
      return Status::OK();
    }
    return Error("expected \"" + lit + "\"");
  }

  // Earliest occurrence of any stop string at/after pos_, or npos.
  size_t FindStop(const std::vector<std::string>& stops) const {
    size_t best = std::string_view::npos;
    for (const std::string& stop : stops) {
      size_t found = text_.find(stop, pos_);
      best = std::min(best, found);
    }
    return best;
  }

  Result<std::unique_ptr<ParseNode>> ParseSymbol(SymbolId symbol) {
    // Strided governance checkpoint: cheap enough to live on the parse
    // hot path, frequent enough that a deadline trips within fractions
    // of a millisecond even inside a single monster document.
    if (ctx_ != nullptr && (++ticks_ & 63u) == 0) {
      QOF_RETURN_IF_ERROR(ctx_->Check());
    }
    if (!g_.HasRule(symbol)) {
      return Status::Internal("no rule for symbol " +
                              g_.SymbolName(symbol));
    }
    const RuleBody& body = g_.RuleFor(symbol);
    if (const auto* seq = std::get_if<SequenceBody>(&body)) {
      return ParseSequence(symbol, *seq);
    }
    if (const auto* star = std::get_if<StarBody>(&body)) {
      auto node = std::make_unique<ParseNode>();
      node->symbol = symbol;
      SkipWs();
      uint64_t span_start = base_ + pos_;
      uint64_t span_end = span_start;
      bool any = false;
      QOF_RETURN_IF_ERROR(ParseItems(star->item, star->separator,
                                     star->min_count, node.get(), &any,
                                     &span_start, &span_end));
      node->span = {span_start, span_end};
      return node;
    }
    return ParseToken(symbol, std::get<TokenBody>(body));
  }

  // Parses item (sep item)*, appending children to `node`. On success the
  // span of the items (if any) is reflected into *first_start / *last_end;
  // with zero items both are left untouched and *any stays false.
  Status ParseItems(SymbolId item, const std::string& separator,
                    int min_count, ParseNode* node, bool* any,
                    uint64_t* first_start, uint64_t* last_end) {
    size_t before_count = node->children.size();
    size_t mark = pos_;
    auto first = ParseSymbol(item);
    // A first item that matched nothing and consumed nothing (an empty
    // until-token in front of its stop) means the repetition is absent.
    if (first.ok() && (*first)->span.length() == 0 && pos_ == mark) {
      first = Status::ParseError("empty item");
    }
    if (!first.ok()) {
      // Star rollback treats failure as "repetition absent" — but a
      // governance interrupt must abort the whole parse, not roll back.
      if (IsGovernanceError(first.status())) return first.status();
      pos_ = mark;
      if (min_count > 0) {
        return Error("expected at least " + std::to_string(min_count) +
                     " items of " + g_.SymbolName(item));
      }
      return Status::OK();
    }
    *any = true;
    *first_start = (*first)->span.start;
    *last_end = std::max(*last_end, (*first)->span.end);
    node->children.push_back(std::move(*first));

    while (true) {
      size_t before = pos_;
      if (!separator.empty()) {
        if (!MatchLiteral(separator).ok()) {
          pos_ = before;
          break;
        }
        // After a separator the next item must parse.
        auto item_node = ParseSymbol(item);
        if (!item_node.ok()) return item_node.status();
        *last_end = std::max(*last_end, (*item_node)->span.end);
        node->children.push_back(std::move(*item_node));
      } else {
        auto item_node = ParseSymbol(item);
        if (!item_node.ok()) {
          if (IsGovernanceError(item_node.status())) {
            return item_node.status();
          }
          pos_ = before;
          break;
        }
        *last_end = std::max(*last_end, (*item_node)->span.end);
        node->children.push_back(std::move(*item_node));
      }
      if (pos_ == before) break;  // no progress: stop rather than loop
    }
    size_t got = node->children.size() - before_count;
    if (static_cast<int>(got) < min_count) {
      return Error("expected at least " + std::to_string(min_count) +
                   " items of " + g_.SymbolName(item));
    }
    return Status::OK();
  }

  Result<std::unique_ptr<ParseNode>> ParseSequence(
      SymbolId symbol, const SequenceBody& seq) {
    auto node = std::make_unique<ParseNode>();
    node->symbol = symbol;
    // Both ends start at the sequence's own position: a literal-free
    // sequence whose children all match empty stays there, inside its
    // parent, instead of stretching back to offset 0 (which overlaps
    // earlier regions partially and breaks laminarity).
    uint64_t span_start = base_ + pos_;
    uint64_t span_end = span_start;
    bool first = true;
    for (const GrammarElement& e : seq.elements) {
      switch (e.kind) {
        case GrammarElement::Kind::kLiteral: {
          SkipWs();
          uint64_t lit_start = base_ + pos_;
          QOF_RETURN_IF_ERROR(MatchLiteral(e.literal));
          if (first) {
            span_start = lit_start;
            first = false;
          }
          span_end = base_ + pos_;
          break;
        }
        case GrammarElement::Kind::kNonTerminal: {
          QOF_ASSIGN_OR_RETURN(std::unique_ptr<ParseNode> child,
                               ParseSymbol(e.symbol));
          if (first && child->span.length() > 0) {
            span_start = child->span.start;
            first = false;
          }
          // Zero-length child spans keep the previous end.
          span_end = std::max(span_end, child->span.end);
          node->children.push_back(std::move(child));
          break;
        }
        case GrammarElement::Kind::kStar: {
          bool any = false;
          uint64_t items_start = 0;
          uint64_t items_end = span_end;
          QOF_RETURN_IF_ERROR(ParseItems(e.symbol, e.literal, e.min_count,
                                         node.get(), &any, &items_start,
                                         &items_end));
          if (any) {
            if (first) {
              span_start = items_start;
              first = false;
            }
            span_end = std::max(span_end, items_end);
          }
          break;
        }
      }
    }
    node->span = {span_start, span_end};
    return node;
  }

  Result<std::unique_ptr<ParseNode>> ParseToken(SymbolId symbol,
                                                const TokenBody& tok) {
    auto node = std::make_unique<ParseNode>();
    node->symbol = symbol;
    switch (tok.kind) {
      case TokenKind::kWord: {
        SkipWs();
        size_t b = pos_;
        while (pos_ < text_.size() && IsWordCh(text_[pos_])) ++pos_;
        if (b == pos_) {
          return Error("expected word for " + g_.SymbolName(symbol));
        }
        // Trim the span (not the consumption) to core characters so the
        // region matches the word index's token.
        size_t tb = b;
        size_t te = pos_;
        while (tb < te && !IsCoreCh(text_[tb])) ++tb;
        while (te > tb && !IsCoreCh(text_[te - 1])) --te;
        if (tb == te) {
          return Error("word has no indexable core for " +
                       g_.SymbolName(symbol));
        }
        node->span = {base_ + tb, base_ + te};
        return node;
      }
      case TokenKind::kNumber: {
        SkipWs();
        size_t b = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
          ++pos_;
        }
        if (b == pos_) {
          return Error("expected number for " + g_.SymbolName(symbol));
        }
        node->span = {base_ + b, base_ + pos_};
        return node;
      }
      case TokenKind::kUntil: {
        SkipWs();
        size_t stop = FindStop(tok.stops);
        if (stop == std::string_view::npos) {
          return Error("no stop found for " + g_.SymbolName(symbol));
        }
        size_t te = stop;
        while (te > pos_ && IsSpace(text_[te - 1])) --te;
        node->span = {base_ + pos_, base_ + te};
        pos_ = stop;
        return node;
      }
      case TokenKind::kUntilLastWord: {
        SkipWs();
        size_t stop = FindStop(tok.stops);
        if (stop == std::string_view::npos) {
          return Error("no stop found for " + g_.SymbolName(symbol));
        }
        size_t ce = stop;
        while (ce > pos_ && IsSpace(text_[ce - 1])) --ce;
        // Find the whitespace run separating the last word.
        size_t lw = ce;
        while (lw > pos_ && !IsSpace(text_[lw - 1])) --lw;
        if (lw == pos_) {
          // Single word: match empty, leaving the word for what follows.
          node->span = {base_ + pos_, base_ + pos_};
          return node;
        }
        size_t te = lw;
        while (te > pos_ && IsSpace(text_[te - 1])) --te;
        node->span = {base_ + pos_, base_ + te};
        pos_ = lw;
        return node;
      }
    }
    return Status::Internal("unhandled token kind");
  }

  const StructuringSchema& schema_;
  const Grammar& g_;
  std::string_view text_;
  TextPos base_;
  const ExecContext* ctx_ = nullptr;
  uint64_t ticks_ = 0;
  size_t pos_ = 0;
  // Deepest failure seen, surfaced when a rollback hides the real cause.
  mutable size_t deepest_error_pos_ = 0;
  mutable std::string deepest_error_msg_;
};

Result<std::unique_ptr<ParseNode>> SchemaParser::Parse(
    std::string_view text, TextPos base, SymbolId symbol) const {
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kParseDocument));
  Run run(*schema_, text, base, ctx_);
  return run.ParseAll(symbol);
}

Result<std::unique_ptr<ParseNode>> SchemaParser::ParseDocument(
    std::string_view text, TextPos base) const {
  return Parse(text, base, schema_->root());
}

namespace {

void RenderTree(const StructuringSchema& schema, const ParseNode& node,
                int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(schema.grammar().SymbolName(node.symbol));
  out->append(" ");
  out->append(node.span.ToString());
  out->append("\n");
  for (const auto& child : node.children) {
    RenderTree(schema, *child, depth + 1, out);
  }
}

}  // namespace

std::string ParseTreeToString(const StructuringSchema& schema,
                              const ParseNode& node) {
  std::string out;
  RenderTree(schema, node, 0, &out);
  return out;
}

}  // namespace qof
