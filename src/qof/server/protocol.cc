#include "qof/server/protocol.h"

#include <cstdlib>
#include <utility>
#include <vector>

namespace qof {
namespace {

/// Single-token code names so ERR lines split on spaces cleanly
/// (StatusCodeToString's display names contain spaces).
std::string_view CodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kNotFound: return "not-found";
    case StatusCode::kAlreadyExists: return "already-exists";
    case StatusCode::kOutOfRange: return "out-of-range";
    case StatusCode::kParseError: return "parse-error";
    case StatusCode::kNotImplemented: return "not-implemented";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kBudgetExhausted: return "budget-exhausted";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kDataLoss: return "data-loss";
  }
  return "internal";
}

/// Splits off the next space-delimited token; empty when exhausted.
std::string_view NextToken(std::string_view* rest) {
  while (!rest->empty() && rest->front() == ' ') rest->remove_prefix(1);
  size_t end = rest->find(' ');
  std::string_view token = rest->substr(0, end);
  rest->remove_prefix(end == std::string_view::npos ? rest->size() : end);
  return token;
}

Result<uint64_t> ParseSession(std::string_view token) {
  if (token.empty()) {
    return Status::InvalidArgument("missing session id");
  }
  uint64_t value = 0;
  for (char ch : token) {
    if (ch < '0' || ch > '9') {
      return Status::InvalidArgument("bad session id: " +
                                     std::string(token));
    }
    value = value * 10 + static_cast<uint64_t>(ch - '0');
  }
  return value;
}

}  // namespace

std::string EscapeField(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += ch; break;
    }
  }
  return out;
}

Result<std::string> UnescapeField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '\\') {
      out += field[i];
      continue;
    }
    if (i + 1 >= field.size()) {
      return Status::InvalidArgument("dangling escape in field");
    }
    switch (field[++i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default:
        return Status::InvalidArgument("unknown escape \\" +
                                       std::string(1, field[i]));
    }
  }
  return out;
}

Result<Command> ParseCommand(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  std::string_view rest = line;
  std::string_view verb = NextToken(&rest);
  if (verb.empty()) {
    return Status::InvalidArgument("empty command");
  }

  Command command;
  if (verb == "OPEN") {
    command.kind = CommandKind::kOpen;
    return command;
  }
  if (verb == "QUIT") {
    command.kind = CommandKind::kQuit;
    return command;
  }

  QOF_ASSIGN_OR_RETURN(command.session, ParseSession(NextToken(&rest)));

  if (verb == "QUERY") {
    command.kind = CommandKind::kQuery;
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (rest.empty()) {
      return Status::InvalidArgument("QUERY needs an FQL string");
    }
    command.text = std::string(rest);
    return command;
  }
  if (verb == "ADD" || verb == "UPDATE") {
    command.kind =
        verb == "ADD" ? CommandKind::kAdd : CommandKind::kUpdate;
    command.name = std::string(NextToken(&rest));
    if (command.name.empty()) {
      return Status::InvalidArgument(std::string(verb) +
                                     " needs a file name");
    }
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    QOF_ASSIGN_OR_RETURN(command.text, UnescapeField(rest));
    return command;
  }
  if (verb == "REMOVE") {
    command.kind = CommandKind::kRemove;
    command.name = std::string(NextToken(&rest));
    if (command.name.empty()) {
      return Status::InvalidArgument("REMOVE needs a file name");
    }
    return command;
  }
  if (verb == "COMPACT") { command.kind = CommandKind::kCompact; return command; }
  if (verb == "REFRESH") { command.kind = CommandKind::kRefresh; return command; }
  if (verb == "STATS") { command.kind = CommandKind::kStats; return command; }
  if (verb == "CANCEL") { command.kind = CommandKind::kCancel; return command; }
  if (verb == "CLOSE") { command.kind = CommandKind::kClose; return command; }
  return Status::InvalidArgument("unknown command: " + std::string(verb));
}

std::string FormatOk(uint64_t session, std::string_view detail) {
  std::string out = "OK " + std::to_string(session);
  if (!detail.empty()) {
    out += ' ';
    out += detail;
  }
  out += '\n';
  return out;
}

std::string FormatErr(uint64_t session, const Status& status) {
  std::string out = "ERR " + std::to_string(session) + ' ';
  out += CodeToken(status.code());
  out += ' ';
  out += EscapeField(status.message());
  out += '\n';
  return out;
}

std::string FormatRow(uint64_t session, std::string_view row) {
  return "ROW " + std::to_string(session) + ' ' + EscapeField(row) + '\n';
}

}  // namespace qof
