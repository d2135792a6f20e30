// bibtex-serve: the real serving path and the only workload with
// writes. The benchmark spawns `qof_serve --entries=20000` (about 11.9 MB
// of BibTeX, full index, both query caches on, 2 workers), adds 32 side
// documents of 20 references each, and runs a closed loop over two
// sessions on one pipe, alternating between them with one request
// outstanding. It exercises the server and protocol, the plan and eval
// caches, copy-on-write snapshots (every write clones the pinned state)
// and maintenance with its periodic auto-compaction.
//
// The traced run cannot reach inside the child process, so it replays
// the same op sequence in process against a QueryService built the way
// qof_serve builds it.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/server/protocol.h"
#include "qof/server/service.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace e2e {
namespace {

constexpr double kNominalOpsPerS = 150;
constexpr int kSetups = 3;
constexpr int kEntries = 20000;
constexpr int kSideDocs = 32;
constexpr int kSideRefs = 20;
constexpr int kSessions = 2;

enum Tmpl { kAuthorLast, kAnyLast, kYearTitle, kEditorIsAuthor, kUpdate };

const std::vector<Template>& Mix() {
  static const std::vector<Template> mix = {
      {"author-last", Cls::kPoint, 0.35},
      {"any-last", Cls::kPoint, 0.35},
      {"year-title", Cls::kScan, 0.15},
      {"editor-is-author", Cls::kJoin, 0.05},
      {"update-side", Cls::kWrite, 0.10},
  };
  return mix;
}

/// The corpus `qof_serve --entries=N` generates at startup (see
/// CorpusFor in tools/qof_serve.cc); the mirror and the traced replay
/// rebuild it, so the two must stay in step.
std::string ServeCorpus() {
  qof::BibtexGenOptions o;
  o.num_references = kEntries;
  o.seed = 1;
  o.probe_author_rate = 0.3;
  o.probe_editor_rate = 0.2;
  return qof::GenerateBibtex(o);
}
constexpr const char* kServeCorpusName = "corpus.bib";

std::string SideDocName(size_t k) {
  return "side" + std::to_string(k) + ".bib";
}

std::string SideDoc(uint32_t seed) {
  qof::BibtexGenOptions o;
  o.num_references = kSideRefs;
  o.seed = seed;
  return qof::GenerateBibtex(o);
}

/// Inputs of one run: the seed-independent corpus and side documents,
/// and the seeded op sequence.
struct Inputs {
  std::string corpus;
  std::vector<std::string> side_docs;
  std::vector<Op> ops;
};

Inputs MakeInputs(const Args& args) {
  Inputs in;
  in.corpus = ServeCorpus();
  for (int k = 0; k < kSideDocs; ++k) in.side_docs.push_back(SideDoc(5000 + k));
  std::vector<const std::string*> texts = {&in.corpus};
  for (const std::string& doc : in.side_docs) texts.push_back(&doc);
  const std::vector<std::string> last_names =
      RankedBibtexValues(texts, kLastNames);
  const std::vector<std::string> years = RankedBibtexValues(texts, kYears);
  const Zipf last_zipf(last_names.size(), 1.0);
  const Zipf year_zipf(years.size(), 1.0);
  const uint64_t seed = args.seed;
  in.ops = MakeOps(
      Mix(), OpCount(args, kNominalOpsPerS), seed, [&](Op& op, Draws& draws) {
        auto quoted = [](const std::string& s) { return "\"" + s + "\""; };
        switch (op.tmpl) {
          case kAuthorLast:
            op.text = "SELECT r FROM References r "
                      "WHERE r.Authors.Name.Last_Name = " +
                      quoted(last_names[last_zipf.Rank(draws.U(0))]);
            break;
          case kAnyLast:
            op.text = "SELECT r FROM References r WHERE r.*X.Last_Name = " +
                      quoted(last_names[last_zipf.Rank(draws.U(0))]);
            break;
          case kYearTitle:
            op.text = "SELECT r.Title FROM References r WHERE r.Year = " +
                      quoted(years[year_zipf.Rank(draws.U(0))]);
            break;
          case kEditorIsAuthor:
            op.text = "SELECT r FROM References r "
                      "WHERE r.Editors.Name.Last_Name = "
                      "r.Authors.Name.Last_Name";
            break;
          default:
            op.doc = SideDocName(
                static_cast<size_t>(draws.U(0) * kSideDocs));
            op.text = SideDoc(static_cast<uint32_t>(
                (seed * 1000003u + draws.rng().Below(1u << 30)) & 0x7fffffff));
            break;
        }
      });
  return in;
}

/// The response qof_serve writes for a query result (ROW lines, then
/// the OK summary); the traced replay times it as the protocol layer.
/// A copy of FormatQueryResponse in tools/qof_serve.cc, which no library
/// exports; keep the two in step.
std::string FormatResponse(uint64_t sid,
                           const qof::Result<qof::QueryResult>& result) {
  if (!result.ok()) return qof::FormatErr(sid, result.status());
  std::string out;
  const std::vector<std::string> rows = ResultRows(*result);
  for (const std::string& row : rows) out += qof::FormatRow(sid, row);
  const qof::QueryStats& stats = result->stats;
  return out + qof::FormatOk(
                   sid, "rows=" + std::to_string(rows.size()) +
                            " strategy=" + stats.strategy + " engine=" +
                            (stats.engine.empty() ? "-" : stats.engine) +
                            " bytes=" + std::to_string(stats.bytes_scanned) +
                            " micros=" + std::to_string(stats.micros));
}

/// A system with qof_serve's state after set-up plus `updates`, applied
/// in order; its answers are what a refreshed session must return.
class Mirror {
 public:
  explicit Mirror(const Inputs& in) : sys_(*qof::BibtexSchema()) {
    ok_ = sys_.AddFile(kServeCorpusName, in.corpus).ok() &&
          sys_.BuildIndexes(qof::IndexSpec::Full()).ok();
    double bytes = in.corpus.size();
    for (size_t k = 0; k < in.side_docs.size(); ++k) {
      ok_ = ok_ && sys_.AddFile(SideDocName(k), in.side_docs[k]).ok();
      bytes += in.side_docs[k].size();
    }
    space_ratio_ = static_cast<double>(sys_.IndexBytes()) / bytes;
  }

  bool ok() const { return ok_; }
  double space_ratio() const { return space_ratio_; }

  /// Applies the writes among `ops`, in the order given by `order`.
  void Apply(const std::vector<Op>& ops, const std::vector<size_t>& order) {
    for (size_t i : order) {
      ok_ = ok_ && sys_.UpdateFile(ops[i].doc, ops[i].text).ok();
    }
  }

  /// Reference row hash per distinct query of `ops`.
  std::map<std::string, uint64_t> Hashes(const std::vector<Op>& ops) {
    std::map<std::string, uint64_t> out;
    for (const Op& op : ops) {
      if (op.cls == Cls::kWrite || out.count(op.text)) continue;
      auto result = sys_.Execute(op.text);
      if (result.ok()) out[op.text] = HashRows(ResultRows(*result));
    }
    return out;
  }

 private:
  qof::FileQuerySystem sys_;
  bool ok_ = false;
  double space_ratio_ = 0;
};

/// Counts the ops whose query's answer on the checked session differs
/// from the mirror's (every op running that query fails its check).
uint64_t Mismatches(const std::vector<Op>& ops,
                    const std::map<std::string, uint64_t>& expected,
                    const std::map<std::string, uint64_t>& got) {
  uint64_t failed = 0;
  for (const Op& op : ops) {
    if (op.cls == Cls::kWrite) continue;
    auto e = expected.find(op.text);
    auto g = got.find(op.text);
    if (e == expected.end() || g == got.end() || e->second != g->second) {
      ++failed;
    }
  }
  return failed;
}

// --- the real server, through its pipe -----------------------------------

/// A qof_serve child on two pipes. The destructor kills and reaps a
/// child that was not shut down with Quit().
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Reap();
    }
  }

  bool Start(const std::string& bin) {
    int to_child[2];
    int from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0) return false;
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    std::string entries = "--entries=" + std::to_string(kEntries);
    char* argv[] = {const_cast<char*>(bin.c_str()),
                    const_cast<char*>(entries.c_str()), nullptr};
    int rc = ::posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv,
                           environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  int pid() const { return pid_; }

  bool Send(const std::string& line) {
    std::string data = line + "\n";
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::write(in_fd_, data.data() + off, data.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Lines are consumed from `head_` on; the buffer is compacted only
  /// when it must grow, so a response of many rows costs linear time.
  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        line->assign(buf_, head_, nl - head_);
        head_ = scan_ = nl + 1;
        return true;
      }
      buf_.erase(0, head_);
      head_ = 0;
      scan_ = buf_.size();
      char chunk[65536];
      ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Sends QUIT, waits for the goodbye and reaps the child.
  bool Quit() {
    std::string line;
    bool ok = Send("QUIT");
    while (ok && ReadLine(&line)) {
      if (line == "OK 0 bye") break;
    }
    ::close(in_fd_);
    int status = Reap();
    return ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  int Reap() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    return status;
  }

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buf_;
  size_t head_ = 0;  // start of the first unread line
  size_t scan_ = 0;  // searched for '\n' up to here
};

/// "OK 3 ..." / "ERR 3 ..." / "ROW 3 ..." -> kind and session.
bool ParseResponse(const std::string& line, std::string* kind,
                   uint64_t* sid, std::string* rest) {
  size_t a = line.find(' ');
  if (a == std::string::npos) return false;
  size_t b = line.find(' ', a + 1);
  *kind = line.substr(0, a);
  *sid = std::strtoull(line.c_str() + a + 1, nullptr, 10);
  *rest = b == std::string::npos ? "" : line.substr(b + 1);
  return true;
}

/// The status line Await reports when the server's pipe closed.
constexpr const char* kPipeClosed = "<pipe closed>";

/// Reads until the response terminating `sid`'s request; collects rows.
bool Await(ServerProcess& server, uint64_t sid, std::string* status_line,
           std::vector<std::string>* rows) {
  std::string line, kind, rest;
  uint64_t got = 0;
  while (server.ReadLine(&line)) {
    if (rows == nullptr && line.compare(0, 4, "ROW ") == 0) continue;
    if (!ParseResponse(line, &kind, &got, &rest) || got != sid) continue;
    if (kind == "ROW") {
      if (rows != nullptr) {
        auto row = qof::UnescapeField(rest);
        rows->push_back(row.ok() ? *row : rest);
      }
      continue;
    }
    *status_line = line;
    return kind == "OK";
  }
  *status_line = kPipeClosed;
  return false;
}

/// Spawn -> READY -> OPEN sessions -> ADD the (escaped) side documents.
bool SetUpServer(const Args& args, const std::vector<std::string>& side_docs,
                 ServerProcess* server, std::vector<uint64_t>* sessions) {
  std::string line;
  if (!server->Start(args.serve_bin) || !server->ReadLine(&line) ||
      line.rfind("READY", 0) != 0) {
    return false;
  }
  sessions->clear();
  for (int s = 0; s < kSessions; ++s) {
    if (!server->Send("OPEN") || !Await(*server, 0, &line, nullptr)) {
      return false;
    }
    size_t at = line.find("session=");
    if (at == std::string::npos) return false;
    sessions->push_back(std::strtoull(line.c_str() + at + 8, nullptr, 10));
  }
  for (size_t k = 0; k < side_docs.size(); ++k) {
    uint64_t sid = (*sessions)[0];
    if (!server->Send("ADD " + std::to_string(sid) + " " + SideDocName(k) +
                      " " + side_docs[k]) ||
        !Await(*server, sid, &line, nullptr)) {
      std::fprintf(stderr, "ADD failed: %s\n", line.c_str());
      return false;
    }
  }
  return true;
}

std::string Command(const Op& op, uint64_t sid,
                    const std::string& escaped_text) {
  if (op.cls == Cls::kWrite) {
    return "UPDATE " + std::to_string(sid) + " " + op.doc + " " +
           escaped_text;
  }
  return "QUERY " + std::to_string(sid) + " " + op.text;
}

int RunThroughServer(const Args& args, const Inputs& in) {
  const std::vector<Op>& ops = in.ops;
  std::vector<std::string> escaped(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].cls == Cls::kWrite) escaped[i] = qof::EscapeField(ops[i].text);
  }

  std::vector<std::string> side_docs;
  for (const std::string& doc : in.side_docs) {
    side_docs.push_back(qof::EscapeField(doc));
  }

  ServerProcess servers[kSetups];
  std::vector<uint64_t> sessions;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    double t0 = NowUs();
    if (!SetUpServer(args, side_docs, &servers[rep], &sessions)) {
      std::fprintf(stderr, "bibtex-serve set-up failed\n");
      return 2;
    }
    setup_s.push_back((NowUs() - t0) / 1e6);
    if (rep + 1 < kSetups && !servers[rep].Quit()) return 2;
  }
  ServerProcess& server = servers[kSetups - 1];

  // Warm-up: one untimed pass of each query template.
  double t0 = NowUs();
  std::string status;
  std::set<int> warmed;
  for (const Op& op : ops) {
    if (op.cls == Cls::kWrite || !warmed.insert(op.tmpl).second) continue;
    if (!server.Send(Command(op, sessions[0], "")) ||
        !Await(server, sessions[0], &status, nullptr)) {
      std::fprintf(stderr, "warm-up failed: %s\n", status.c_str());
    }
  }
  double warmup_s = (NowUs() - t0) / 1e6;

  // Closed loop with one request outstanding: op i goes to session
  // i % kSessions, and the next op is sent once its response is in.
  // The sessions alternate as in the traced replay, and no op ever
  // waits behind another op's work.
  std::array<std::vector<double>, kNumCls> ms;
  std::vector<size_t> write_order;
  uint64_t failed = 0;
  uint64_t completed = 0;
  const double loop_start = NowUs();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const uint64_t sid = sessions[i % kSessions];
    if (op.cls == Cls::kWrite) write_order.push_back(i);
    const double start_us = NowUs();
    if (!server.Send(Command(op, sid, escaped[i]))) break;
    const bool ok = Await(server, sid, &status, nullptr);
    if (status == kPipeClosed) break;
    ms[static_cast<int>(op.cls)].push_back((NowUs() - start_us) / 1000.0);
    ++completed;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "op failed: %s\n", status.c_str());
    }
  }
  const double loop_s = (NowUs() - loop_start) / 1e6;
  failed += ops.size() - completed;  // lost to a dead pipe
  const double peak_rss_mb = PeakRssMb(server.pid());

  // Answer check: every distinct query on a refreshed session against a
  // mirror that applied the same writes in the order they were sent.
  t0 = NowUs();
  std::map<std::string, uint64_t> got;
  const uint64_t checker = sessions[0];
  if (server.Send("REFRESH " + std::to_string(checker)) &&
      Await(server, checker, &status, nullptr)) {
    for (const Op& op : ops) {
      if (op.cls == Cls::kWrite || got.count(op.text)) continue;
      std::vector<std::string> rows;
      if (server.Send(Command(op, checker, "")) &&
          Await(server, checker, &status, &rows)) {
        got[op.text] = HashRows(rows);
      }
    }
  }
  bool clean_exit = server.Quit();
  Mirror mirror(in);
  mirror.Apply(ops, write_order);
  uint64_t mismatched = Mismatches(ops, mirror.Hashes(ops), got);
  failed += mismatched;
  double check_s = (NowUs() - t0) / 1e6;

  Latency join = Summarize(ms[static_cast<int>(Cls::kJoin)]);
  Latency write = Summarize(ms[static_cast<int>(Cls::kWrite)]);
  PrintInfo("{\"workload\": \"bibtex-serve\", \"seed\": " +
            std::to_string(args.seed) +
            ", \"ops\": " + std::to_string(ops.size()) +
            ", \"digest\": \"" + Hex(Digest(ops)) + "\"" +
            ", \"classes\": " + ClassInfoJson(ms) +
            ", \"join_p50_ms\": " + JsonNumber(join.p50) +
            ", \"join_tail_ms\": " + JsonNumber(join.tail) +
            ", \"write_p50_ms\": " + JsonNumber(write.p50) +
            ", \"write_tail_ms\": " + JsonNumber(write.tail) +
            ", \"mismatched_ops\": " + std::to_string(mismatched) +
            ", \"untimed_s\": {\"warmup\": " + JsonNumber(warmup_s) +
            ", \"checks\": " + JsonNumber(check_s) + "}" +
            ", \"timed_loop_s\": " + JsonNumber(loop_s) + "}");

  Metrics metrics;
  metrics.push_back({"setup_s", {Median(setup_s), "s"}});
  metrics.push_back({"ops_per_s", {completed / loop_s, "1/s"}});
  AddLatencyMetrics(ms, {Cls::kPoint, Cls::kScan}, &metrics);
  metrics.push_back({"peak_rss_mb", {peak_rss_mb, "MB"}});
  metrics.push_back({"space_ratio", {mirror.space_ratio(), "B/B"}});
  metrics.push_back(
      {"ok_frac",
       {static_cast<double>(ops.size() - std::min<uint64_t>(failed, ops.size())) /
            ops.size(),
        "frac"}});
  PrintResult(failed == 0 && clean_exit && mirror.ok(), ops.size(), failed,
              metrics);
  return 0;
}

// --- the traced replay, in process ---------------------------------------

/// qof_serve's state after set-up, in process: the same corpus, caches,
/// full index, service options, sessions and side documents.
struct InProcessServer {
  qof::FileQuerySystem sys{*qof::BibtexSchema()};
  std::unique_ptr<qof::QueryService> service;
  std::vector<uint64_t> sessions;
  double add_s = 0;
  double build_s = 0;

  bool SetUp(const Inputs& in) {
    double t0 = NowUs();
    bool ok = sys.AddFile(kServeCorpusName, in.corpus).ok();
    double t1 = NowUs();
    sys.SetCacheOptions(qof::CacheOptions::Enabled());
    ok = ok && sys.BuildIndexes(qof::IndexSpec::Full()).ok();
    build_s = (NowUs() - t1) / 1e6;
    add_s = (t1 - t0) / 1e6;
    if (!ok) return false;
    qof::ServiceOptions options;
    options.workers = 2;
    options.max_queued = 64;
    service = std::make_unique<qof::QueryService>(&sys, options);
    for (int s = 0; s < kSessions; ++s) {
      auto sid = service->OpenSession();
      if (!sid.ok()) return false;
      sessions.push_back(*sid);
    }
    for (size_t k = 0; k < in.side_docs.size(); ++k) {
      ok = ok && service->AddFile(sessions[0], SideDocName(k),
                                  in.side_docs[k])
                     .ok();
    }
    return ok;
  }
};

/// Traced-run sums beyond the engine's own: the service, the protocol
/// formatting and maintenance.
struct ServeSums {
  QuerySums queries;
  std::array<uint64_t, kNumCls> ops{};
  std::array<double, kNumCls> response_bytes{};
  std::array<double, kNumCls> format_us{};
  double overhead_us = 0;
  std::vector<double> update_us;
  std::vector<double> compacting_update_us;
};

/// Replays `ops` against the in-process service, alternating sessions.
/// With a tracer, wraps QueryService::Query, UpdateFile and response
/// formatting in spans and fills `sums`.
std::array<std::vector<double>, kNumCls> Replay(
    InProcessServer& srv, const std::vector<Op>& ops, Tracer* tracer,
    ServeSums* sums, uint64_t* failed, double* op_s) {
  std::array<std::vector<double>, kNumCls> ms;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const int c = static_cast<int>(op.cls);
    const uint64_t sid = srv.sessions[i % kSessions];
    double t0 = NowUs();
    uint64_t root = tracer ? tracer->Begin("op", 0, i) : 0;
    bool ok = true;
    if (op.cls == Cls::kWrite) {
      uint64_t compactions = srv.sys.maintain_stats().compactions;
      uint64_t span = tracer ? tracer->Begin("service.update", root, i) : 0;
      double u0 = NowUs();
      ok = srv.service->UpdateFile(sid, op.doc, op.text).ok();
      double us = NowUs() - u0;
      if (tracer) {
        tracer->End(span);
        sums->update_us.push_back(us);
        if (srv.sys.maintain_stats().compactions != compactions) {
          sums->compacting_update_us.push_back(us);
          tracer->Attr(span, "compaction", 1);
        }
      }
    } else {
      uint64_t span = tracer ? tracer->Begin("service.query", root, i) : 0;
      double q0 = NowUs();
      auto result = srv.service->Query(sid, op.text);
      double query_us = NowUs() - q0;
      if (tracer) tracer->End(span);
      uint64_t fmt = tracer ? tracer->Begin("protocol.format", root, i) : 0;
      double f0 = NowUs();
      std::string response = FormatResponse(sid, result);
      double format_us = NowUs() - f0;
      if (tracer) tracer->End(fmt);
      ok = result.ok();
      if (tracer && ok) {
        const qof::QueryStats& qs = result->stats;
        tracer->Attr(span, "stats_micros", qs.micros);
        // Plan-cache hits make parse and plan part of QueryStats::micros.
        sums->queries.Add(op.cls, qs, qs.micros, tracer, span, i);
        ++sums->ops[c];
        sums->response_bytes[c] += response.size();
        sums->format_us[c] += format_us;
        sums->overhead_us += query_us - qs.micros;
      }
    }
    if (tracer) tracer->End(root);
    double us = NowUs() - t0;
    ms[c].push_back(us / 1000.0);
    *op_s += us / 1e6;
    if (!ok) ++*failed;
  }
  return ms;
}

/// One untimed query of each template on the first session.
void WarmUp(InProcessServer& srv, const std::vector<Op>& ops) {
  std::set<int> warmed;
  for (const Op& op : ops) {
    if (op.cls != Cls::kWrite && warmed.insert(op.tmpl).second) {
      (void)srv.service->Query(srv.sessions[0], op.text);
    }
  }
}

int RunTraced(const Args& args, const Inputs& in) {
  const std::vector<Op>& ops = in.ops;
  // The untraced and the traced pass each start from qof_serve's state
  // after set-up, so both replay the same writes onto the same index.
  uint64_t failed = 0;
  double untraced_s = 0, traced_s = 0;
  {
    InProcessServer baseline;
    if (!baseline.SetUp(in)) {
      std::fprintf(stderr, "bibtex-serve in-process set-up failed\n");
      return 2;
    }
    WarmUp(baseline, ops);
    Replay(baseline, ops, nullptr, nullptr, &failed, &untraced_s);
    baseline.service->Shutdown();
  }
  InProcessServer srv;
  if (!srv.SetUp(in)) {
    std::fprintf(stderr, "bibtex-serve in-process set-up failed\n");
    return 2;
  }
  WarmUp(srv, ops);

  const qof::CacheStats cache0 = srv.sys.cache_stats();
  const qof::ServiceStats service0 = srv.service->stats();
  const uint64_t compactions0 = srv.sys.maintain_stats().compactions;
  Tracer tracer;
  ServeSums sums;
  Replay(srv, ops, &tracer, &sums, &failed, &traced_s);
  const qof::CacheStats cache1 = srv.sys.cache_stats();
  const qof::ServiceStats service1 = srv.service->stats();
  const qof::MaintainStats maintain1 = srv.sys.maintain_stats();

  // Answer check against a mirror that applied the traced pass's writes.
  std::vector<size_t> order;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].cls == Cls::kWrite) order.push_back(i);
  }
  Mirror mirror(in);
  mirror.Apply(ops, order);
  std::map<std::string, uint64_t> got;
  const bool refreshed = srv.service->Refresh(srv.sessions[0]).ok();
  for (const Op& op : ops) {
    if (op.cls == Cls::kWrite || got.count(op.text)) continue;
    auto result = srv.service->Query(srv.sessions[0], op.text);
    if (result.ok()) got[op.text] = HashRows(ResultRows(*result));
  }
  failed += Mismatches(ops, mirror.Hashes(ops), got);
  srv.service->Shutdown();

  LayerValues v;
  v["text.add_s"] = srv.add_s;
  v["indexer.build_s"] = srv.build_s;
  v["index.bytes"] = static_cast<double>(srv.sys.IndexBytes());
  uint64_t plan_lookups = (cache1.plan_hits - cache0.plan_hits) +
                          (cache1.plan_misses - cache0.plan_misses);
  uint64_t eval_lookups = (cache1.eval_hits - cache0.eval_hits) +
                          (cache1.eval_misses - cache0.eval_misses);
  v["cache.plan_hit_ratio"] =
      plan_lookups ? double(cache1.plan_hits - cache0.plan_hits) / plan_lookups
                   : 0;
  v["cache.eval_hit_ratio"] =
      eval_lookups ? double(cache1.eval_hits - cache0.eval_hits) / eval_lookups
                   : 0;
  v["cache.eval_evictions"] = cache1.eval_evictions - cache0.eval_evictions;
  v["cache.invalidations"] = cache1.invalidations - cache0.invalidations;
  sums.queries.Report(&v);
  for (Cls cls : {Cls::kPoint, Cls::kScan, Cls::kJoin}) {
    int c = static_cast<int>(cls);
    if (sums.ops[c] == 0) continue;
    std::string name = ClsName(cls);
    v["protocol." + name + ".response_bytes"] =
        sums.response_bytes[c] / sums.ops[c];
    v["protocol." + name + ".format_us"] = sums.format_us[c] / sums.ops[c];
  }
  Latency update = Summarize(sums.update_us);
  v["maintain.update_p50_us"] = update.p50;
  v["maintain.update_tail_us"] = update.tail;
  v["maintain.compactions"] = maintain1.compactions - compactions0;
  v["maintain.compacting_update_us"] = Median(sums.compacting_update_us);
  v["maintain.delta_segments"] = maintain1.delta_segments;
  v["maintain.tombstones"] = maintain1.tombstones;
  v["server.overhead_us"] =
      sums.overhead_us / std::max<uint64_t>(sums.queries.queries(), 1);
  v["server.rejected"] = service1.queries_rejected - service0.queries_rejected;
  v["server.failed"] = service1.queries_failed - service0.queries_failed;
  v["trace.overhead_frac"] = 1.0 - untraced_s / traced_s;

  std::vector<std::string> templates;
  for (const Op& op : ops) templates.push_back(Mix()[op.tmpl].name);
  std::string stem = args.work_dir + "/trace-bibtex-serve-seed" +
                     std::to_string(args.seed);
  std::string split;
  bool dumped = tracer.Write(stem, templates, &split);
  PrintInfo("{\"workload\": \"bibtex-serve\", \"seed\": " +
            std::to_string(args.seed) +
            ", \"ops\": " + std::to_string(ops.size()) +
            ", \"digest\": \"" + Hex(Digest(ops)) + "\"" +
            ", \"untraced_loop_s\": " + JsonNumber(untraced_s) +
            ", \"traced_loop_s\": " + JsonNumber(traced_s) +
            ", \"span_dump\": " + JsonString(stem + ".spans.json") +
            ", \"self_time_split\": " + split + "}");
  uint64_t attempted = 2 * ops.size();
  PrintResult(failed == 0 && dumped && refreshed && mirror.ok(), attempted,
              std::min<uint64_t>(failed, attempted), PerLayerResult(v));
  return 0;
}

}  // namespace

int RunBibtexServe(const Args& args) {
  // A dead server must surface as failed ops, not kill the benchmark.
  ::signal(SIGPIPE, SIG_IGN);
  Inputs in = MakeInputs(args);
  return args.trace ? RunTraced(args, in) : RunThroughServer(args, in);
}

}  // namespace e2e
