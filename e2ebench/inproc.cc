#include "inproc.h"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <set>

#include "qof/query/parser.h"

namespace e2e {
namespace {

struct LoopStats {
  std::array<std::vector<double>, kNumCls> ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double op_s = 0;     // summed op latencies
  double check_s = 0;  // answer checks, outside the op latencies

  double OpsPerS() const { return op_s > 0 ? attempted / op_s : 0; }
};

bool Passes(const qof::Result<qof::QueryResult>& result,
            const std::string& fql, const RefHashes& refs) {
  if (!result.ok()) return false;
  auto it = refs.find(fql);
  return it != refs.end() && HashRows(ResultRows(*result)) == it->second;
}

void Check(const qof::Result<qof::QueryResult>& result, const Op& op,
           const RefHashes& refs, LoopStats* stats) {
  double t0 = NowUs();
  if (!Passes(result, op.text, refs)) {
    ++stats->failed;
    std::string why = result.ok() ? "answer differs from the reference"
                                  : result.status().ToString();
    std::fprintf(stderr, "check failed: %s: %s\n", op.text.c_str(),
                 why.c_str());
  }
  stats->check_s += (NowUs() - t0) / 1e6;
}

/// The store's buffer-pool counters over the timed loop: pool deltas
/// and pages read per op of each class. Read between ops, outside the
/// timed calls.
struct StoreIo {
  qof::BufferPoolStats before;
  qof::BufferPoolStats after;
  std::array<uint64_t, kNumCls> ops{};
  std::array<uint64_t, kNumCls> pages{};

  void Report(LayerValues* out) const {
    LayerValues& v = *out;
    uint64_t fetches = after.fetches - before.fetches;
    uint64_t prefetched = after.prefetch_pages - before.prefetch_pages;
    v["store.fetches"] = fetches;
    v["store.hit_ratio"] =
        fetches > 0 ? static_cast<double>(after.hits - before.hits) / fetches
                    : 0;
    v["store.pages_read"] = after.pages_read - before.pages_read;
    v["store.read_calls"] = after.read_calls - before.read_calls;
    v["store.evictions"] = after.evictions - before.evictions;
    v["store.read_retries"] = after.read_retries - before.read_retries;
    v["store.prefetch_pages"] = prefetched;
    v["store.prefetch_use_ratio"] =
        prefetched > 0 ? static_cast<double>(after.prefetch_hits -
                                             before.prefetch_hits) /
                             prefetched
                       : 0;
    for (Cls cls : {Cls::kPoint, Cls::kScan}) {
      int c = static_cast<int>(cls);
      if (ops[c] == 0) continue;
      v["store." + std::string(ClsName(cls)) + ".pages_per_op"] =
          static_cast<double>(pages[c]) / ops[c];
    }
  }
};

LoopStats TimedLoop(qof::FileQuerySystem& sys, const std::vector<Op>& ops,
                    const RefHashes& refs, StoreIo* io) {
  LoopStats stats;
  io->before = sys.index_stats().pool;
  uint64_t pages = io->before.pages_read;
  for (const Op& op : ops) {
    const int c = static_cast<int>(op.cls);
    double t0 = NowUs();
    auto result = sys.Execute(op.text);
    double us = NowUs() - t0;
    stats.ms[c].push_back(us / 1000.0);
    stats.op_s += us / 1e6;
    ++stats.attempted;
    uint64_t now = sys.index_stats().pool.pages_read;
    ++io->ops[c];
    io->pages[c] += now - pages;
    pages = now;
    Check(result, op, refs, &stats);
  }
  io->after = sys.index_stats().pool;
  return stats;
}

/// The calls of the traced loop (ParseFql, Plan, Execute) without
/// spans: the baseline of trace.overhead_frac. Returns the summed op
/// time in seconds.
double UntracedCallsLoop(qof::FileQuerySystem& sys,
                         const std::vector<Op>& ops) {
  double op_s = 0;
  for (const Op& op : ops) {
    double t0 = NowUs();
    (void)qof::ParseFql(op.text);
    (void)sys.Plan(op.text);
    (void)sys.Execute(op.text);
    op_s += (NowUs() - t0) / 1e6;
  }
  return op_s;
}

/// The timed loop again, with spans around ParseFql, Plan and Execute.
LoopStats TracedLoop(qof::FileQuerySystem& sys, const std::vector<Op>& ops,
                     const RefHashes& refs, Tracer* tracer,
                     LayerValues* layers) {
  LoopStats stats;
  QuerySums sums;
  double parse_sum_us = 0;
  double plan_sum_us = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const int c = static_cast<int>(op.cls);
    uint64_t root = tracer->Begin("op", 0, i);
    uint64_t parse = tracer->Begin("query.parse", root, i);
    auto parsed = qof::ParseFql(op.text);
    tracer->End(parse);
    uint64_t plan = tracer->Begin("compiler.plan", root, i);
    auto planned = sys.Plan(op.text);
    tracer->End(plan);
    const uint64_t pages_before = sys.index_stats().pool.pages_read;
    uint64_t exec = tracer->Begin("engine.execute", root, i);
    auto result = sys.Execute(op.text);
    tracer->End(exec);
    tracer->End(root);
    const uint64_t pages_after = sys.index_stats().pool.pages_read;

    double op_us = tracer->DurationUs(root);
    stats.ms[c].push_back(op_us / 1000.0);
    stats.op_s += op_us / 1e6;
    ++stats.attempted;
    if (!parsed.ok() || !planned.ok()) {
      ++stats.failed;
      continue;
    }
    Check(result, op, refs, &stats);
    if (!result.ok()) continue;

    double parse_us = tracer->DurationUs(parse);
    double plan_us = tracer->DurationUs(plan) - parse_us;
    tracer->Attr(exec, "pages_read", pages_after - pages_before);
    // Execute parses and plans again internally: the engine's own time
    // is Execute minus the separately timed parse and plan.
    sums.Add(op.cls, result->stats,
             tracer->DurationUs(exec) - parse_us - plan_us, tracer, exec, i);
    parse_sum_us += parse_us;
    plan_sum_us += plan_us;
  }
  double q = std::max<uint64_t>(sums.queries(), 1);
  (*layers)["query.parse_us"] = parse_sum_us / q;
  (*layers)["compiler.plan_us"] = plan_sum_us / q;
  sums.Report(layers);
  return stats;
}

}  // namespace

RefHashes ReferenceHashes(qof::FileQuerySystem& ref,
                          const std::vector<Op>& ops) {
  RefHashes refs;
  std::set<std::string> seen;
  for (const Op& op : ops) {
    if (!seen.insert(op.text).second) continue;
    auto result = ref.Execute(op.text);
    if (!result.ok()) {
      std::fprintf(stderr, "reference query failed: %s (%s)\n",
                   op.text.c_str(), result.status().ToString().c_str());
      continue;
    }
    refs[op.text] = HashRows(ResultRows(*result));
  }
  return refs;
}

int RunInProcess(const Args& args, const std::vector<Template>& mix,
                 const std::vector<Op>& ops, const RefHashes& refs,
                 InProcessSetup setup) {
  qof::FileQuerySystem& sys = *setup.sut;
  // Peak memory covers the loops only: return what set-up and the
  // reference systems freed, then restart the watermark.
  malloc_trim(0);
  ResetPeakRss();

  // One untimed pass of each template: the first op that uses it.
  double t0 = NowUs();
  std::set<int> warmed;
  for (const Op& op : ops) {
    if (warmed.insert(op.tmpl).second) (void)sys.Execute(op.text);
  }
  double warmup_s = (NowUs() - t0) / 1e6;

  StoreIo io;
  LoopStats timed = TimedLoop(sys, ops, refs, &io);
  double peak_rss_mb = PeakRssMb();

  std::string info =
      "{\"workload\": " + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"ops\": " + std::to_string(ops.size()) +
      ", \"digest\": \"" + Hex(Digest(ops)) + "\"" +
      ", \"classes\": " + ClassInfoJson(timed.ms) +
      ", \"untimed_s\": {\"reference\": " + JsonNumber(setup.reference_s) +
      ", \"warmup\": " + JsonNumber(warmup_s) +
      ", \"checks\": " + JsonNumber(timed.check_s) + "}" +
      ", \"timed_loop_s\": " + JsonNumber(timed.op_s);

  if (!args.trace) {
    Metrics metrics;
    metrics.push_back({"setup_s", {setup.setup_s, "s"}});
    metrics.push_back({"ops_per_s", {timed.OpsPerS(), "1/s"}});
    AddLatencyMetrics(timed.ms, {Cls::kPoint, Cls::kScan}, &metrics);
    metrics.push_back({"peak_rss_mb", {peak_rss_mb, "MB"}});
    metrics.push_back({"space_ratio", {setup.space_ratio, "B/B"}});
    metrics.push_back(
        {"ok_frac",
         {static_cast<double>(timed.attempted - timed.failed) /
              timed.attempted,
          "frac"}});
    PrintInfo(info + "}");
    PrintResult(timed.failed == 0, timed.attempted, timed.failed, metrics);
    return 0;
  }

  Tracer tracer;
  LayerValues layers = setup.layers;
  io.Report(&layers);
  const double untraced_s = UntracedCallsLoop(sys, ops);
  LoopStats traced = TracedLoop(sys, ops, refs, &tracer, &layers);
  layers["trace.overhead_frac"] = 1.0 - untraced_s / traced.op_s;

  std::vector<std::string> templates;
  for (const Op& op : ops) templates.push_back(mix[op.tmpl].name);
  std::string stem = args.work_dir + "/trace-" + args.workload + "-seed" +
                     std::to_string(args.seed);
  std::string split;
  bool dumped = tracer.Write(stem, templates, &split);
  PrintInfo(info + ", \"untraced_calls_loop_s\": " + JsonNumber(untraced_s) +
            ", \"traced_loop_s\": " + JsonNumber(traced.op_s) +
            ", \"span_dump\": " + JsonString(stem + ".spans.json") +
            ", \"self_time_split\": " + split + "}");
  uint64_t attempted = timed.attempted + traced.attempted;
  uint64_t failed = timed.failed + traced.failed;
  PrintResult(failed == 0 && dumped, attempted, failed,
              PerLayerResult(layers));
  return 0;
}

}  // namespace e2e
