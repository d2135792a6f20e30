#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace e2e {

uint64_t Tracer::Begin(std::string name, uint64_t parent, uint64_t req) {
  Span span;
  span.parent = parent;
  span.req = req;
  span.name = std::move(name);
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  return spans_.size();
}

void Tracer::End(uint64_t id) { spans_[id - 1].end_us = NowUs(); }

uint64_t Tracer::AddReported(std::string name, uint64_t parent,
                             uint64_t req, double start_us,
                             double duration_us) {
  Span span;
  span.parent = parent;
  span.req = req;
  span.name = std::move(name);
  span.start_us = start_us;
  span.end_us = start_us + duration_us;
  span.reported = true;
  spans_.push_back(std::move(span));
  return spans_.size();
}

void Tracer::Attr(uint64_t id, std::string key, double value) {
  spans_[id - 1].attrs.push_back({std::move(key), value});
}

double Tracer::DurationUs(uint64_t id) const {
  const Span& s = spans_[id - 1];
  return s.end_us - s.start_us;
}

bool Tracer::Write(const std::string& stem,
                   const std::vector<std::string>& templates,
                   std::string* split) const {
  *split = SelfTimeSplitJson(templates);
  std::ofstream split_out(stem + ".split.json");
  split_out << *split << "\n";
  std::ofstream out(stem + ".spans.json");
  double origin = spans_.empty() ? 0 : spans_.front().start_us;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i + 1
        << ", \"parent\": " << s.parent << ", \"req\": " << s.req
        << ", \"name\": " << JsonString(s.name)
        << ", \"start_us\": " << JsonNumber(s.start_us - origin)
        << ", \"end_us\": " << JsonNumber(s.end_us - origin);
    if (s.reported) out << ", \"reported\": true";
    if (!s.attrs.empty()) {
      out << ", \"attrs\": {";
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        out << (a == 0 ? "" : ", ") << JsonString(s.attrs[a].first) << ": "
            << JsonNumber(s.attrs[a].second);
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return split_out.good() && out.good();
}

std::string Tracer::SelfTimeSplitJson(
    const std::vector<std::string>& templates) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent - 1] += s.end_us - s.start_us;
  }
  struct PerTemplate {
    uint64_t ops = 0;
    double total_us = 0;  // root span durations
    std::map<std::string, double> self_us;
  };
  std::map<std::string, PerTemplate> split;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.req >= templates.size()) continue;
    PerTemplate& t = split[templates[s.req]];
    double duration = s.end_us - s.start_us;
    t.self_us[s.name] += duration - child_us[i];
    if (s.parent == 0) {
      ++t.ops;
      t.total_us += duration;
    }
  }
  std::string out = "{";
  bool first_t = true;
  for (const auto& [name, t] : split) {
    out += std::string(first_t ? "" : ", ") + JsonString(name) +
           ": {\"ops\": " + std::to_string(t.ops) +
           ", \"us_per_op\": " + JsonNumber(t.total_us / t.ops) +
           ", \"self\": {";
    first_t = false;
    bool first_s = true;
    for (const auto& [span, us] : t.self_us) {
      out += std::string(first_s ? "" : ", ") + JsonString(span) +
             ": {\"us_per_op\": " + JsonNumber(us / t.ops) +
             ", \"share\": " + JsonNumber(us / t.total_us) + "}";
      first_s = false;
    }
    out += "}}";
  }
  return out + "}";
}

double QuerySums::Add(Cls cls, const qof::QueryStats& stats,
                      double engine_us, Tracer* tracer, uint64_t span,
                      uint64_t req) {
  const int c = static_cast<int>(cls);
  double ir_us = 0;
  double nodes = 0;
  double cursor = tracer->StartUs(span);
  for (const auto& [kind, timing] : stats.op_timings) {
    tracer->AddReported("ir.op." + kind, span, req, cursor,
                        static_cast<double>(timing.micros));
    cursor += timing.micros;
    ir_us += timing.micros;
    nodes += timing.count;
    op_kind_us_[kind] += timing.micros;
  }
  tracer->Attr(span, "candidates", stats.candidates);
  tracer->Attr(span, "results", stats.results);
  tracer->Attr(span, "bytes_scanned", stats.bytes_scanned);
  tracer->Attr(span, "ir_nodes", nodes);
  ++queries_;
  ++ops_[c];
  ir_us_[c] += ir_us;
  ir_nodes_[c] += nodes;
  residual_us_ += engine_us - ir_us;
  algebra_ops_ += stats.algebra.total_ops();
  regions_produced_ += stats.algebra.regions_produced;
  max_intermediate_ = std::max(max_intermediate_, stats.algebra.max_intermediate);
  candidates_ += stats.candidates;
  if (stats.candidates > 0) candidate_results_ += stats.results;
  bytes_scanned_ += stats.bytes_scanned;
  objects_built_ += stats.objects_built;
  return ir_us;
}

void QuerySums::Report(LayerValues* out) const {
  LayerValues& v = *out;
  double q = std::max<uint64_t>(queries_, 1);
  for (Cls cls : {Cls::kPoint, Cls::kScan, Cls::kJoin}) {
    int c = static_cast<int>(cls);
    if (ops_[c] == 0) continue;
    std::string name = ClsName(cls);
    v["ir." + name + ".exec_us"] = ir_us_[c] / ops_[c];
    v["ir." + name + ".nodes"] = ir_nodes_[c] / ops_[c];
  }
  for (const auto& [kind, us] : op_kind_us_) {
    v["ir.op." + kind + "_us"] = us / q;
  }
  v["algebra.ops"] = algebra_ops_;
  v["algebra.regions_produced"] = regions_produced_;
  v["algebra.max_intermediate"] = max_intermediate_;
  v["engine.candidates"] = candidates_;
  v["engine.precision"] =
      candidates_ > 0 ? static_cast<double>(candidate_results_) / candidates_
                      : 0;
  v["engine.bytes_scanned"] = bytes_scanned_;
  v["engine.objects_built"] = objects_built_;
  v["engine.residual_us"] = residual_us_ / q;
}

const std::vector<LayerMetricDef>& PerLayerMetrics() {
  static const std::vector<LayerMetricDef> defs = {
      {"query.parse_us", "us"},
      {"compiler.plan_us", "us"},
      {"cache.plan_hit_ratio", "frac"},
      {"cache.eval_hit_ratio", "frac"},
      {"cache.eval_evictions", "count"},
      {"cache.invalidations", "count"},
      {"ir.point.exec_us", "us"},
      {"ir.scan.exec_us", "us"},
      {"ir.join.exec_us", "us"},
      {"ir.point.nodes", "count"},
      {"ir.scan.nodes", "count"},
      {"ir.join.nodes", "count"},
      {"ir.op.load_us", "us"},
      {"ir.op.union_us", "us"},
      {"ir.op.intersect_us", "us"},
      {"ir.op.difference_us", "us"},
      {"ir.op.innermost_us", "us"},
      {"ir.op.outermost_us", "us"},
      {"ir.op.including_us", "us"},
      {"ir.op.included_us", "us"},
      {"ir.op.directly-including_us", "us"},
      {"ir.op.directly-included_us", "us"},
      {"ir.op.select_us", "us"},
      {"ir.op.fuse_us", "us"},
      {"ir.op.project_us", "us"},
      {"ir.op.join_us", "us"},
      {"algebra.ops", "count"},
      {"algebra.regions_produced", "count"},
      {"algebra.max_intermediate", "count"},
      {"store.fetches", "count"},
      {"store.hit_ratio", "frac"},
      {"store.pages_read", "count"},
      {"store.read_calls", "count"},
      {"store.evictions", "count"},
      {"store.read_retries", "count"},
      {"store.prefetch_pages", "count"},
      {"store.prefetch_use_ratio", "frac"},
      {"store.point.pages_per_op", "pages"},
      {"store.scan.pages_per_op", "pages"},
      {"store.save_s", "s"},
      {"store.open_s", "s"},
      {"engine.candidates", "count"},
      {"engine.precision", "frac"},
      {"engine.bytes_scanned", "B"},
      {"engine.objects_built", "count"},
      {"engine.residual_us", "us"},
      {"text.add_s", "s"},
      {"indexer.build_s", "s"},
      {"index.bytes", "B"},
      {"maintain.update_p50_us", "us"},
      {"maintain.update_tail_us", "us"},
      {"maintain.compactions", "count"},
      {"maintain.compacting_update_us", "us"},
      {"maintain.delta_segments", "count"},
      {"maintain.tombstones", "count"},
      {"server.overhead_us", "us"},
      {"server.rejected", "count"},
      {"server.failed", "count"},
      {"protocol.point.response_bytes", "B"},
      {"protocol.scan.response_bytes", "B"},
      {"protocol.join.response_bytes", "B"},
      {"protocol.point.format_us", "us"},
      {"protocol.scan.format_us", "us"},
      {"protocol.join.format_us", "us"},
      {"trace.overhead_frac", "frac"},
  };
  return defs;
}

Metrics PerLayerResult(const LayerValues& values) {
  std::map<std::string, bool> known;
  Metrics out;
  for (const LayerMetricDef& def : PerLayerMetrics()) {
    known[def.name] = true;
    auto it = values.find(def.name);
    out.push_back(
        {def.name, {it == values.end() ? 0.0 : it->second, def.unit}});
  }
  for (const auto& [name, value] : values) {
    if (!known.count(name)) {
      std::fprintf(stderr, "unknown per-layer metric: %s\n", name.c_str());
      std::abort();
    }
  }
  return out;
}

}  // namespace e2e
