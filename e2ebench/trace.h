#ifndef QOF_E2EBENCH_TRACE_H_
#define QOF_E2EBENCH_TRACE_H_

// The traced run's span store and per-layer metric table. Spans are
// recorded around the benchmark's own calls into the program (no
// tracing code lives in the library), kept in memory, and written out
// when the run ends.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace e2e {

class Tracer {
 public:
  /// Opens a span; `parent` 0 = a root. Spans of one op share `req`.
  uint64_t Begin(std::string name, uint64_t parent, uint64_t req);
  void End(uint64_t id);

  /// Adds a closed span whose duration the program reported but whose
  /// placement it did not (IR operator timings). Such spans are laid
  /// end to end from `start_us` and marked synthetic in the dump.
  uint64_t AddReported(std::string name, uint64_t parent, uint64_t req,
                       double start_us, double duration_us);

  void Attr(uint64_t id, std::string key, double value);
  double StartUs(uint64_t id) const { return spans_[id - 1].start_us; }
  double DurationUs(uint64_t id) const;

  /// Self time (duration minus children's durations) summed per
  /// (template of the op, span name); `templates[req]` names each op.
  /// Returns a JSON object: template -> {ops, us_per_op, self: {name:
  /// {us_per_op, share}}}.
  std::string SelfTimeSplitJson(const std::vector<std::string>& templates) const;

  /// Writes `<stem>.spans.json` (every span: id, parent, req, name,
  /// start/end in µs since the first span, attributes) and
  /// `<stem>.split.json` (the self-time split, also returned in
  /// `split`). False when a file cannot be written.
  bool Write(const std::string& stem,
             const std::vector<std::string>& templates,
             std::string* split) const;

 private:
  struct Span {
    uint64_t parent = 0;
    uint64_t req = 0;
    std::string name;
    double start_us = 0;
    double end_us = 0;
    bool reported = false;
    std::vector<std::pair<std::string, double>> attrs;
  };
  std::vector<Span> spans_;  // span id = index + 1
};

using LayerValues = std::map<std::string, double>;

/// Per-layer sums over the traced run's queries, from each query's own
/// QueryStats: IR time and nodes per class and per operator kind,
/// algebra and two-phase engine counters.
class QuerySums {
 public:
  /// Adds one query of class `cls` whose engine call is span `span` of
  /// op `req`; each IR operator timing becomes a reported child span.
  /// `engine_us` is the engine's own time for the query; what the IR
  /// operators do not account for is the engine residual. Returns the
  /// IR time.
  double Add(Cls cls, const qof::QueryStats& stats, double engine_us,
             Tracer* tracer, uint64_t span, uint64_t req);
  uint64_t queries() const { return queries_; }
  void Report(LayerValues* out) const;

 private:
  uint64_t queries_ = 0;
  double residual_us_ = 0;
  std::array<uint64_t, kNumCls> ops_{};
  std::array<double, kNumCls> ir_us_{};
  std::array<double, kNumCls> ir_nodes_{};
  std::map<std::string, double> op_kind_us_;
  uint64_t algebra_ops_ = 0;
  uint64_t regions_produced_ = 0;
  uint64_t max_intermediate_ = 0;
  uint64_t candidates_ = 0;
  uint64_t candidate_results_ = 0;
  uint64_t bytes_scanned_ = 0;
  uint64_t objects_built_ = 0;
};

/// The per-layer metrics of the traced run, in BENCHMARK.json order.
/// Every traced run prints all of them; a layer a workload bypasses
/// reads 0.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricDef>& PerLayerMetrics();

/// All per-layer metrics, taking values from `values` (0 when absent).
/// Aborts on a name that is not in the table: a typo would otherwise
/// silently report 0.
Metrics PerLayerResult(const LayerValues& values);

}  // namespace e2e

#endif  // QOF_E2EBENCH_TRACE_H_
