#ifndef QOF_E2EBENCH_COMMON_H_
#define QOF_E2EBENCH_COMMON_H_

// Shared pieces of the end-to-end benchmark: seeded op sequences,
// answer hashing, per-class latency summaries, memory probes and the
// result printer. Every workload builds a fixed op sequence from its
// seed and replays it, so each run does identical work.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "qof/engine/system.h"

namespace e2e {

/// Query classes; latency is only ever summarized within one class.
enum class Cls { kPoint = 0, kScan = 1, kJoin = 2, kWrite = 3 };
inline constexpr int kNumCls = 4;
const char* ClsName(Cls cls);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;   // scratch files (store files, span dumps)
  std::string serve_bin;  // the qof_serve binary
};

/// splitmix64: small, fast and identical on every platform, unlike the
/// standard library distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();          // [0, 1)
  size_t Below(size_t n);    // [0, n)

 private:
  uint64_t state_;
};

/// Rank-Zipf law over [0, n): P(rank r) ∝ 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  /// The rank at cumulative probability `u` in [0, 1).
  size_t Rank(double u) const;

 private:
  std::vector<double> cumulative_;
};

/// One step of a workload's fixed op sequence.
struct Op {
  Cls cls = Cls::kPoint;
  int tmpl = 0;        // index into the workload's template table
  std::string text;    // FQL, or the replacement text of a write
  std::string doc;     // writes only: the document replaced
};

struct Template {
  const char* name;
  Cls cls;
  double share;  // of all ops
};

/// Uniform draws for one op's literals. Draws are stratified per
/// (template, literal slot): a template's c ops take one value from
/// each stratum [k/c, (k+1)/c), in seed-shuffled order. Every run thus
/// covers each band of a literal distribution in the same proportion,
/// and the seed decides only which literal lands in which op and where
/// in its band. That keeps medians steady across seeds while the
/// literals still vary.
class Draws {
 public:
  Draws(Rng* rng, const std::vector<size_t>* counts)
      : rng_(rng), counts_(counts) {}
  double U(int slot);
  Rng& rng() { return *rng_; }

 private:
  friend std::vector<Op> MakeOps(const std::vector<Template>&, size_t,
                                 uint64_t,
                                 const std::function<void(Op&, Draws&)>&);
  Rng* rng_;
  const std::vector<size_t>* counts_;
  int tmpl_ = 0;
  std::map<std::pair<int, int>, std::vector<double>> strata_;
};

/// Builds `n` ops with exact per-template counts (largest remainder on
/// the shares), shuffled by `seed`; `fill` draws each op's literals.
std::vector<Op> MakeOps(const std::vector<Template>& mix, size_t n,
                        uint64_t seed,
                        const std::function<void(Op&, Draws&)>& fill);

/// FNV-1a over every op's class, template, document and text.
uint64_t Digest(const std::vector<Op>& ops);

/// Ops per run: the nominal rate of the workload times --seconds, so a
/// given --seconds always means the same work.
size_t OpCount(const Args& args, double nominal_ops_per_s);

/// A result's rows exactly as qof_serve prints them (before escaping):
/// rendered projection values, else "[start,end)" per region.
std::vector<std::string> ResultRows(const qof::QueryResult& result);
uint64_t HashRows(const std::vector<std::string>& rows);

/// Median and tail of one class. The tail is the highest percentile
/// with at least ten samples beyond it: nearest rank n - 10.
struct Latency {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
};
Latency Summarize(std::vector<double> samples);
double Median(std::vector<double> values);

double NowUs();  // steady clock, microseconds

/// Restarts the kernel's peak-RSS watermark of this process at its
/// current RSS (Linux /proc/self/clear_refs), so a later reading covers
/// only what follows.
void ResetPeakRss();
/// VmHWM of `pid` (0 = this process), in MB.
double PeakRssMb(int pid = 0);

using Docs = std::vector<std::pair<std::string, std::string>>;

/// Adds every (name, text) document; false on the first failure.
bool AddDocs(qof::FileQuerySystem& sys, const Docs& docs);

/// Values of one BibTeX field across `texts`, most frequent first (ties
/// by name): query literals are drawn from these ranks, so every literal
/// occurs in the corpus. kLastNames takes the last word of each person
/// in the AUTHOR and EDITOR fields.
enum BibtexField { kLastNames, kYears };
std::vector<std::string> RankedBibtexValues(
    const std::vector<const std::string*>& texts, BibtexField field);

/// Ordered name -> (value, unit) map for the result line.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Human-readable report lines go to stdout before the result; `info`
/// is one JSON object line carrying class sizes, tail percentiles and
/// the untimed phases.
void PrintInfo(const std::string& json_object);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics);

std::string Hex(uint64_t v);
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// Latency fields for the info line: {"point": {"n":..,"tail_pct":..}}.
std::string ClassInfoJson(
    const std::array<std::vector<double>, kNumCls>& samples);

/// Adds <cls>_p50_ms and <cls>_tail_ms for each class in `classes`.
void AddLatencyMetrics(const std::array<std::vector<double>, kNumCls>& ms,
                       std::initializer_list<Cls> classes,
                       Metrics* metrics);

}  // namespace e2e

#endif  // QOF_E2EBENCH_COMMON_H_
