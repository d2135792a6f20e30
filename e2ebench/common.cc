#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace e2e {

const char* ClsName(Cls cls) {
  switch (cls) {
    case Cls::kPoint:
      return "point";
    case Cls::kScan:
      return "scan";
    case Cls::kJoin:
      return "join";
    case Cls::kWrite:
      return "write";
  }
  return "?";
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return (Next() >> 11) * 0x1.0p-53; }

size_t Rng::Below(size_t n) {
  return static_cast<size_t>(Uniform() * static_cast<double>(n));
}

Zipf::Zipf(size_t n, double s) {
  double total = 0;
  cumulative_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

size_t Zipf::Rank(double u) const {
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min<size_t>(it - cumulative_.begin(), cumulative_.size() - 1);
}

double Draws::U(int slot) {
  std::vector<double>& stratum = strata_[{tmpl_, slot}];
  if (stratum.empty()) {
    size_t c = (*counts_)[tmpl_];
    for (size_t k = 0; k < c; ++k) {
      stratum.push_back((k + rng_->Uniform()) / static_cast<double>(c));
    }
    for (size_t i = c; i > 1; --i) {
      std::swap(stratum[i - 1], stratum[rng_->Below(i)]);
    }
  }
  double u = stratum.back();
  stratum.pop_back();
  return u;
}

std::vector<Op> MakeOps(const std::vector<Template>& mix, size_t n,
                        uint64_t seed,
                        const std::function<void(Op&, Draws&)>& fill) {
  // Largest-remainder apportionment: the counts depend on n and the
  // shares only, never on the seed.
  std::vector<size_t> counts(mix.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    double exact = mix[i].share * static_cast<double>(n);
    counts[i] = static_cast<size_t>(exact);
    assigned += counts[i];
    remainders.push_back({exact - counts[i], i});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (size_t k = 0; assigned < n; ++k, ++assigned) {
    ++counts[remainders[k % remainders.size()].second];
  }

  std::vector<Op> ops;
  ops.reserve(n);
  for (size_t i = 0; i < mix.size(); ++i) {
    for (size_t c = 0; c < counts[i]; ++c) {
      Op op;
      op.cls = mix[i].cls;
      op.tmpl = static_cast<int>(i);
      ops.push_back(std::move(op));
    }
  }
  Rng rng(seed * 0x2545f4914f6cdd1dull + 17);
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.Below(i)]);
  }
  Draws draws(&rng, &counts);
  for (Op& op : ops) {
    draws.tmpl_ = op.tmpl;
    fill(op, draws);
  }
  return ops;
}

namespace {

void Fnv(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

}  // namespace

uint64_t Digest(const std::vector<Op>& ops) {
  uint64_t h = 1469598103934665603ull;
  for (const Op& op : ops) {
    int head[2] = {static_cast<int>(op.cls), op.tmpl};
    Fnv(&h, head, sizeof(head));
    Fnv(&h, op.doc.data(), op.doc.size());
    Fnv(&h, "\0", 1);
    Fnv(&h, op.text.data(), op.text.size());
    Fnv(&h, "\0", 1);
  }
  return h;
}

size_t OpCount(const Args& args, double nominal_ops_per_s) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(nominal_ops_per_s * args.seconds)));
}

std::vector<std::string> ResultRows(const qof::QueryResult& result) {
  if (!result.values.empty()) return result.RenderedValues();
  std::vector<std::string> rows;
  rows.reserve(result.regions.size());
  for (const qof::Region& region : result.regions) {
    rows.push_back("[" + std::to_string(region.start) + "," +
                   std::to_string(region.end) + ")");
  }
  return rows;
}

uint64_t HashRows(const std::vector<std::string>& rows) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& row : rows) {
    Fnv(&h, row.data(), row.size());
    Fnv(&h, "\n", 1);
  }
  return h;
}

bool AddDocs(qof::FileQuerySystem& sys, const Docs& docs) {
  for (const auto& [name, text] : docs) {
    if (!sys.AddFile(name, text).ok()) return false;
  }
  return true;
}

std::vector<std::string> RankedBibtexValues(
    const std::vector<const std::string*>& texts, BibtexField field) {
  std::map<std::string, uint64_t> counts;
  const std::vector<std::string> keys =
      field == kYears ? std::vector<std::string>{"YEAR = \""}
                      : std::vector<std::string>{"AUTHOR = \"", "EDITOR = \""};
  for (const std::string* text : texts) {
    for (const std::string& key : keys) {
      for (size_t pos = text->find(key); pos != std::string::npos;
           pos = text->find(key, pos)) {
        pos += key.size();
        std::string value = text->substr(pos, text->find('"', pos) - pos);
        if (field == kYears) {
          ++counts[value];
          continue;
        }
        size_t from = 0;
        while (true) {
          size_t sep = value.find(" and ", from);
          std::string person = value.substr(
              from, sep == std::string::npos ? std::string::npos : sep - from);
          ++counts[person.substr(person.rfind(' ') + 1)];
          if (sep == std::string::npos) break;
          from = sep + 5;
        }
      }
    }
  }
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (const auto& [value, n] : counts) ranked.push_back({n, value});
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<std::string> out;
  for (const auto& [n, value] : ranked) out.push_back(value);
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Latency Summarize(std::vector<double> samples) {
  Latency out;
  out.n = samples.size();
  if (samples.empty()) return out;
  out.p50 = Median(samples);
  std::sort(samples.begin(), samples.end());
  // Nearest rank n - 10 leaves exactly ten samples above it; with fewer
  // than eleven samples the maximum is the best the sample supports.
  size_t rank = out.n > 10 ? out.n - 10 : out.n;
  out.tail = samples[rank - 1];
  out.tail_pct = 100.0 * static_cast<double>(rank) / out.n;
  return out;
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb(int pid) {
  std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintInfo(const std::string& json_object) {
  std::printf("info %s\n", json_object.c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(value.first) +
           ", \"unit\": " + JsonString(value.second) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string ClassInfoJson(
    const std::array<std::vector<double>, kNumCls>& samples) {
  std::string out = "{";
  bool first = true;
  for (int c = 0; c < kNumCls; ++c) {
    if (samples[c].empty()) continue;
    Latency l = Summarize(samples[c]);
    if (!first) out += ", ";
    first = false;
    out += JsonString(ClsName(static_cast<Cls>(c))) +
           ": {\"n\": " + std::to_string(l.n) +
           ", \"tail_pct\": " + JsonNumber(l.tail_pct) +
           ", \"p50_ms\": " + JsonNumber(l.p50) +
           ", \"tail_ms\": " + JsonNumber(l.tail) + "}";
  }
  return out + "}";
}

void AddLatencyMetrics(const std::array<std::vector<double>, kNumCls>& ms,
                       std::initializer_list<Cls> classes,
                       Metrics* metrics) {
  for (Cls cls : classes) {
    Latency l = Summarize(ms[static_cast<int>(cls)]);
    std::string name = ClsName(cls);
    metrics->push_back({name + "_p50_ms", {l.p50, "ms"}});
    metrics->push_back({name + "_tail_ms", {l.tail, "ms"}});
  }
}

}  // namespace e2e
