// Two kernel comparisons, each exiting 1 if its two sides disagree:
//  - the adaptive ∩ kernels: galloping vs. linear merge across size
//    skews (the galloping side must win big at 1:10k);
//  - the ⊃d probe over the universe vs. over the separator table the RIG
//    allows (paper §3), on the 8 MiB seed-42 grammar-model corpus of the
//    grammar-disk benchmark: Obj ⊃d Alpha with 1%, 10% and all of Alpha,
//    and Nest ⊃d Obj. Build times of the two tables are reported too.
// Plain program (no google-benchmark): prints tables and writes JSON rows.
//
// Usage: bench_kernels [--json <path>]
//   default path: BENCH_kernels.json in the current directory.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "qof/fuzz/grammar_model.h"

namespace {

using qof::Region;
using qof::RegionSet;

/// `n` disjoint regions spaced so subsets at any stride stay non-trivial.
RegionSet DenseSet(uint64_t n) {
  std::vector<Region> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) v.push_back({4 * i, 4 * i + 2});
  return RegionSet::FromUnsorted(std::move(v));
}

/// Every `stride`-th member of DenseSet(n) — intersects DenseSet(n) in
/// itself, so the identity checks have known answers.
RegionSet StridedSubset(uint64_t n, uint64_t stride) {
  std::vector<Region> v;
  for (uint64_t i = 0; i < n; i += stride) v.push_back({4 * i, 4 * i + 2});
  return RegionSet::FromUnsorted(std::move(v));
}

void BenchKernels(qof_bench::JsonEmitter* emitter) {
  constexpr uint64_t kLarge = 1u << 20;  // 1M regions
  std::printf("kernels: linear vs galloping (large side: %llu regions)\n",
              static_cast<unsigned long long>(kLarge));
  std::printf("%-14s %-10s %14s %14s %9s\n", "op", "skew", "linear_us",
              "gallop_us", "speedup");
  RegionSet large = DenseSet(kLarge);
  // ⊃ and ⊂ have one cursor kernel each, so only ∩ has two kernels to
  // compare here.
  const char* op = "intersect";
  for (uint64_t skew : {uint64_t{1}, uint64_t{100}, uint64_t{10000}}) {
    RegionSet small = StridedSubset(kLarge, skew);
    const int runs = skew == 1 ? 5 : 15;
    RegionSet linear_out, gallop_out;
    double linear_us = qof_bench::MedianMicros(
        runs, [&] { linear_out = qof::LinearIntersect(small, large); });
    double gallop_us = qof_bench::MedianMicros(
        runs, [&] { gallop_out = qof::GallopIntersect(small, large); });
    if (!(linear_out == gallop_out)) {
      std::fprintf(stderr, "FATAL: %s results differ at skew 1:%llu\n", op,
                   static_cast<unsigned long long>(skew));
      std::exit(1);
    }
    double speedup = gallop_us > 0 ? linear_us / gallop_us : 0;
    std::string config = "1:" + std::to_string(skew);
    std::printf("%-14s %-10s %14.1f %14.1f %8.1fx\n", op, config.c_str(),
                linear_us, gallop_us, speedup);
    emitter->Row(op, config, "linear_micros", linear_us);
    emitter->Row(op, config, "gallop_micros", gallop_us);
    emitter->Row(op, config, "speedup", speedup);
  }
}

/// Every `stride`-th member of `set`.
RegionSet EveryNth(const RegionSet& set, size_t stride) {
  std::vector<Region> v;
  for (size_t i = 0; i < set.size(); i += stride) v.push_back(set[i]);
  return RegionSet::FromSortedUnique(std::move(v));
}

void BenchDirectlyIncluding(qof_bench::JsonEmitter* emitter) {
  qof::BenchCorpusSpec spec;
  spec.seed = 42;
  spec.target_bytes = size_t{8} << 20;
  spec.zipf_s = 1.1;
  qof::BenchCorpus corpus = qof::MakeBenchCorpus(spec);
  auto schema = qof::ParseSchemaText(corpus.schema_text);
  if (!schema.ok()) {
    std::fprintf(stderr, "FATAL: schema: %s\n",
                 schema.status().ToString().c_str());
    std::exit(1);
  }
  qof::FileQuerySystem sys(*schema);
  for (const auto& [name, text] : corpus.docs) {
    if (!sys.AddFile(name, text).ok()) std::exit(1);
  }
  if (!sys.BuildIndexes(qof::IndexSpec::Full()).ok()) std::exit(1);
  const qof::RegionIndex& regions = sys.region_index();
  const qof::SeparatorFacts facts = sys.separator_facts();

  std::printf("\ndirectly-including: universe vs separator table "
              "(8 MiB grammar corpus, %zu regions)\n",
              static_cast<size_t>(regions.num_regions()));
  double universe_build = qof_bench::MedianMicros(1, [&] {
    (void)regions.Universe();
    (void)regions.Parents();
  });
  const qof::RegionSet& universe = regions.Universe();
  const qof::ParentTable& parents = regions.Parents();
  emitter->Row("directly-including", "universe", "build_micros",
               universe_build);
  std::printf("universe + parent table: %zu regions, built in %.0f us\n",
              universe.size(), universe_build);
  std::printf("%-22s %14s %14s %9s\n", "config", "universe_us",
              "separators_us", "speedup");
  std::map<std::vector<std::string>, double> built_sets;

  struct Case {
    const char* outer;
    const char* inner;
    size_t stride;  // probe every stride-th inner member
  };
  for (const Case& c : {Case{"Obj", "Alpha", 100}, Case{"Obj", "Alpha", 10},
                        Case{"Obj", "Alpha", 1}, Case{"Nest", "Obj", 1}}) {
    // The separators the pass pipeline assigns to `outer >> inner`.
    auto expr = qof::ParseRegionExpr(std::string(c.outer) + " >> " + c.inner);
    if (!expr.ok()) std::exit(1);
    qof::IrProgram program = qof::LowerToIr(expr->get(), nullptr, nullptr,
                                            nullptr);
    qof::RunPasses(&program, &regions, nullptr, &facts);
    const std::vector<std::string>& names =
        program.nodes[program.candidates].separators;
    std::shared_ptr<const qof::SeparatorTable> table;
    double build = qof_bench::MedianMicros(1, [&] {
      auto built = regions.Separators(names);
      if (!built.ok()) std::exit(1);
      table = *built;
    });
    if (built_sets.emplace(names, build).second) {
      std::string set;
      for (const std::string& name : names) {
        set += (set.empty() ? "seps=" : "+") + name;
      }
      emitter->Row("directly-including", set, "build_micros", build);
    }
    const qof::RegionSet& outer = **regions.Get(c.outer);
    const qof::RegionSet probes = EveryNth(**regions.Get(c.inner), c.stride);
    qof::RegionSet over_universe, over_separators;
    const int runs = c.stride == 1 ? 5 : 15;
    double universe_us = qof_bench::MedianMicros(runs, [&] {
      over_universe = qof::DirectlyIncluding(outer, probes, universe, parents);
    });
    double separators_us = qof_bench::MedianMicros(runs, [&] {
      over_separators = qof::DirectlyIncluding(outer, probes, table->regions,
                                               table->parents);
    });
    std::string config = std::string(c.outer) + ">>" + c.inner + "/" +
                         std::to_string(100 / c.stride) + "%";
    if (names.empty() || !(over_universe == over_separators)) {
      std::fprintf(stderr, "FATAL: directly-including %s: %s\n",
                   config.c_str(),
                   names.empty() ? "not narrowed" : "results differ");
      std::exit(1);
    }
    double speedup = separators_us > 0 ? universe_us / separators_us : 0;
    std::printf("%-22s %14.1f %14.1f %8.1fx  (table of %zu, built in "
                "%.0f us)\n",
                config.c_str(), universe_us, separators_us, speedup,
                table->regions.size(), built_sets[names]);
    emitter->Row("directly-including", config, "universe_micros",
                 universe_us);
    emitter->Row("directly-including", config, "separators_micros",
                 separators_us);
    emitter->Row("directly-including", config, "speedup", speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = qof_bench::ExtractJsonArg(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_kernels.json";
  qof_bench::JsonEmitter emitter(json_path);
  BenchKernels(&emitter);
  BenchDirectlyIncluding(&emitter);
  emitter.Flush();
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
