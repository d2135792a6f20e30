// Benchmarks backing the adaptive-kernel and query-cache acceptance
// targets: galloping vs. linear set-operation kernels across size skews
// (the galloping side must win big at 1:10k and results must stay
// byte-identical), and cold vs. warm query runs with the plan + eval
// caches enabled. Plain driver (no google-benchmark): prints a table and
// writes the JSON rows the CI bench-smoke gate checks.
//
// Usage: bench_cache_kernels [--json <path>]
//   default path: BENCH_cache_kernels.json in the current directory.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using qof::KernelPolicy;
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

double TimePolicy(KernelPolicy policy, int runs,
                  const std::function<RegionSet()>& op, RegionSet* out) {
  qof::SetKernelPolicy(policy);
  double micros = qof_bench::MedianMicros(runs, [&] { *out = op(); });
  qof::SetKernelPolicy(KernelPolicy::kAdaptive);
  return micros;
}

void BenchKernels(qof_bench::JsonEmitter* emitter) {
  constexpr uint64_t kLarge = 1u << 20;  // 1M regions
  std::printf("kernels: linear vs galloping (large side: %llu regions)\n",
              static_cast<unsigned long long>(kLarge));
  std::printf("%-14s %-10s %14s %14s %9s\n", "op", "skew", "linear_us",
              "gallop_us", "speedup");
  RegionSet large = DenseSet(kLarge);
  struct Op {
    const char* name;
    RegionSet (*fn)(const RegionSet&, const RegionSet&);
  };
  // ⊃ and ⊂ have one cursor kernel each and ignore the policy, so only
  // ∩ has two kernels to compare here.
  const Op ops[] = {{"intersect", [](const RegionSet& a,
                                     const RegionSet& b) {
                       return Intersect(a, b);
                     }}};
  for (const Op& op : ops) {
    for (uint64_t skew : {uint64_t{1}, uint64_t{100}, uint64_t{10000}}) {
      RegionSet small = StridedSubset(kLarge, skew);
      const int runs = skew == 1 ? 5 : 15;
      RegionSet linear_out, gallop_out;
      double linear_us = TimePolicy(
          KernelPolicy::kLinear, runs,
          [&] { return op.fn(small, large); }, &linear_out);
      double gallop_us = TimePolicy(
          KernelPolicy::kGalloping, runs,
          [&] { return op.fn(small, large); }, &gallop_out);
      if (!(linear_out == gallop_out)) {
        std::fprintf(stderr, "FATAL: %s results differ at skew 1:%llu\n",
                     op.name, static_cast<unsigned long long>(skew));
        std::exit(1);
      }
      double speedup = gallop_us > 0 ? linear_us / gallop_us : 0;
      std::string config = "1:" + std::to_string(skew);
      std::printf("%-14s %-10s %14.1f %14.1f %8.1fx\n", op.name,
                  config.c_str(), linear_us, gallop_us, speedup);
      emitter->Row(op.name, config, "linear_micros", linear_us);
      emitter->Row(op.name, config, "gallop_micros", gallop_us);
      emitter->Row(op.name, config, "speedup", speedup);
    }
  }
}

void BenchCache(qof_bench::JsonEmitter* emitter) {
  constexpr const char* kFlagship =
      "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "
      "\"Chang\"";
  constexpr int kRefs = 20000;
  std::printf("\ncache: cold vs warm (corpus: %d references)\n", kRefs);
  std::printf("%-14s %14s %14s %9s\n", "config", "cold_us", "warm_us",
              "speedup");
  qof::FileQuerySystem& system =
      qof_bench::BibtexSystem(kRefs, qof::IndexSpec::Full(), "full");

  auto run = [&] {
    auto result = system.Execute(kFlagship);
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(*result);
  };

  system.SetCacheOptions(qof::CacheOptions{});
  qof::QueryResult uncached = run();

  // Cold: every iteration starts from freshly-reset caches.
  qof::QueryResult cold_result;
  double cold_us = qof_bench::MedianMicros(15, [&] {
    system.SetCacheOptions(qof::CacheOptions::Enabled());
    cold_result = run();
  });

  // Warm: caches stay populated across iterations.
  system.SetCacheOptions(qof::CacheOptions::Enabled());
  run();  // populate
  qof::QueryResult warm_result;
  double warm_us =
      qof_bench::MedianMicros(25, [&] { warm_result = run(); });
  system.SetCacheOptions(qof::CacheOptions{});

  if (warm_result.regions != cold_result.regions ||
      warm_result.regions != uncached.regions) {
    std::fprintf(stderr, "FATAL: cached results differ from uncached\n");
    std::exit(1);
  }
  double speedup = warm_us > 0 ? cold_us / warm_us : 0;
  std::printf("%-14s %14.1f %14.1f %8.1fx\n", "flagship", cold_us,
              warm_us, speedup);
  emitter->Row("cache", "flagship", "cold_micros", cold_us);
  emitter->Row("cache", "flagship", "warm_micros", warm_us);
  emitter->Row("cache", "flagship", "speedup", speedup);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = qof_bench::ExtractJsonArg(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_cache_kernels.json";
  qof_bench::JsonEmitter emitter(json_path);
  BenchKernels(&emitter);
  BenchCache(&emitter);
  emitter.Flush();
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
