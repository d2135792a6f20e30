// The adaptive ∩ kernels: galloping vs. linear merge across size skews
// (the galloping side must win big at 1:10k, and results must stay
// byte-identical — the program exits 1 if they differ). Plain program (no
// google-benchmark): prints a table and writes JSON rows.
//
// Usage: bench_kernels [--json <path>]
//   default path: BENCH_kernels.json in the current directory.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"

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

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = qof_bench::ExtractJsonArg(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_kernels.json";
  qof_bench::JsonEmitter emitter(json_path);
  BenchKernels(&emitter);
  emitter.Flush();
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
