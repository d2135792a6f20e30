// Experiment E3 (§3.1): the relative cost of ⊃ (simple inclusion) and ⊃d
// (direct inclusion), including the paper's own layer-by-layer ⊃d
// program, on synthetic nested region sets of increasing depth. The
// paper presents the layered program precisely "to show that it is
// significantly more expensive than the simple inclusion operation".

#include <random>

#include <benchmark/benchmark.h>

#include "qof/region/region_index.h"
#include "qof/region/region_set.h"

namespace {

using qof::Region;
using qof::RegionSet;

// A forest of `chains` nested chains, each `depth` levels deep, split
// across two region names (even levels = R, odd levels = S).
struct Fixture {
  RegionSet r;
  RegionSet s;
  RegionSet universe;
};

Fixture MakeNested(int chains, int depth) {
  std::vector<Region> r;
  std::vector<Region> s;
  uint64_t base = 0;
  const uint64_t width = 4096;
  for (int c = 0; c < chains; ++c) {
    uint64_t lo = base;
    uint64_t hi = base + width;
    for (int d = 0; d < depth; ++d) {
      ((d % 2 == 0) ? r : s).push_back({lo, hi});
      ++lo;
      --hi;
      if (lo + 2 >= hi) break;
    }
    base += width + 8;
  }
  Fixture f;
  f.r = RegionSet::FromUnsorted(std::move(r));
  f.s = RegionSet::FromUnsorted(std::move(s));
  f.universe = Union(f.r, f.s);
  return f;
}

void BM_SimpleInclusion(benchmark::State& state) {
  Fixture f = MakeNested(2000, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    RegionSet out = Including(f.r, f.s);
    benchmark::DoNotOptimize(out.size());
  }
  state.counters["r"] = static_cast<double>(f.r.size());
  state.counters["s"] = static_cast<double>(f.s.size());
}

// The parent table is built once per universe (RegionIndex caches it), so
// it is built outside the timed loop; BM_ParentTableBuild prices it.
void BM_DirectInclusion(benchmark::State& state) {
  Fixture f = MakeNested(2000, static_cast<int>(state.range(0)));
  qof::ParentTable parents = qof::BuildParentTable(f.universe);
  for (auto _ : state) {
    RegionSet out = DirectlyIncluding(f.r, f.s, f.universe, parents);
    benchmark::DoNotOptimize(out.size());
  }
}

// The indexed-query shape: a handful of selected S members (every
// 1000th, so 2–16 of them) probed against the whole universe.
void BM_DirectInclusionSkewed(benchmark::State& state) {
  Fixture f = MakeNested(2000, static_cast<int>(state.range(0)));
  qof::ParentTable parents = qof::BuildParentTable(f.universe);
  std::vector<Region> few;
  for (size_t i = 0; i < f.s.size(); i += 1000) few.push_back(f.s[i]);
  RegionSet s = RegionSet::FromSortedUnique(std::move(few));
  for (auto _ : state) {
    RegionSet out = DirectlyIncluding(f.r, s, f.universe, parents);
    benchmark::DoNotOptimize(out.size());
  }
  state.counters["s"] = static_cast<double>(s.size());
  state.counters["universe"] = static_cast<double>(f.universe.size());
}

void BM_ParentTableBuild(benchmark::State& state) {
  Fixture f = MakeNested(2000, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(qof::BuildParentTable(f.universe).size());
  }
}

void BM_DirectInclusionLayered(benchmark::State& state) {
  Fixture f = MakeNested(2000, static_cast<int>(state.range(0)));
  std::vector<const RegionSet*> others = {&f.r};
  for (auto _ : state) {
    RegionSet out = DirectlyIncludingLayered(f.r, f.s, others);
    benchmark::DoNotOptimize(out.size());
  }
}

void BM_InnermostOutermost(benchmark::State& state) {
  Fixture f = MakeNested(2000, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Innermost(f.universe).size());
    benchmark::DoNotOptimize(Outermost(f.universe).size());
  }
}

void BM_SetOps(benchmark::State& state) {
  Fixture f = MakeNested(2000, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Union(f.r, f.s).size());
    benchmark::DoNotOptimize(Intersect(f.universe, f.r).size());
    benchmark::DoNotOptimize(Difference(f.universe, f.s).size());
  }
}

}  // namespace

BENCHMARK(BM_SimpleInclusion)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_DirectInclusion)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_DirectInclusionSkewed)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_ParentTableBuild)->Arg(2)->Arg(16);
BENCHMARK(BM_DirectInclusionLayered)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_InnermostOutermost)->Arg(4)->Arg(16);
BENCHMARK(BM_SetOps)->Arg(4)->Arg(16);

BENCHMARK_MAIN();
