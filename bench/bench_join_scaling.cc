// Index-join algorithm scaling: the nested-loop oracle vs. the sort-merge
// join the engine runs, from a tiny join (4 candidates x 4 attributes a
// side) to 1024 attributes a side (sort-merge must not lose at the
// largest size). Plain program (no google-benchmark): prints a table and
// writes the JSON rows the CI bench-smoke gate checks.
//
// Usage: bench_join_scaling [--json <path>]
//   default path: BENCH_join_scaling.json in the current directory.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "qof/engine/join.h"

namespace {

using qof::Corpus;
using qof::Region;
using qof::RegionSet;

/// A synthetic join corpus: `n` candidate blocks, each holding `k`
/// attribute spans per side. Keys are 24 characters (past the SSO cap,
/// so the nested loop's per-attribute std::string really allocates),
/// with the distinguishing bytes up front as real identifiers have.
/// Sides use disjoint key alphabets except in every 8th candidate, where
/// one shared key is planted — rare matches are the nested loop's worst
/// case, since a miss makes it group and probe both full sides.
struct JoinFixture {
  Corpus corpus;
  RegionSet candidates;
  RegionSet lhs;
  RegionSet rhs;

  JoinFixture(size_t n, size_t k) {
    std::string text;
    std::vector<Region> cand, left, right;
    char key[48];
    for (size_t c = 0; c < n; ++c) {
      size_t block_start = text.size();
      auto emit = [&](const char* side, size_t i,
                      std::vector<Region>* out) {
        std::snprintf(key, sizeof(key), "%zx-%s", i, side);
        size_t start = text.size();
        text += key;
        while (text.size() - start < 24) text += 'z';
        out->push_back({start, text.size()});
        text += " ";
      };
      for (size_t i = 0; i < k; ++i) emit("left", i, &left);
      for (size_t i = 0; i < k; ++i) {
        if (c % 8 == 0 && i == k / 2) {
          emit("left", 0, &right);  // the planted shared key
        } else {
          emit("right", i, &right);
        }
      }
      text += "|";
      cand.push_back({block_start, text.size()});
    }
    if (!corpus.AddDocument("join.txt", text).ok()) {
      std::fprintf(stderr, "join fixture setup failed\n");
      std::abort();
    }
    candidates = RegionSet::FromUnsorted(std::move(cand));
    lhs = RegionSet::FromUnsorted(std::move(left));
    rhs = RegionSet::FromUnsorted(std::move(right));
  }
};

void BenchJoinScaling(qof_bench::JsonEmitter* emitter) {
  std::printf("\njoin: nested-loop vs sort-merge\n");
  std::printf("%-14s %14s %14s %9s\n", "config", "nested_us",
              "sortmerge_us", "speedup");
  // {candidates, attributes per side}: one small join (32 attributes in
  // all), then 64 candidates with a growing attribute count.
  const std::pair<size_t, size_t> sizes[] = {
      {4, 4}, {64, 4}, {64, 16}, {64, 64}, {64, 256}, {64, 1024}};
  for (auto [n, k] : sizes) {
    JoinFixture f(n, k);
    const int runs = k >= 256 ? 7 : n < 64 ? 201 : 25;
    std::vector<Region> nested_out, merged_out;
    double nested_us = qof_bench::MedianMicros(runs, [&] {
      auto r = qof::RunIndexJoin(f.corpus, f.candidates, f.lhs, f.rhs,
                                 qof::JoinAlgorithm::kNestedLoop);
      if (!r.ok()) std::abort();
      nested_out = std::move(*r);
    });
    double merged_us = qof_bench::MedianMicros(runs, [&] {
      auto r = qof::RunIndexJoin(f.corpus, f.candidates, f.lhs, f.rhs,
                                 qof::JoinAlgorithm::kSortMerge);
      if (!r.ok()) std::abort();
      merged_out = std::move(*r);
    });
    if (nested_out != merged_out || nested_out.empty()) {
      std::fprintf(stderr, "FATAL: join results differ at k=%zu\n", k);
      std::exit(1);
    }
    double speedup = merged_us > 0 ? nested_us / merged_us : 0;
    // The 64-candidate rows are named "k=<attrs>": CI's bench-smoke
    // gate reads the k=1024 row by that name.
    std::string config = n == 64 ? "k=" + std::to_string(k)
                                 : "n=" + std::to_string(n) +
                                       ",k=" + std::to_string(k);
    std::printf("%-14s %14.1f %14.1f %8.1fx\n", config.c_str(),
                nested_us, merged_us, speedup);
    emitter->Row("join", config, "nested_micros", nested_us);
    emitter->Row("join", config, "sortmerge_micros", merged_us);
    emitter->Row("join", config, "speedup", speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = qof_bench::ExtractJsonArg(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_join_scaling.json";
  qof_bench::JsonEmitter emitter(json_path);
  BenchJoinScaling(&emitter);
  emitter.Flush();
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
