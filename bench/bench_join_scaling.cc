// Index-join algorithm scaling: nested-loop vs. sort-merge join as the
// per-candidate attribute count grows (sort-merge must not lose at the
// largest size). Both algorithms run in production — the engine picks
// by CostModel::kSortMergeJoinMinPairs — and the sizes span both sides
// of that threshold. Plain program (no google-benchmark): prints a
// table and writes the JSON rows the CI bench-smoke gate checks.
//
// Usage: bench_join_scaling [--json <path>]
//   default path: BENCH_join_scaling.json in the current directory.

#include <cstdio>
#include <cstdlib>
#include <string>
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
  constexpr size_t kCandidates = 64;
  std::printf("\njoin: nested-loop vs sort-merge (%zu candidates)\n",
              kCandidates);
  std::printf("%-14s %14s %14s %9s\n", "attrs/side", "nested_us",
              "sortmerge_us", "speedup");
  for (size_t k : {size_t{4}, size_t{16}, size_t{64}, size_t{256},
                   size_t{1024}}) {
    JoinFixture f(kCandidates, k);
    const int runs = k >= 256 ? 7 : 25;
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
    std::string config = "k=" + std::to_string(k);
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
