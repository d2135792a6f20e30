// Incremental maintenance vs full rebuild (src/qof/maintain/): the cost
// of keeping indexes live under document-level mutations. A single-file
// update should re-parse only that file — its latency must track the
// document size, not the corpus size — while a from-scratch BuildIndexes
// pays for the whole corpus every time. Compaction (the deferred cost
// incremental mutation accrues) is timed separately.
//
// The pinned column is the same update with a snapshot held, which is
// what every served write pays (each qof_serve session pins one): the
// write forks the state and copies the instances, word shards and
// posting lists it touches instead of editing them in place.
//
// Usage: bench_incremental [--json <path>]
//   default path: BENCH_incremental.json in the current directory.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

constexpr int kRefsPerDoc = 20;

std::unique_ptr<qof::FileQuerySystem> MakeSystem(int num_docs) {
  auto schema = qof::BibtexSchema();
  auto system = std::make_unique<qof::FileQuerySystem>(*schema);
  for (int d = 0; d < num_docs; ++d) {
    qof::BibtexGenOptions gen;
    gen.num_references = kRefsPerDoc;
    gen.seed = static_cast<uint32_t>(d + 1);
    if (!system->AddFile("doc" + std::to_string(d) + ".bib",
                         qof::GenerateBibtex(gen))
             .ok()) {
      std::fprintf(stderr, "bench fixture setup failed\n");
      std::abort();
    }
  }
  return system;
}

void Row(int refs, qof_bench::JsonEmitter* json) {
  int num_docs = refs / kRefsPerDoc;
  auto system = MakeSystem(num_docs);
  system->SetParallelism(1);

  double build_us = qof_bench::MedianMicros(3, [&] {
    if (!system->BuildIndexes(qof::IndexSpec::Full()).ok()) std::abort();
  });
  uint64_t corpus_bytes = system->corpus().size();

  qof::BibtexGenOptions gen;
  gen.num_references = kRefsPerDoc;
  gen.seed = 0x5eedu;
  std::string replacement = qof::GenerateBibtex(gen);

  qof::MaintainStats before = system->maintain_stats();
  const int kRuns = 9;
  double update_us = qof_bench::MedianMicros(kRuns, [&] {
    if (!system->UpdateFile("doc0.bib", replacement).ok()) std::abort();
  });
  qof::MaintainStats after = system->maintain_stats();
  uint64_t reparsed_per_update =
      (after.bytes_reparsed - before.bytes_reparsed) /
      (after.generation - before.generation);

  std::vector<double> pinned;
  for (int i = 0; i < kRuns; ++i) {
    auto snapshot = system->AcquireSnapshot();
    if (!snapshot.ok()) std::abort();
    pinned.push_back(qof_bench::MedianMicros(1, [&] {
      if (!system->UpdateFile("doc0.bib", replacement).ok()) std::abort();
    }));
  }  // each snapshot (and the state only it holds) drops untimed
  std::sort(pinned.begin(), pinned.end());
  double pinned_us = pinned[pinned.size() / 2];

  double compact_us = qof_bench::MedianMicros(1, [&] {
    if (!system->CompactIndexes().ok()) std::abort();
  });

  std::printf(
      "%8d %6d  %11.0f us %11.0f us %11.0f us %6.1fx %8.1fx %10llu B "
      "(%5.2f%%) %11.0f us\n",
      refs, num_docs, build_us, update_us, pinned_us, pinned_us / update_us,
      build_us / update_us,
      static_cast<unsigned long long>(reparsed_per_update),
      100.0 * static_cast<double>(reparsed_per_update) /
          static_cast<double>(corpus_bytes),
      compact_us);
  const std::string config = "refs=" + std::to_string(refs);
  json->Row("incremental", config, "build_us", build_us);
  json->Row("incremental", config, "update_us", update_us);
  json->Row("incremental", config, "pinned_update_us", pinned_us);
  json->Row("incremental", config, "pinned_over_unpinned",
            pinned_us / update_us);
  json->Row("incremental", config, "compact_us", compact_us);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = qof_bench::ExtractJsonArg(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_incremental.json";
  qof_bench::JsonEmitter json(json_path);
  std::printf(
      "incremental maintenance: single-document update vs full rebuild\n"
      "(one mutation re-parses one %d-reference document; the rebuild\n"
      "re-parses everything; pinned = the update with a snapshot held)\n\n",
      kRefsPerDoc);
  std::printf("%8s %6s  %14s %14s %14s %7s %9s %21s %14s\n", "refs", "docs",
              "full build", "1-doc update", "pinned update", "pinned",
              "speedup", "reparsed/update (corpus)", "compact");
  for (int refs : {1000, 5000, 20000}) Row(refs, &json);
  json.Flush();
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
