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
// Each update column times kUpdates single updates and reports their
// median and quartiles, so a sub-millisecond row still resolves a
// regression. Auto-compaction is off: no timed update pays for one.
//
// Usage: bench_incremental [--json <path>]
//   default path: BENCH_incremental.json in the current directory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

constexpr int kRefsPerDoc = 20;
constexpr int kUpdates = 101;

/// Microseconds one call of `fn` takes.
double TimeMicros(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// First quartile, median and third quartile of `samples`.
struct Quartiles {
  double q1, median, q3;
};
Quartiles QuartilesOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return {samples[n / 4], samples[n / 2], samples[(3 * n) / 4]};
}

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
  qof::MaintainOptions maintain;
  maintain.auto_compact = false;
  system->SetMaintainOptions(maintain);

  double build_us = qof_bench::MedianMicros(3, [&] {
    if (!system->BuildIndexes(qof::IndexSpec::Full()).ok()) std::abort();
  });
  uint64_t corpus_bytes = system->corpus().size();

  qof::BibtexGenOptions gen;
  gen.num_references = kRefsPerDoc;
  gen.seed = 0x5eedu;
  std::string replacement = qof::GenerateBibtex(gen);

  auto update = [&] {
    if (!system->UpdateFile("doc0.bib", replacement).ok()) std::abort();
  };
  qof::MaintainStats before = system->maintain_stats();
  std::vector<double> unpinned_samples;
  for (int i = 0; i < kUpdates; ++i) {
    unpinned_samples.push_back(TimeMicros(update));
  }
  qof::MaintainStats after = system->maintain_stats();
  uint64_t reparsed_per_update =
      (after.bytes_reparsed - before.bytes_reparsed) /
      (after.generation - before.generation);

  std::vector<double> pinned_samples;
  for (int i = 0; i < kUpdates; ++i) {
    auto snapshot = system->AcquireSnapshot();
    if (!snapshot.ok()) std::abort();
    pinned_samples.push_back(TimeMicros(update));
  }  // each snapshot (and the state only it holds) drops untimed
  const Quartiles unpinned = QuartilesOf(std::move(unpinned_samples));
  const Quartiles pinned = QuartilesOf(std::move(pinned_samples));
  const double update_us = unpinned.median;
  const double pinned_us = pinned.median;

  double compact_us = qof_bench::MedianMicros(1, [&] {
    if (!system->CompactIndexes().ok()) std::abort();
  });

  std::printf(
      "%8d %6d  %11.0f us %5.0f/%5.0f/%5.0f us %5.0f/%5.0f/%5.0f us "
      "%6.1fx %8.1fx %10llu B (%5.2f%%) %11.0f us\n",
      refs, num_docs, build_us, unpinned.q1, update_us, unpinned.q3,
      pinned.q1, pinned_us, pinned.q3, pinned_us / update_us,
      build_us / update_us,
      static_cast<unsigned long long>(reparsed_per_update),
      100.0 * static_cast<double>(reparsed_per_update) /
          static_cast<double>(corpus_bytes),
      compact_us);
  const std::string config = "refs=" + std::to_string(refs);
  json->Row("incremental", config, "build_us", build_us);
  json->Row("incremental", config, "update_us", update_us);
  json->Row("incremental", config, "update_q1_us", unpinned.q1);
  json->Row("incremental", config, "update_q3_us", unpinned.q3);
  json->Row("incremental", config, "pinned_update_us", pinned_us);
  json->Row("incremental", config, "pinned_update_q1_us", pinned.q1);
  json->Row("incremental", config, "pinned_update_q3_us", pinned.q3);
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
      "re-parses everything; pinned = the update with a snapshot held;\n"
      "update columns are q1/median/q3 over %d updates each)\n\n",
      kRefsPerDoc, kUpdates);
  std::printf("%8s %6s  %14s %20s %20s %7s %9s %21s %14s\n", "refs", "docs",
              "full build", "1-doc update", "pinned update", "pinned",
              "speedup", "reparsed/update (corpus)", "compact");
  for (int refs : {1000, 5000, 20000}) Row(refs, &json);
  json.Flush();
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
