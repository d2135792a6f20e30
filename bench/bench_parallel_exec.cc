// Benchmark backing the disk-tier prefetch acceptance target:
//
//   1. Skip-table-guided prefetch + ReadPages batching must cut VFS
//      read calls ≥4× on a scan-heavy disk-tier query (pages_read must
//      never increase) — prefetch changes I/O batching, not I/O volume.
//   2. Results must hash-match with prefetch on and off.
//
// Both configurations run the query serially on one thread (`_w1` in the
// config names). The corpus is the deterministic grammar-model bench
// corpus (Zipf-skewed words, regenerated from a seed — nothing checked
// in). The wall-clock column is informational; the gated metrics are
// I/O counts and result hashes.
//
// Usage: bench_parallel_exec [--json <path>] [--mb <corpus MiB>]
//   default path: BENCH_parallel_exec.json in the current directory;
//   default corpus 8 MiB (--mb 100+ exercises the scale knob).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "qof/engine/system.h"
#include "qof/fuzz/grammar_model.h"
#include "qof/schema/schema_text.h"

namespace {

using qof::BenchCorpus;
using qof::BenchCorpusSpec;
using qof::ExecutionMode;
using qof::FileQuerySystem;
using qof::QueryOptions;
using qof::QueryResult;
using qof::Region;

/// The scan-heavy disk query: two hot-word containments unioned with a
/// selective equality — long posting streams through the block-skipping
/// cursor kernels plus an n-ary union.
constexpr const char* kScanHeavyQuery =
    "SELECT x FROM Obj x WHERE x.Beta.ItemA CONTAINS \"apple\" "
    "OR x.Gamma.ItemB.ItemBVal CONTAINS \"baker\" "
    "OR x.Alpha = \"zulu\"";

std::string TempPath() {
  return "/tmp/qof-bench-parallel-" + std::to_string(::getpid()) +
         ".qofstore";
}

/// FNV-1a over the result's regions and rendered values — the "results
/// hash-match" gate compares these across configs.
uint64_t ResultHash(const QueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Region& region : r.regions) {
    mix(region.start);
    mix(region.end);
  }
  for (const std::string& v : r.RenderedValues()) {
    for (unsigned char c : v) mix(c);
  }
  return h;
}

struct IoTotals {
  uint64_t pages_read = 0;
  uint64_t read_calls = 0;
  uint64_t prefetch_hits = 0;
};

IoTotals SumIo(const QueryResult& r) {
  IoTotals io;
  for (const auto& [op, t] : r.stats.op_timings) {
    io.pages_read += t.pages_read;
    io.read_calls += t.read_calls;
    io.prefetch_hits += t.prefetch_hits;
  }
  return io;
}

struct Fixture {
  std::string schema_text;
  std::vector<std::pair<std::string, std::string>> docs;
  std::string store_path;
};

/// A fresh disk-backed system with a cold buffer pool, so every config's
/// I/O counts start from the same zero state.
std::unique_ptr<FileQuerySystem> OpenCold(const Fixture& fx) {
  auto schema = qof::ParseSchemaText(fx.schema_text);
  if (!schema.ok()) {
    std::fprintf(stderr, "bench schema parse failed: %s\n",
                 schema.status().ToString().c_str());
    std::abort();
  }
  auto system = std::make_unique<FileQuerySystem>(*schema);
  system->SetParallelism(1);
  for (const auto& [name, text] : fx.docs) {
    if (!system->AddFile(name, text).ok()) std::abort();
  }
  // Pool sized to the query's working set (as a deployment would be):
  // an undersized pool would let prefetched frames get clock-evicted
  // before their cursor decodes them, which measures eviction policy,
  // not prefetch batching.
  qof::PagedStoreOptions store_options;
  store_options.pool_pages = 4096;
  if (!system->OpenStore(fx.store_path, store_options).ok()) {
    std::fprintf(stderr, "bench store open failed\n");
    std::abort();
  }
  return system;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = qof_bench::ExtractJsonArg(&argc, argv);
  if (json_path.empty()) json_path = "BENCH_parallel_exec.json";
  size_t corpus_mb = 8;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--mb") {
      corpus_mb = static_cast<size_t>(std::atoll(argv[i + 1]));
    }
  }
  qof_bench::JsonEmitter json(json_path);

  BenchCorpusSpec spec;
  spec.seed = 42;
  spec.target_bytes = corpus_mb << 20;
  spec.zipf_s = 1.1;
  BenchCorpus corpus = qof::MakeBenchCorpus(spec);
  std::printf("corpus: %zu docs, %.1f MiB (seed %u, zipf %.2f)\n",
              corpus.docs.size(),
              corpus.total_bytes / (1024.0 * 1024.0), spec.seed,
              spec.zipf_s);

  Fixture fx;
  fx.schema_text = corpus.schema_text;
  fx.docs = std::move(corpus.docs);
  fx.store_path = TempPath();
  {
    auto schema = qof::ParseSchemaText(fx.schema_text);
    if (!schema.ok()) std::abort();
    FileQuerySystem builder(*schema);
    builder.SetParallelism(0);  // index build may use every core
    for (const auto& [name, text] : fx.docs) {
      if (!builder.AddFile(name, text).ok()) std::abort();
    }
    if (!builder.BuildIndexes(qof::IndexSpec::Full()).ok() ||
        !builder.SaveStore(fx.store_path, /*page_size=*/4096).ok()) {
      std::fprintf(stderr, "bench store build failed\n");
      std::abort();
    }
  }

  std::printf("\n%-28s %10s %10s %10s %10s  %s\n", "config", "micros",
              "pages", "reads", "pf_hits", "hash");

  uint64_t first_hash = 0;
  bool hashes_match = true;
  for (bool prefetch : {false, true}) {
    auto system = OpenCold(fx);
    QueryOptions options;
    options.prefetch = prefetch;
    double micros = 0;
    auto result = [&] {
      auto start = std::chrono::steady_clock::now();
      auto r = system->Execute(kScanHeavyQuery, ExecutionMode::kAuto,
                               options);
      micros = std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count();
      return r;
    }();
    if (!result.ok()) {
      std::fprintf(stderr, "bench query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    IoTotals io = SumIo(*result);
    const qof::BufferPoolStats pool = system->index_stats().pool;
    std::fprintf(stderr,
                 "  [pool] fetches=%llu hits=%llu misses=%llu "
                 "pf_pages=%llu pf_hits=%llu evict=%llu calls=%llu\n",
                 (unsigned long long)pool.fetches,
                 (unsigned long long)pool.hits,
                 (unsigned long long)pool.misses,
                 (unsigned long long)pool.prefetch_pages,
                 (unsigned long long)pool.prefetch_hits,
                 (unsigned long long)pool.evictions,
                 (unsigned long long)pool.read_calls);
    uint64_t hash = ResultHash(*result);
    if (!prefetch) first_hash = hash;
    hashes_match = hashes_match && hash == first_hash;

    const std::string config = prefetch ? "pf_on_w1" : "pf_off_w1";
    std::printf("%-28s %10.0f %10llu %10llu %10llu  %016llx\n",
                config.c_str(), micros,
                static_cast<unsigned long long>(io.pages_read),
                static_cast<unsigned long long>(io.read_calls),
                static_cast<unsigned long long>(io.prefetch_hits),
                static_cast<unsigned long long>(hash));
    json.Row("parallel_exec", config, "micros", micros);
    json.Row("parallel_exec", config, "pages_read",
             static_cast<double>(io.pages_read));
    json.Row("parallel_exec", config, "read_calls",
             static_cast<double>(io.read_calls));
    json.Row("parallel_exec", config, "prefetch_hits",
             static_cast<double>(io.prefetch_hits));
    // Double-precision JSON holds the hash exactly only below 2^53;
    // the low 48 bits are plenty for an equality gate.
    json.Row("parallel_exec", config, "result_hash_lo48",
             static_cast<double>(hash & ((1ull << 48) - 1)));
  }
  json.Row("parallel_exec", "all", "hashes_match",
           hashes_match ? 1.0 : 0.0);
  std::printf("\nresult hashes %s across all configs\n",
              hashes_match ? "MATCH" : "DIVERGE");

  std::remove(fx.store_path.c_str());
  json.Flush();
  std::printf("wrote %s\n", json_path.c_str());
  return hashes_match ? 0 : 1;
}
