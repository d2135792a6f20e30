// The cost side of the indexing tradeoff (§6–§7): index construction time
// and footprint across corpus sizes and index specs. The paper trades
// query speed against "the amount of data being indexed"; this driver
// quantifies the amount.

#include <cstdio>
#include <string>

#include "bench_util.h"

namespace {

void Row(const char* label, const qof::IndexSpec& spec, int refs) {
  qof::BibtexGenOptions gen;
  gen.num_references = refs;
  std::string text = qof::GenerateBibtex(gen);
  auto schema = qof::BibtexSchema();
  qof::FileQuerySystem system(*schema);
  (void)system.AddFile("b.bib", text);
  if (!system.BuildIndexes(spec).ok()) return;
  auto store = system.ExportIndexes();
  std::printf("%8d  %-34s %9llu us %11llu B (%4.1f%% of corpus) "
              "%9zu B stored, %llu region entries\n",
              refs, label,
              static_cast<unsigned long long>(system.index_build_micros()),
              static_cast<unsigned long long>(system.IndexBytes()),
              100.0 * static_cast<double>(system.IndexBytes()) /
                  static_cast<double>(text.size()),
              store.ok() ? store->size() : 0,
              static_cast<unsigned long long>(
                  system.region_index().num_regions()));
}

}  // namespace

int main() {
  std::printf("index construction cost (build once, query many)\n\n");
  std::printf("%8s  %-34s %12s %14s %22s\n", "refs", "spec", "build",
              "memory", "stored");
  for (int refs : {1000, 5000, 20000}) {
    Row("full", qof::IndexSpec::Full(), refs);
    Row("partial {Ref, Authors, Last_Name}",
        qof::IndexSpec::Partial({"Reference", "Authors", "Last_Name"}),
        refs);
    Row("partial {Ref, Key, Last_Name}",
        qof::IndexSpec::Partial({"Reference", "Key", "Last_Name"}), refs);
    std::printf("\n");
  }
  return 0;
}
