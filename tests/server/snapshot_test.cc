// Generation-snapshot isolation at the engine level: pinned snapshots
// answer byte-identically across mutations, compaction, and full
// rebuilds (copy-on-write, sharing every piece a write does not touch),
// and the caches of their state survive unrelated mutations for as long
// as a snapshot of it lives (see qof/engine/snapshot.h and DESIGN.md,
// "Server & snapshot isolation").

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/store/store_format.h"

namespace qof {
namespace {

constexpr const char* kProbeFql =
    "SELECT r FROM References r "
    "WHERE r.Authors.Name.Last_Name = \"Chang\"";

std::string Doc(uint32_t seed, int refs = 20) {
  BibtexGenOptions gen;
  gen.num_references = refs;
  gen.seed = seed;
  gen.probe_author_rate = 0.2;
  return GenerateBibtex(gen);
}

std::string Fingerprint(const Result<QueryResult>& r) {
  if (!r.ok()) return "error:" + r.status().ToString();
  std::string out;
  for (const Region& region : r->regions) {
    out += std::to_string(region.start) + "-" +
           std::to_string(region.end) + ";";
  }
  for (const std::string& v : r->RenderedValues()) out += v + "|";
  return out;
}

std::unique_ptr<FileQuerySystem> MakeSystem(bool caches = false) {
  auto schema = BibtexSchema();
  EXPECT_TRUE(schema.ok());
  auto system = std::make_unique<FileQuerySystem>(*schema);
  EXPECT_TRUE(system->AddFile("a.bib", Doc(11)).ok());
  EXPECT_TRUE(system->AddFile("b.bib", Doc(22)).ok());
  if (caches) system->SetCacheOptions(CacheOptions::Enabled());
  EXPECT_TRUE(system->BuildIndexes(IndexSpec::Full()).ok());
  return system;
}

TEST(Snapshot, PinnedReadsAreImmutableAcrossMutations) {
  auto system = MakeSystem();
  auto snapshot = system->AcquireSnapshot();
  ASSERT_TRUE(snapshot.ok());
  std::string before = Fingerprint(
      system->ExecuteOnSnapshot(**snapshot, kProbeFql));
  ASSERT_TRUE(before.rfind("error:", 0) != 0) << before;

  // Every mutation kind in turn; the pinned view never moves.
  ASSERT_TRUE(system->AddFile("c.bib", Doc(33)).ok());
  EXPECT_EQ(Fingerprint(system->ExecuteOnSnapshot(**snapshot, kProbeFql)),
            before);
  ASSERT_TRUE(system->UpdateFile("a.bib", Doc(44)).ok());
  EXPECT_EQ(Fingerprint(system->ExecuteOnSnapshot(**snapshot, kProbeFql)),
            before);
  ASSERT_TRUE(system->RemoveFile("b.bib").ok());
  EXPECT_EQ(Fingerprint(system->ExecuteOnSnapshot(**snapshot, kProbeFql)),
            before);
  ASSERT_TRUE(system->CompactIndexes().ok());
  EXPECT_EQ(Fingerprint(system->ExecuteOnSnapshot(**snapshot, kProbeFql)),
            before);

  // The live view did move.
  EXPECT_NE(Fingerprint(system->Execute(kProbeFql)), before);
}

TEST(Snapshot, GenerationStampsRecordThePinPoint) {
  auto system = MakeSystem();
  auto s0 = system->AcquireSnapshot();
  ASSERT_TRUE(s0.ok());
  uint64_t g0 = (*s0)->maintain.generation;

  ASSERT_TRUE(system->AddFile("c.bib", Doc(33)).ok());
  auto s1 = system->AcquireSnapshot();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ((*s0)->maintain.generation, g0);
  EXPECT_EQ((*s1)->maintain.generation, g0 + 1);
  EXPECT_EQ(system->index_generation(), g0 + 1);

  // Distinct pins answer for their own generation, concurrently valid.
  std::string old_answer =
      Fingerprint(system->ExecuteOnSnapshot(**s0, kProbeFql));
  std::string new_answer =
      Fingerprint(system->ExecuteOnSnapshot(**s1, kProbeFql));
  EXPECT_NE(old_answer, new_answer);
  EXPECT_EQ(new_answer, Fingerprint(system->Execute(kProbeFql)));
}

TEST(Snapshot, SurvivesFullRebuild) {
  // BuildIndexes replaces the compiler and resets maintenance counters;
  // a snapshot pinned before the rebuild keeps its own compiler and
  // index state (and its own plan cache: the rebuild starts a fresh one
  // for the new compiler).
  auto system = MakeSystem(/*caches=*/true);
  auto snapshot = system->AcquireSnapshot();
  ASSERT_TRUE(snapshot.ok());
  std::string before = Fingerprint(
      system->ExecuteOnSnapshot(**snapshot, kProbeFql));

  ASSERT_TRUE(system->UpdateFile("a.bib", Doc(55)).ok());
  ASSERT_TRUE(system->BuildIndexes(IndexSpec::Full()).ok());

  EXPECT_EQ(Fingerprint(system->ExecuteOnSnapshot(**snapshot, kProbeFql)),
            before);
  EXPECT_NE(Fingerprint(system->Execute(kProbeFql)), before);
}

TEST(Snapshot, WarmEvalEntriesSurviveUnrelatedMutation) {
  // Entries cached on a pinned state keep serving that snapshot's
  // queries after an unrelated UpdateFile — the mutation must not cost
  // pinned readers their warm cache.
  auto system = MakeSystem(/*caches=*/true);
  auto snapshot = system->AcquireSnapshot();
  ASSERT_TRUE(snapshot.ok());

  std::string cold = Fingerprint(
      system->ExecuteOnSnapshot(**snapshot, kProbeFql));
  CacheStats warm0 = system->cache_stats();
  std::string warm = Fingerprint(
      system->ExecuteOnSnapshot(**snapshot, kProbeFql));
  CacheStats warm1 = system->cache_stats();
  EXPECT_EQ(warm, cold);
  ASSERT_GT(warm1.eval_hits, warm0.eval_hits)
      << "second snapshot query did not hit the eval cache";

  // Unrelated mutation: the new state starts with a fresh cache; the
  // snapshot keeps the old one.
  ASSERT_TRUE(system->UpdateFile("b.bib", Doc(66)).ok());

  std::string after = Fingerprint(
      system->ExecuteOnSnapshot(**snapshot, kProbeFql));
  CacheStats warm2 = system->cache_stats();
  EXPECT_EQ(after, cold);
  EXPECT_GT(warm2.eval_hits, warm1.eval_hits)
      << "pinned state's entry was flushed by an unrelated mutation";
}

TEST(Snapshot, TwoSnapshotsOfOneStateShareOneCache) {
  auto system = MakeSystem(/*caches=*/true);
  auto a = system->AcquireSnapshot();
  auto b = system->AcquireSnapshot();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_NE((*a)->eval_cache, nullptr);
  EXPECT_EQ((*a)->eval_cache, (*b)->eval_cache);
  EXPECT_EQ((*a)->plan_cache, (*b)->plan_cache);

  std::string cold = Fingerprint(system->ExecuteOnSnapshot(**a, kProbeFql));
  CacheStats s0 = system->cache_stats();
  std::string warm = Fingerprint(system->ExecuteOnSnapshot(**b, kProbeFql));
  CacheStats s1 = system->cache_stats();
  EXPECT_EQ(warm, cold);
  EXPECT_GT(s1.eval_hits, s0.eval_hits) << "b missed what a cached";
  EXPECT_EQ(s1.eval_misses, s0.eval_misses);
  EXPECT_GT(s1.plan_hits, s0.plan_hits);

  // A write publishes a new state with its own eval cache; the plan
  // cache belongs to the build and carries over.
  ASSERT_TRUE(system->UpdateFile("b.bib", Doc(88)).ok());
  auto c = system->AcquireSnapshot();
  ASSERT_TRUE(c.ok());
  EXPECT_NE((*c)->eval_cache, (*a)->eval_cache);
  EXPECT_EQ((*c)->plan_cache, (*a)->plan_cache);
}

TEST(Snapshot, ReleasingThePinReclaimsItsCacheEntries) {
  auto system = MakeSystem(/*caches=*/true);
  uint64_t while_pinned = 0;
  {
    auto snapshot = system->AcquireSnapshot();
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(
        system->ExecuteOnSnapshot(**snapshot, kProbeFql).ok());
    // Move the live state past the pin so the snapshot holds the only
    // reference to its state's cache.
    ASSERT_TRUE(system->UpdateFile("b.bib", Doc(77)).ok());
    ASSERT_TRUE(system->Execute(kProbeFql).ok());
    while_pinned = system->cache_stats().eval_regions_cached;
    // Snapshot drops here, and with it the only hold on its state's cache.
  }
  // Only the live state's entries remain; re-running the live query
  // still hits them.
  CacheStats s0 = system->cache_stats();
  EXPECT_GT(s0.eval_regions_cached, 0u);
  EXPECT_LT(s0.eval_regions_cached, while_pinned)
      << "the dropped snapshot's cache entries were not reclaimed";
  ASSERT_TRUE(system->Execute(kProbeFql).ok());
  CacheStats s1 = system->cache_stats();
  EXPECT_GT(s1.eval_hits, s0.eval_hits);
}

/// True when some posting of `list` lies in [begin, end).
bool AnyIn(const std::vector<TextPos>& list, TextPos begin, TextPos end) {
  auto it = std::lower_bound(list.begin(), list.end(), begin);
  return it != list.end() && *it < end;
}

/// True when some region of `set` starts in [begin, end).
bool AnyStartsIn(const RegionSet& set, TextPos begin, TextPos end) {
  for (const Region& r : set) {
    if (r.start >= begin && r.start < end) return true;
  }
  return false;
}

TEST(Snapshot, CopyOnWriteSharesUntouchedState) {
  // A write under a pin copies only what it touches: the snapshot and the
  // live state keep sharing the text bytes and every instance and posting
  // list the write did not change, and share nothing it did.
  auto system = MakeSystem();
  auto snapshot = system->AcquireSnapshot();
  ASSERT_TRUE(snapshot.ok());
  const Corpus& pinned_corpus = *(*snapshot)->corpus;
  const BuiltIndexes& pinned = *(*snapshot)->built;
  auto old_id = pinned_corpus.FindDocument("a.bib");
  ASSERT_TRUE(old_id.ok());
  const TextPos old_begin = pinned_corpus.document_start(*old_id);
  const TextPos old_end = pinned_corpus.document_end(*old_id);

  // A short replacement: the append fits the buffer's headroom.
  ASSERT_TRUE(system->UpdateFile("a.bib", Doc(88, /*refs=*/2)).ok());
  const Corpus& live_corpus = system->corpus();
  auto new_id = live_corpus.FindDocument("a.bib");
  ASSERT_TRUE(new_id.ok());
  const TextPos new_begin = live_corpus.document_start(*new_id);
  const TextPos new_end = live_corpus.document_end(*new_id);

  EXPECT_EQ(live_corpus.full_text().data(), pinned_corpus.full_text().data())
      << "the write copied the text bytes";

  int untouched_names = 0;
  for (const std::string& name : pinned.regions.Names()) {
    const RegionSet* before = *pinned.regions.Get(name);
    const RegionSet* after = *system->region_index().Get(name);
    bool touched = AnyStartsIn(*before, old_begin, old_end) ||
                   AnyStartsIn(*after, new_begin, new_end);
    if (touched) {
      EXPECT_NE(before, after) << "touched name shared: " << name;
    } else {
      EXPECT_EQ(before, after) << "untouched name copied: " << name;
      ++untouched_names;
    }
  }

  int untouched_words = 0;
  int touched_words = 0;
  pinned.words.ForEachWord(
      [&](const std::string& word, const std::vector<TextPos>& before) {
        const std::vector<TextPos>& after = system->word_index().Lookup(word);
        if (AnyIn(before, old_begin, old_end) ||
            AnyIn(after, new_begin, new_end)) {
          EXPECT_NE(before.data(), after.data())
              << "touched word shared: " << word;
          ++touched_words;
        } else {
          EXPECT_EQ(before.data(), after.data())
              << "untouched word copied: " << word;
          ++untouched_words;
        }
      });
  EXPECT_GT(touched_words, 0);
  EXPECT_GT(untouched_words, 0) << "b.bib's own words should stay shared";
  (void)untouched_names;  // every BibTeX name occurs in every document
}

/// Everything a reader of a pinned state can observe, deep-copied.
struct DeepCopy {
  std::vector<std::string> docs;  // name, liveness and text per entry
  std::map<std::string, std::vector<Region>> instances;
  std::map<std::string, std::vector<TextPos>> postings;

  static DeepCopy Of(const IndexSnapshot& snapshot) {
    DeepCopy out;
    const Corpus& corpus = *snapshot.corpus;
    for (DocId id = 0; id < corpus.num_documents(); ++id) {
      out.docs.push_back(
          corpus.document_name(id) + (corpus.is_live(id) ? "+" : "-") +
          std::string(corpus.RawText(corpus.document_start(id),
                                     corpus.document_end(id))));
    }
    for (const std::string& name : snapshot.built->regions.Names()) {
      out.instances[name] = (*snapshot.built->regions.Get(name))->regions();
    }
    snapshot.built->words.ForEachWord(
        [&](const std::string& word, const std::vector<TextPos>& list) {
          out.postings[word] = list;
        });
    return out;
  }

  bool operator==(const DeepCopy&) const = default;
};

TEST(Snapshot, PinnedStateIsByteIdenticalAfterEveryMutationKind) {
  // Each mutation kind runs under a fresh pin while every earlier pin is
  // still held, so later writes also run over pieces several generations
  // share. After each one, every pinned state must still read exactly as
  // it did when pinned.
  auto system = MakeSystem();
  std::vector<SnapshotRef> pins;
  std::vector<DeepCopy> copies;
  auto pin = [&] {
    auto snapshot = system->AcquireSnapshot();
    ASSERT_TRUE(snapshot.ok());
    pins.push_back(*snapshot);
    copies.push_back(DeepCopy::Of(**snapshot));
  };
  auto expect_pins_intact = [&](const char* after) {
    for (size_t i = 0; i < pins.size(); ++i) {
      EXPECT_TRUE(DeepCopy::Of(*pins[i]) == copies[i])
          << "pin " << i << " changed after " << after;
    }
  };

  pin();
  ASSERT_TRUE(system->AddFile("c.bib", Doc(33)).ok());
  expect_pins_intact("AddFile");
  pin();
  ASSERT_TRUE(system->UpdateFile("a.bib", Doc(44)).ok());
  expect_pins_intact("UpdateFile");
  pin();
  ASSERT_TRUE(system->RemoveFile("b.bib").ok());
  expect_pins_intact("RemoveFile");
  pin();
  ASSERT_TRUE(system->CompactIndexes().ok());
  expect_pins_intact("CompactIndexes");
  // Writes after the compaction land on fresh arrays nobody pinned yet:
  // in place, with every pin still intact.
  ASSERT_TRUE(system->UpdateFile("c.bib", Doc(55)).ok());
  ASSERT_TRUE(system->UpdateFile("c.bib", Doc(56)).ok());
  expect_pins_intact("unpinned UpdateFile");

  // And the live state is the one a fresh build over the same documents
  // in the same order gives, store byte for store byte.
  FileQuerySystem fresh(system->schema());
  ASSERT_TRUE(fresh.AddFile("a.bib", Doc(44)).ok());
  ASSERT_TRUE(fresh.AddFile("c.bib", Doc(56)).ok());
  ASSERT_TRUE(fresh.BuildIndexes(IndexSpec::Full()).ok());
  auto live = system->ExportIndexes();
  auto expected = fresh.ExportIndexes();
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(SameStoreIgnoringGeneration(*live, *expected));
  expect_pins_intact("ExportIndexes");
}

}  // namespace
}  // namespace qof
