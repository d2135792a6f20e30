#include "qof/fuzz/fuzzer.h"

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "qof/fuzz/matrix.h"
#include "qof/fuzz/repro.h"
#include "qof/fuzz/shrink.h"

namespace qof {
namespace {

FuzzOptions FastOptions() {
  FuzzOptions options;
  options.workers = 2;
  return options;
}

TEST(FuzzTest, CleanRunHoldsAllInvariants) {
  FuzzOptions options = FastOptions();
  options.iterations = 50;
  options.seed = 3;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed) << report->failure;
  EXPECT_EQ(report->iterations_run, 50);
  EXPECT_NE(report->case_hash, 0u);
  EXPECT_TRUE(report->repro.empty());
}

TEST(FuzzTest, SeededRunsAreByteReproducible) {
  FuzzOptions options = FastOptions();
  options.iterations = 30;
  options.seed = 17;
  auto first = RunFuzz(options);
  auto second = RunFuzz(options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // The case hash folds every byte of every generated case, so equal
  // hashes mean the two runs generated identical work.
  EXPECT_EQ(first->case_hash, second->case_hash);

  options.seed = 18;
  auto other = RunFuzz(options);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(first->case_hash, other->case_hash);
}

TEST(FuzzTest, GeneratedCasesAreDeterministic) {
  FuzzOptions options = FastOptions();
  options.seed = 5;
  for (int i = 0; i < 10; ++i) {
    ConcreteCase a = Concretize(GenerateCase(options, i));
    ConcreteCase b = Concretize(GenerateCase(options, i));
    EXPECT_EQ(a.schema_text, b.schema_text);
    EXPECT_EQ(a.docs, b.docs);
    EXPECT_EQ(a.fql, b.fql);
    EXPECT_EQ(a.subsets, b.subsets);
  }
}

TEST(FuzzTest, InjectedRelaxDirectBugIsCaughtAndShrunkSmall) {
  // Dropping the ⊃d→⊃ rewrite guard (Prop. 3.5) breaks normal-form
  // convergence on self-nested schemas. The fuzzer must catch it and the
  // shrinker must reduce the witness to a near-minimal case.
  FuzzOptions options = FastOptions();
  options.iterations = 40;
  options.seed = 2;
  options.bug = InjectedBug::kRelaxDirect;
  options.canned_fraction = 0.0;
  options.invalid_fraction = 0.0;
  options.schema_gen.recursion_rate = 1.0;  // cycles make the guard load-bearing
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected optimizer bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("chain"), std::string::npos)
      << report->failure;
  // Near-minimal: a couple of grammar productions and at most a couple
  // of query atoms suffice to witness the broken rewrite.
  EXPECT_LE(report->shrunk.schema.NumProductions(), 3)
      << "schema:\n"
      << report->shrunk.schema.Render();
  EXPECT_LE(report->shrunk.query.AtomCount(), 2);
  ASSERT_FALSE(report->repro.empty());

  // The written repro replays to the same failure under the same bug.
  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed);
}

TEST(FuzzTest, InjectedExactSkipBugIsCaught) {
  // Treating a superset candidate set as exact (skipping phase 2) must
  // surface as a differential failure against the baseline.
  FuzzOptions options = FastOptions();
  options.iterations = 120;
  options.seed = 6;
  options.bug = InjectedBug::kExactSkip;
  options.invalid_fraction = 0.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->failed) << "injected exactness bug survived "
                              << report->iterations_run << " iterations";
}

TEST(FuzzTest, InjectedDropTombstoneBugIsCaught) {
  // Losing one tombstone's index splice leaves the dead document's
  // contribution in the indexes. A mutated row must flag it —
  // either as a differential mismatch against the baseline scan or as
  // compaction's own consistency check firing.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 4;
  options.bug = InjectedBug::kDropTombstone;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected maintenance bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[maintain"), std::string::npos)
      << report->failure;

  // The written repro replays to the same failure under the same bug.
  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedStaleCacheBugIsCaught) {
  // An eval cache that ignores index-epoch changes keeps serving
  // answers computed before a mutation. A cache row's post-mutation
  // check against its own baseline scan must flag it, and the written
  // repro must replay to the same failure.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kStaleCache;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected stale-cache bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("/cache-on/"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedStaleSnapshotBugIsCaughtAndShrunk) {
  // A service that silently runs a session's queries against the live
  // state instead of its pinned snapshot breaks repeatable reads. The
  // interleaved-session leg replays each session's pinned generation
  // through a fresh oracle system and must flag the divergence; the
  // shrinker must cut the witness down and the repro must replay.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kStaleSnapshot;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;  // no mutations, no divergence to see
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected stale-snapshot bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[session"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedEvictPinnedBugIsCaughtAndShrunk) {
  // A buffer pool that evicts pinned frames overwrites pages mid-read:
  // a multi-page posting stream assembled under a one-frame pool decodes
  // another page's bytes. A store row's checks (queries plus the export
  // after compaction, which pages every stream in) must flag it, and the
  // repro must replay to the same failure.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kEvictPinned;
  options.invalid_fraction = 0.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected evict-pinned bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("/store/"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedSkipDirSyncBugIsCaughtAndShrunk) {
  // A commit protocol whose atomic renames are never made durable (the
  // parent-directory fsync silently skipped) acknowledges commits that a
  // power cut rolls back. The crash-sweep leg simulates the cut after
  // every I/O op and must flag the lost commit; the shrinker must cut
  // the witness down and the repro must replay to the same failure.
  FuzzOptions options = FastOptions();
  options.iterations = 30;
  options.seed = 1;
  options.bug = InjectedBug::kSkipDirSync;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;  // the leg is the mutation trace
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected skip-dir-sync bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[crash-sweep"), std::string::npos)
      << report->failure;
  // Near-minimal: one mutation step suffices to witness the volatile
  // rename (the very first checkpoint's MANIFEST publish is the bug).
  EXPECT_LE(report->shrunk.mutations.size(), 2u);

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, InjectedBadCseBugIsCaught) {
  // A CSE pass that hashes selection nodes without their word operands
  // merges structurally different selections, so the IR engine returns
  // answers for the wrong word. The IR leg's tree-vs-IR differential
  // must flag it, and the written repro must replay to the same failure.
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 1;
  options.bug = InjectedBug::kBadCse;
  options.invalid_fraction = 0.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->failed) << "injected bad-CSE bug survived "
                              << report->iterations_run << " iterations";
  EXPECT_NE(report->failure.find("[ir"), std::string::npos)
      << report->failure;

  auto replay = ReplayRepro(report->repro, /*workers=*/2);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->failed) << report->repro;
}

TEST(FuzzTest, MutationSequencesHoldInvariants) {
  // Every case gets a mutation sequence: incremental maintenance must
  // match a from-scratch rebuild, down to the compacted store bytes.
  FuzzOptions options = FastOptions();
  options.iterations = 40;
  options.seed = 21;
  options.invalid_fraction = 0.0;
  options.mutation_fraction = 1.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed) << report->failure;
}

TEST(FuzzTest, InvalidQueryClassNeverCrashes) {
  FuzzOptions options = FastOptions();
  options.iterations = 60;
  options.seed = 9;
  options.invalid_fraction = 1.0;
  auto report = RunFuzz(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed) << report->failure;
}

TEST(FuzzTest, ReproRoundTripIsByteIdentical) {
  FuzzOptions options = FastOptions();
  options.seed = 11;
  for (int i = 0; i < 8; ++i) {
    ReproFile repro;
    repro.concrete_case = Concretize(GenerateCase(options, i));
    repro.bug = InjectedBug::kNone;
    repro.seed = 42 + i;
    std::string text = WriteRepro(repro);
    auto parsed = ParseRepro(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(WriteRepro(*parsed), text);
    EXPECT_EQ(parsed->concrete_case.schema_text,
              repro.concrete_case.schema_text);
    EXPECT_EQ(parsed->concrete_case.docs, repro.concrete_case.docs);
    EXPECT_EQ(parsed->concrete_case.fql, repro.concrete_case.fql);
    EXPECT_EQ(parsed->concrete_case.subsets, repro.concrete_case.subsets);
    EXPECT_EQ(parsed->concrete_case.mutations,
              repro.concrete_case.mutations);
    EXPECT_EQ(parsed->seed, repro.seed);
  }
}

TEST(FuzzTest, MutationStepsRoundTripThroughRepro) {
  // Force mutations on every case so the repro's mutate lines (add and
  // update heredocs, bare removes, empty-text updates) all get exercised.
  FuzzOptions options = FastOptions();
  options.seed = 23;
  options.mutation_fraction = 1.0;
  bool saw_mutations = false;
  for (int i = 0; i < 12; ++i) {
    ReproFile repro;
    repro.concrete_case = Concretize(GenerateCase(options, i));
    repro.bug = InjectedBug::kDropTombstone;
    repro.seed = 7 + i;
    saw_mutations |= !repro.concrete_case.mutations.empty();
    std::string text = WriteRepro(repro);
    auto parsed = ParseRepro(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(WriteRepro(*parsed), text);
    EXPECT_EQ(parsed->concrete_case.mutations,
              repro.concrete_case.mutations);
    EXPECT_EQ(parsed->bug, InjectedBug::kDropTombstone);
  }
  EXPECT_TRUE(saw_mutations);
}

TEST(FuzzTest, ShrinkerReductionsShrinkTheCase) {
  FuzzOptions options = FastOptions();
  options.seed = 13;
  FuzzCase fuzz_case = GenerateCase(options, 0);
  for (const FuzzCase& reduced : CaseReductions(fuzz_case)) {
    ConcreteCase a = Concretize(fuzz_case);
    ConcreteCase b = Concretize(reduced);
    size_t size_a = a.schema_text.size() + a.fql.size() +
                    a.subsets.size() * 8;
    size_t size_b = b.schema_text.size() + b.fql.size() +
                    b.subsets.size() * 8;
    for (const auto& [name, text] : a.docs) size_a += text.size() + 16;
    for (const auto& [name, text] : b.docs) size_b += text.size() + 16;
    EXPECT_LE(size_b, size_a);
  }
}

TEST(FuzzTest, InjectedBugNamesRoundTrip) {
  std::set<std::string> names;
  for (const InjectedBugEntry& entry : InjectedBugs()) {
    EXPECT_TRUE(names.insert(entry.name).second) << entry.name;
    EXPECT_EQ(InjectedBugName(entry.bug), entry.name);
    auto parsed = InjectedBugFromName(entry.name);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, entry.bug);
  }
  // Every enum value has an entry, kNone through kSkipDirSync.
  EXPECT_EQ(InjectedBugs().size(),
            static_cast<size_t>(InjectedBug::kSkipDirSync) + 1);
  EXPECT_FALSE(InjectedBugFromName("no-such-bug").ok());
}

TEST(FuzzTest, MatrixRowsCoverEveryAxisPair) {
  // Each row's value on the four axes: index (full, subset 0, subset 1),
  // storage, caches and parallelism.
  constexpr int kAxes = 4;
  const int domain[kAxes] = {1 + kCaseSubsets, 2, 2, 2};
  auto values = [](const MatrixRow& row) {
    return std::array<int, kAxes>{row.subset + 1, row.store ? 1 : 0,
                                  row.cache ? 1 : 0, row.parallel ? 1 : 0};
  };
  auto covers_every_pair = [&](const std::vector<MatrixRow>& rows) {
    for (int a = 0; a < kAxes; ++a) {
      for (int b = a + 1; b < kAxes; ++b) {
        for (int va = 0; va < domain[a]; ++va) {
          for (int vb = 0; vb < domain[b]; ++vb) {
            bool seen = false;
            for (const MatrixRow& row : rows) {
              seen = seen || (values(row)[a] == va && values(row)[b] == vb);
            }
            if (!seen) return false;
          }
        }
      }
    }
    return true;
  };
  const std::vector<MatrixRow>& rows = MatrixRows();
  EXPECT_TRUE(covers_every_pair(rows));
  // Row 0 is the reference row the fault leg runs on (but for the
  // index_io.* sites, which need a store row).
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(values(rows[0]), (std::array<int, kAxes>{0, 0, 0, 0}));
  // Every row is needed: dropping any one loses a pair.
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<MatrixRow> fewer = rows;
    fewer.erase(fewer.begin() + static_cast<long>(i));
    EXPECT_FALSE(covers_every_pair(fewer)) << "row " << i << " is redundant";
  }
}

}  // namespace
}  // namespace qof
