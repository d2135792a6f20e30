// The crash-consistent index directory: checkpoint protocol, recovery,
// stray garbage collection, torn-tail journal repair, typed data-loss
// errors for damaged manifests/stores, and a unit-scale crash sweep
// proving the old-or-new guarantee op by op (the fuzz leg does the same
// at scale with real index stores). The directory treats the store as
// opaque bytes, so these tests publish short strings.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/maintain/durable_dir.h"
#include "qof/maintain/journal.h"
#include "qof/store/fault_vfs.h"
#include "qof/store/manifest.h"
#include "qof/store/vfs.h"

namespace qof {
namespace {

JournalRecord MakeRecord(uint64_t generation, const std::string& name) {
  JournalRecord record;
  record.generation = generation;
  record.op = JournalOp::kAdd;
  record.name = name;
  record.text = "text of " + name;
  return record;
}

TEST(DurableIndexDirTest, CreatePublishesManifestBlobAndJournal) {
  FaultVfs vfs;
  auto dir = DurableIndexDir::Create(&vfs, "idx", "store bytes", 0);
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  EXPECT_EQ(dir->generation(), 0u);
  EXPECT_TRUE(vfs.Exists("idx/MANIFEST"));
  EXPECT_TRUE(vfs.Exists("idx/store-0.qofstore"));
  EXPECT_TRUE(vfs.Exists("idx/journal-0.qofj"));
  auto store = VfsReadFile(&vfs, dir->store_path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*store, "store bytes");
  auto journal = vfs.PeekFile("idx/journal-0.qofj");
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(*journal, JournalHeader());
}

TEST(DurableIndexDirTest, CreateSurvivesImmediatePowerCut) {
  // Create() returns success only once everything is durable: a cut the
  // instant it returns must recover the exact published state.
  FaultVfs vfs;
  ASSERT_TRUE(DurableIndexDir::Create(&vfs, "idx", "store bytes", 0).ok());
  vfs.CutPower(7);
  auto reopened = DurableIndexDir::Open(&vfs, "idx");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->generation(), 0u);
  auto store = VfsReadFile(&vfs, reopened->store_path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*store, "store bytes");
  auto records = reopened->ReadJournal();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(DurableIndexDirTest, AppendedRecordsSurvivePowerCutUnderAlways) {
  FaultVfs vfs;
  auto dir = DurableIndexDir::Create(&vfs, "idx", "b", 0);
  ASSERT_TRUE(dir.ok());
  {
    ScopedVfs scoped(&vfs);  // Append routes through the DefaultVfs
    ASSERT_TRUE(dir->Append(MakeRecord(1, "a.txt")).ok());
    ASSERT_TRUE(dir->Append(MakeRecord(2, "b.txt")).ok());
  }
  vfs.CutPower(11);
  auto reopened = DurableIndexDir::Open(&vfs, "idx");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto records = reopened->ReadJournal();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0], MakeRecord(1, "a.txt"));
  EXPECT_EQ((*records)[1], MakeRecord(2, "b.txt"));
}

TEST(DurableIndexDirTest, CheckpointSwingsManifestAndReapsOldPair) {
  FaultVfs vfs;
  auto dir = DurableIndexDir::Create(&vfs, "idx", "v0", 0);
  ASSERT_TRUE(dir.ok());
  {
    ScopedVfs scoped(&vfs);
    ASSERT_TRUE(dir->Append(MakeRecord(1, "a.txt")).ok());
  }
  ASSERT_TRUE(dir->Checkpoint("v1", 1).ok());
  EXPECT_EQ(dir->generation(), 1u);
  EXPECT_TRUE(vfs.Exists("idx/store-1.qofstore"));
  EXPECT_TRUE(vfs.Exists("idx/journal-1.qofj"));
  EXPECT_FALSE(vfs.Exists("idx/store-0.qofstore"));
  EXPECT_FALSE(vfs.Exists("idx/journal-0.qofj"));
  auto store = VfsReadFile(&vfs, dir->store_path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*store, "v1");
  // The new journal starts empty: the checkpointed records are gone.
  auto records = dir->ReadJournal();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(DurableIndexDirTest, OpenReapsStraysFromInterruptedCheckpoint) {
  FaultVfs vfs;
  ASSERT_TRUE(DurableIndexDir::Create(&vfs, "idx", "v0", 0).ok());
  // Plant the debris a checkpoint crash can leave: an unreferenced
  // store/journal pair and a temp file.
  ASSERT_TRUE(AtomicWriteFile(&vfs, "idx/store-9.qofstore", "stray").ok());
  ASSERT_TRUE(AtomicWriteFile(&vfs, "idx/journal-9.qofj", "stray").ok());
  {
    auto out = vfs.OpenWrite("idx/MANIFEST.tmp", /*truncate=*/true);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append("torn").ok());
    ASSERT_TRUE((*out)->Close().ok());
  }
  auto reopened = DurableIndexDir::Open(&vfs, "idx");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(vfs.Exists("idx/store-9.qofstore"));
  EXPECT_FALSE(vfs.Exists("idx/journal-9.qofj"));
  EXPECT_FALSE(vfs.Exists("idx/MANIFEST.tmp"));
  // The committed state is untouched.
  EXPECT_TRUE(vfs.Exists("idx/store-0.qofstore"));
  EXPECT_TRUE(vfs.Exists("idx/journal-0.qofj"));
}

TEST(DurableIndexDirTest, TornJournalTailIsRepairedInPlace) {
  FaultVfs vfs;
  auto dir = DurableIndexDir::Create(&vfs, "idx", "b", 0);
  ASSERT_TRUE(dir.ok());
  {
    ScopedVfs scoped(&vfs);
    ASSERT_TRUE(dir->Append(MakeRecord(1, "a.txt")).ok());
  }
  // Simulate a crash mid-append: a prefix of a valid frame lands.
  std::string frame = EncodeJournalRecord(MakeRecord(2, "b.txt"));
  {
    auto out = vfs.OpenWrite("idx/journal-0.qofj", /*truncate=*/false);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append(frame.substr(0, frame.size() - 3)).ok());
    ASSERT_TRUE((*out)->Sync().ok());
  }
  auto before = vfs.PeekFile("idx/journal-0.qofj");
  ASSERT_TRUE(before.ok());

  bool repaired = false;
  auto records = dir->ReadJournal(&repaired);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_TRUE(repaired);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], MakeRecord(1, "a.txt"));

  // Repair truncated the torn bytes off; a second read is clean and the
  // journal accepts appends at the intact boundary again.
  auto after = vfs.PeekFile("idx/journal-0.qofj");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size() - (frame.size() - 3));
  repaired = true;
  records = dir->ReadJournal(&repaired);
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(repaired);
  {
    ScopedVfs scoped(&vfs);
    ASSERT_TRUE(dir->Append(MakeRecord(2, "b.txt")).ok());
  }
  records = dir->ReadJournal();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST(DurableIndexDirTest, FailedAppendLeavesPreviousTailIntact) {
  // Satellite regression: an append that dies partway (disk full) must
  // surface a typed error and leave the journal exactly as it was — the
  // next reader sees the old records, no torn garbage.
  FaultVfs vfs;
  auto dir = DurableIndexDir::Create(&vfs, "idx", "b", 0);
  ASSERT_TRUE(dir.ok());
  ScopedVfs scoped(&vfs);
  ASSERT_TRUE(dir->Append(MakeRecord(1, "a.txt")).ok());
  auto before = vfs.PeekFile("idx/journal-0.qofj");
  ASSERT_TRUE(before.ok());

  uint64_t used = 0;
  for (const std::string& path : vfs.LivePaths()) {
    auto bytes = vfs.PeekFile(path);
    ASSERT_TRUE(bytes.ok());
    used += bytes->size();
  }
  vfs.set_space_limit(used + 4);  // the next frame cannot fit
  Status failed = dir->Append(MakeRecord(2, "b.txt"));
  EXPECT_FALSE(failed.ok());
  vfs.set_space_limit(~uint64_t{0});

  auto after = vfs.PeekFile("idx/journal-0.qofj");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);  // truncated back to the intact tail
  auto records = dir->ReadJournal();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);

  // With space back, the same record appends cleanly.
  ASSERT_TRUE(dir->Append(MakeRecord(2, "b.txt")).ok());
  records = dir->ReadJournal();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST(DurableIndexDirTest, CorruptManifestIsDataLoss) {
  FaultVfs vfs;
  ASSERT_TRUE(DurableIndexDir::Create(&vfs, "idx", "b", 0).ok());
  auto manifest = vfs.PeekFile("idx/MANIFEST");
  ASSERT_TRUE(manifest.ok());
  std::string damaged = *manifest;
  damaged[damaged.size() / 2] ^= 0x01;
  {
    auto out = vfs.OpenWrite("idx/MANIFEST", /*truncate=*/true);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append(damaged).ok());
    ASSERT_TRUE((*out)->Sync().ok());
  }
  auto reopened = DurableIndexDir::Open(&vfs, "idx");
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsDataLoss())
      << reopened.status().ToString();
}

TEST(DurableIndexDirTest, MissingBlobIsDataLoss) {
  FaultVfs vfs;
  ASSERT_TRUE(DurableIndexDir::Create(&vfs, "idx", "b", 0).ok());
  ASSERT_TRUE(vfs.Remove("idx/store-0.qofstore").ok());
  auto reopened = DurableIndexDir::Open(&vfs, "idx");
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsDataLoss())
      << reopened.status().ToString();
}

TEST(DurableIndexDirTest, CrashSweepRecoversOldOrNewAtEveryOp) {
  // The old-or-new guarantee, op by op: run create → append → checkpoint
  // → append with a power cut armed after each mutating I/O op in turn.
  // Recovery must always succeed once Create() was acknowledged, and the
  // recovered (generation, journal) must be one of the states the trace
  // actually acknowledged — never a hybrid.
  auto run_trace = [](FaultVfs* vfs) -> int {
    // Returns the durability floor: -1 nothing acked, 0 create acked,
    // 1 append-1 acked, 2 checkpoint acked, 3 append-2 acked.
    ScopedVfs scoped(vfs);
    auto dir = DurableIndexDir::Create(vfs, "idx", "v0", 0);
    if (!dir.ok()) return -1;
    if (!dir->Append(MakeRecord(1, "a.txt")).ok()) return 0;
    if (!dir->Checkpoint("v1", 1).ok()) return 1;
    if (!dir->Append(MakeRecord(2, "b.txt")).ok()) return 2;
    return 3;
  };

  uint64_t total_ops = 0;
  {
    FaultVfs dry;
    ASSERT_EQ(run_trace(&dry), 3);
    total_ops = dry.op_count();
  }
  ASSERT_GT(total_ops, 0u);

  for (uint64_t crash_op = 0; crash_op < total_ops; ++crash_op) {
    SCOPED_TRACE("crash at op " + std::to_string(crash_op));
    FaultVfs vfs;
    vfs.set_crash_at_op(crash_op);
    int floor = run_trace(&vfs);
    ASSERT_TRUE(vfs.crashed());
    vfs.CutPower(1000 + crash_op);

    ScopedVfs scoped(&vfs);
    auto reopened = DurableIndexDir::Open(&vfs, "idx");
    if (!reopened.ok()) {
      // Only legal while nothing was ever acknowledged.
      EXPECT_EQ(floor, -1) << reopened.status().ToString();
      continue;
    }
    auto store = VfsReadFile(&vfs, reopened->store_path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto records = reopened->ReadJournal();
    ASSERT_TRUE(records.ok()) << records.status().ToString();

    const uint64_t generation = reopened->generation();
    ASSERT_TRUE(generation == 0 || generation == 1);
    if (generation == 0) {
      // Pre-checkpoint state: the checkpoint must not have been acked.
      EXPECT_LE(floor, 1);
      EXPECT_EQ(*store, "v0");
      ASSERT_LE(records->size(), 1u);
      if (floor >= 1) {
        // Append-1 was acknowledged durable: its record must be there.
        ASSERT_EQ(records->size(), 1u);
        EXPECT_EQ((*records)[0], MakeRecord(1, "a.txt"));
      }
    } else {
      EXPECT_EQ(*store, "v1");
      ASSERT_LE(records->size(), 1u);
      if (floor >= 3) {
        ASSERT_EQ(records->size(), 1u);
        EXPECT_EQ((*records)[0], MakeRecord(2, "b.txt"));
      }
    }
    if (floor >= 2) {
      EXPECT_EQ(generation, 1u);
    }
  }
}

}  // namespace
}  // namespace qof
