// The storage substrate's contract: RealVfs atomic replacement on a real
// filesystem, AtomicWriteFile's old-or-new guarantee under disk-full, and
// FaultVfs's disk model — live vs. durable content, volatile directory
// entries, deterministic power cuts, injected read errors, and the
// planted skip-dir-sync bug's observable effect.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/store/fault_vfs.h"
#include "qof/store/paged_file.h"
#include "qof/store/vfs.h"
#include "temp_path.h"

namespace qof {
namespace {

Status WriteAll(Vfs* vfs, const std::string& path, std::string_view bytes,
                bool sync) {
  auto out = vfs->OpenWrite(path, /*truncate=*/true);
  if (!out.ok()) return out.status();
  QOF_RETURN_IF_ERROR((*out)->Append(bytes));
  if (sync) QOF_RETURN_IF_ERROR((*out)->Sync());
  return (*out)->Close();
}

TEST(VfsTest, ParentDirSplitsPaths) {
  EXPECT_EQ(ParentDir("a/b/c.txt"), "a/b");
  EXPECT_EQ(ParentDir("dir/f"), "dir");
  EXPECT_EQ(ParentDir("plain.txt"), ".");
}

TEST(VfsTest, SyncPolicyNamesRoundTrip) {
  for (SyncPolicy p :
       {SyncPolicy::kAlways, SyncPolicy::kBatch, SyncPolicy::kNone}) {
    auto back = SyncPolicyFromName(SyncPolicyName(p));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(SyncPolicyFromName("sometimes").ok());
}

TEST(VfsTest, RealVfsWriteReadRoundTrip) {
  RealVfs vfs;
  const std::string path = TempPath("real_rt.bin");
  ASSERT_TRUE(WriteAll(&vfs, path, "hello vfs", /*sync=*/true).ok());
  EXPECT_TRUE(vfs.Exists(path));
  auto bytes = VfsReadFile(&vfs, path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "hello vfs");

  auto file = vfs.OpenRead(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->size(), 9u);
  std::string mid;
  ASSERT_TRUE((*file)->ReadAt(6, 3, &mid).ok());
  EXPECT_EQ(mid, "vfs");
  // Reading past EOF is an error, never a short read.
  EXPECT_FALSE((*file)->ReadAt(6, 4, &mid).ok());

  ASSERT_TRUE(vfs.Remove(path).ok());
  EXPECT_FALSE(vfs.Exists(path));
}

TEST(VfsTest, RealVfsAtomicWriteReplacesAndLeavesNoTemp) {
  RealVfs vfs;
  const std::string path = TempPath("real_atomic.bin");
  ASSERT_TRUE(AtomicWriteFile(&vfs, path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(&vfs, path, "second, longer").ok());
  auto bytes = VfsReadFile(&vfs, path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "second, longer");
  EXPECT_FALSE(vfs.Exists(path + ".tmp"));
  ASSERT_TRUE(vfs.Remove(path).ok());
}

TEST(VfsTest, RealVfsListsAndTruncates) {
  RealVfs vfs;
  const std::string dir = TempPath("real_list_dir");
  ASSERT_TRUE(vfs.CreateDir(dir).ok());
  ASSERT_TRUE(vfs.CreateDir(dir).ok());  // idempotent
  ASSERT_TRUE(WriteAll(&vfs, dir + "/b", "bb", true).ok());
  ASSERT_TRUE(WriteAll(&vfs, dir + "/a", "aaaa", true).ok());
  auto entries = vfs.ListDir(dir);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(*entries, (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(vfs.Truncate(dir + "/a", 2).ok());
  auto a = VfsReadFile(&vfs, dir + "/a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "aa");
  ASSERT_TRUE(vfs.Remove(dir + "/a").ok());
  ASSERT_TRUE(vfs.Remove(dir + "/b").ok());
}

// --------------------------------------------------------------------------
// FaultVfs: the disk model

TEST(FaultVfsTest, UnsyncedFileEntryDoesNotSurvivePowerCut) {
  FaultVfs vfs;
  ASSERT_TRUE(WriteAll(&vfs, "f", "volatile", /*sync=*/true).ok());
  // File content synced, but the directory entry never was: the name is
  // still volatile, so the cut forgets the file entirely.
  EXPECT_TRUE(vfs.Exists("f"));
  vfs.CutPower(1);
  EXPECT_FALSE(vfs.Exists("f"));
}

TEST(FaultVfsTest, SyncPlusDirSyncMakesFileDurable) {
  FaultVfs vfs;
  ASSERT_TRUE(WriteAll(&vfs, "f", "durable bytes", /*sync=*/true).ok());
  ASSERT_TRUE(vfs.SyncDir(".").ok());
  vfs.CutPower(2);
  auto bytes = VfsReadFile(&vfs, "f");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "durable bytes");
}

TEST(FaultVfsTest, UnsyncedAppendMayRotButDurablePrefixSurvives) {
  FaultVfs vfs;
  vfs.set_torn_sector_bytes(4);
  ASSERT_TRUE(WriteAll(&vfs, "f", "AAAA", /*sync=*/true).ok());
  ASSERT_TRUE(vfs.SyncDir(".").ok());
  {
    auto out = vfs.OpenWrite("f", /*truncate=*/false);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append("BBBBBBBB").ok());  // never synced
    ASSERT_TRUE((*out)->Close().ok());
  }
  vfs.CutPower(3);
  auto bytes = VfsReadFile(&vfs, "f");
  ASSERT_TRUE(bytes.ok());
  // The synced prefix is inviolate; the unsynced tail is any
  // sector-aligned length of arbitrary bytes.
  ASSERT_GE(bytes->size(), 4u);
  EXPECT_EQ(bytes->substr(0, 4), "AAAA");
  EXPECT_LE(bytes->size(), 12u);
  EXPECT_EQ(bytes->size() % 4, 0u);
}

TEST(FaultVfsTest, CutPowerIsSeedDeterministic) {
  auto build = [](FaultVfs* vfs) {
    ASSERT_TRUE(WriteAll(vfs, "f", "base-", /*sync=*/true).ok());
    ASSERT_TRUE(vfs->SyncDir(".").ok());
    auto out = vfs->OpenWrite("f", /*truncate=*/false);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append("unsynced tail of some length").ok());
    ASSERT_TRUE((*out)->Close().ok());
  };
  FaultVfs a, b;
  build(&a);
  build(&b);
  a.CutPower(99);
  b.CutPower(99);
  auto fa = a.PeekFile("f");
  auto fb = b.PeekFile("f");
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  EXPECT_EQ(*fa, *fb);
}

TEST(FaultVfsTest, AtomicRenameIsDurableOnlyAfterDirSync) {
  // The happy path: AtomicWriteFile (write tmp, sync, rename, dirsync)
  // over a durable old version survives the cut with the new content.
  FaultVfs vfs;
  ASSERT_TRUE(WriteAll(&vfs, "f", "old", /*sync=*/true).ok());
  ASSERT_TRUE(vfs.SyncDir(".").ok());
  ASSERT_TRUE(AtomicWriteFile(&vfs, "f", "new").ok());
  vfs.CutPower(4);
  auto bytes = VfsReadFile(&vfs, "f");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "new");
}

TEST(FaultVfsTest, SkipDirSyncMakesAcknowledgedRenameRollBack) {
  // The planted bug: SyncDir lies. The same AtomicWriteFile returns
  // success, but the rename was never persisted — the cut rolls the
  // name back to the old content. This observable difference is what
  // the crash-sweep fuzz leg detects end to end.
  FaultVfs vfs;
  ASSERT_TRUE(WriteAll(&vfs, "f", "old", /*sync=*/true).ok());
  ASSERT_TRUE(vfs.SyncDir(".").ok());
  vfs.set_skip_dir_sync(true);
  ASSERT_TRUE(AtomicWriteFile(&vfs, "f", "new").ok());  // acknowledged!
  vfs.CutPower(4);
  auto bytes = VfsReadFile(&vfs, "f");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "old");
}

TEST(FaultVfsTest, DiskFullAtomicWriteLeavesOldContentIntact) {
  // Regression for the WriteFileBytes path: a failed atomic replace
  // (disk full mid-tmp-write) must leave the previous file byte-intact
  // and clean up the temp file — never a partial image at either name.
  FaultVfs vfs;
  ASSERT_TRUE(WriteAll(&vfs, "f", "precious old image", /*sync=*/true).ok());
  ASSERT_TRUE(vfs.SyncDir(".").ok());
  vfs.set_space_limit(24);  // room for a few bytes of tmp, not the image

  ScopedVfs scoped(&vfs);
  std::string big(4096, 'x');
  Status status = WriteFileBytes("f", big);
  EXPECT_FALSE(status.ok());
  auto bytes = VfsReadFile(&vfs, "f");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "precious old image");
  EXPECT_FALSE(vfs.Exists("f.tmp"));
}

TEST(FaultVfsTest, InjectedReadErrorsAreTransient) {
  FaultVfs vfs;
  ASSERT_TRUE(WriteAll(&vfs, "f", "readable", /*sync=*/true).ok());
  auto file = vfs.OpenRead("f");
  ASSERT_TRUE(file.ok());
  vfs.set_fail_reads(2);
  std::string buf;
  EXPECT_FALSE((*file)->ReadAt(0, 4, &buf).ok());
  EXPECT_FALSE((*file)->ReadAt(0, 4, &buf).ok());
  ASSERT_TRUE((*file)->ReadAt(0, 4, &buf).ok());
  EXPECT_EQ(buf, "read");
}

TEST(FaultVfsTest, CrashAtOpFailsEverythingUntilCutPower) {
  FaultVfs vfs;
  ASSERT_TRUE(WriteAll(&vfs, "a", "1", /*sync=*/false).ok());
  const uint64_t ops = vfs.op_count();
  ASSERT_GT(ops, 0u);
  vfs.set_crash_at_op(ops);  // the very next mutating op dies
  EXPECT_FALSE(WriteAll(&vfs, "b", "2", /*sync=*/false).ok());
  EXPECT_TRUE(vfs.crashed());
  // Once power is lost every op fails, reads included.
  EXPECT_FALSE(vfs.Rename("a", "c").ok());
  EXPECT_FALSE(VfsReadFile(&vfs, "a").ok());
  vfs.CutPower(5);
  EXPECT_FALSE(vfs.crashed());
  ASSERT_TRUE(WriteAll(&vfs, "b", "2", /*sync=*/false).ok());
}

TEST(FaultVfsTest, OpChargingIsDeterministic) {
  auto trace = [](FaultVfs* vfs) {
    ASSERT_TRUE(vfs->CreateDir("d").ok());
    ASSERT_TRUE(WriteAll(vfs, "d/f", "xyz", /*sync=*/true).ok());
    ASSERT_TRUE(vfs->Rename("d/f", "d/g").ok());
    ASSERT_TRUE(vfs->SyncDir("d").ok());
    ASSERT_TRUE(vfs->Truncate("d/g", 1).ok());
    ASSERT_TRUE(vfs->Remove("d/g").ok());
  };
  FaultVfs a, b;
  trace(&a);
  trace(&b);
  EXPECT_EQ(a.op_count(), b.op_count());
  // Arming the crash at each op k < total makes exactly op k fail.
  for (uint64_t k = 0; k < a.op_count(); ++k) {
    FaultVfs probe;
    probe.set_crash_at_op(k);
    // Re-run the trace permissively: it must fail partway, never crash.
    probe.CreateDir("d").ok();
    if (auto out = probe.OpenWrite("d/f", true); out.ok()) {
      (*out)->Append("xyz").ok();
      (*out)->Sync().ok();
      (*out)->Close().ok();
    }
    probe.Rename("d/f", "d/g").ok();
    probe.SyncDir("d").ok();
    probe.Truncate("d/g", 1).ok();
    probe.Remove("d/g").ok();
    EXPECT_TRUE(probe.crashed()) << "op " << k << " never fired";
  }
}

TEST(FaultVfsTest, ListDirSeesLiveNamespace) {
  FaultVfs vfs;
  ASSERT_TRUE(vfs.CreateDir("dir").ok());
  ASSERT_TRUE(WriteAll(&vfs, "dir/z", "1", false).ok());
  ASSERT_TRUE(WriteAll(&vfs, "dir/a", "2", false).ok());
  auto entries = vfs.ListDir("dir");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(*entries, (std::vector<std::string>{"a", "z"}));
}

}  // namespace
}  // namespace qof
