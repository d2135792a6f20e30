#include "qof/region/region_index.h"

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qof/store/paged_file.h"
#include "qof/store/paged_store.h"
#include "qof/store/store_index_source.h"
#include "qof/store/store_writer.h"
#include "qof/text/word_index.h"

namespace qof {
namespace {

RegionSet RS(std::vector<Region> v) {
  return RegionSet::FromUnsorted(std::move(v));
}

TEST(RegionIndexTest, AddAndGet) {
  RegionIndex idx;
  idx.Add("Reference", RS({{0, 100}}));
  idx.Add("Authors", RS({{10, 40}}));
  EXPECT_TRUE(idx.Has("Reference"));
  EXPECT_FALSE(idx.Has("Editors"));
  auto r = idx.Get("Authors");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, RS({{10, 40}}));
  EXPECT_FALSE(idx.Get("Editors").ok());
}

TEST(RegionIndexTest, AddMergesSameName) {
  RegionIndex idx;
  idx.Add("Key", RS({{0, 5}}));
  idx.Add("Key", RS({{10, 15}}));
  auto r = idx.Get("Key");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, RS({{0, 5}, {10, 15}}));
  EXPECT_EQ(idx.num_names(), 1u);
  EXPECT_EQ(idx.num_regions(), 2u);
}

TEST(RegionIndexTest, UniverseIsUnionOfInstances) {
  RegionIndex idx;
  idx.Add("A", RS({{0, 10}}));
  idx.Add("B", RS({{2, 5}}));
  EXPECT_EQ(idx.Universe(), RS({{0, 10}, {2, 5}}));
  // Universe refreshes after mutation.
  idx.Add("C", RS({{6, 9}}));
  EXPECT_EQ(idx.Universe(), RS({{0, 10}, {2, 5}, {6, 9}}));
}

TEST(RegionIndexTest, AllExceptOmitsOneInstance) {
  RegionIndex idx;
  idx.Add("A", RS({{0, 10}}));
  idx.Add("B", RS({{2, 5}}));
  idx.Add("C", RS({{6, 9}}));
  auto others = idx.AllExcept("B");
  ASSERT_EQ(others.size(), 2u);
  // Sorted name order: A then C.
  EXPECT_EQ(*others[0], RS({{0, 10}}));
  EXPECT_EQ(*others[1], RS({{6, 9}}));
}

TEST(RegionIndexTest, NamesSorted) {
  RegionIndex idx;
  idx.Add("Zeta", RegionSet());
  idx.Add("Alpha", RegionSet());
  EXPECT_EQ(idx.Names(), (std::vector<std::string>{"Alpha", "Zeta"}));
}

TEST(RegionIndexTest, ApproxBytesGrows) {
  RegionIndex small;
  small.Add("A", RS({{0, 10}}));
  RegionIndex big;
  big.Add("A", RS({{0, 10}, {20, 30}, {40, 50}, {60, 70}}));
  EXPECT_LT(small.ApproxBytes(), big.ApproxBytes());
}

// --- parent-table cache ---------------------------------------------------

// Reference [0,100) ⊃ Authors [10,40) ⊃ Name [12,30), Editors [50,80).
RegionIndex ParentFixture() {
  RegionIndex idx;
  idx.Add("Reference", RS({{0, 100}}));
  idx.Add("Authors", RS({{10, 40}}));
  idx.Add("Editors", RS({{50, 80}}));
  idx.Add("Name", RS({{12, 30}}));
  return idx;
}

// The cached table must be the one a fresh build over the current
// universe gives.
void ExpectFreshParents(const RegionIndex& idx) {
  EXPECT_EQ(idx.Parents(), BuildParentTable(idx.Universe()));
  EXPECT_TRUE(idx.has_parents());
}

TEST(RegionIndexParentsTest, BuiltLazilyOnFirstUse) {
  RegionIndex idx = ParentFixture();
  // The universe alone does not build the table.
  EXPECT_EQ(idx.Universe().size(), 4u);
  EXPECT_FALSE(idx.has_parents());
  EXPECT_EQ(idx.Parents(), (ParentTable{kNoParent, 0, 1, 0}));
  EXPECT_TRUE(idx.has_parents());
  // Cached: the same table object answers again.
  EXPECT_EQ(&idx.Parents(), &idx.Parents());
}

TEST(RegionIndexParentsTest, RebuiltAfterAdd) {
  RegionIndex idx = ParentFixture();
  ExpectFreshParents(idx);
  idx.Add("Last_Name", RS({{20, 28}}));
  EXPECT_FALSE(idx.has_parents());
  ExpectFreshParents(idx);
  EXPECT_EQ(idx.Parents().size(), 5u);
  // [20,28) now sits between Name and nothing else: Name ⊃d Last_Name.
  EXPECT_EQ(DirectlyIncluding(**idx.Get("Name"), **idx.Get("Last_Name"),
                              idx.Universe(), idx.Parents()),
            RS({{12, 30}}));
}

TEST(RegionIndexParentsTest, RebuiltAfterEraseSpan) {
  RegionIndex idx = ParentFixture();
  ExpectFreshParents(idx);
  EXPECT_EQ(idx.EraseSpan(10, 40), 2u);  // Authors and Name
  EXPECT_FALSE(idx.has_parents());
  ExpectFreshParents(idx);
  EXPECT_EQ(idx.Parents(), (ParentTable{kNoParent, 0}));
  // Erasing nothing keeps the cache.
  EXPECT_EQ(idx.EraseSpan(200, 300), 0u);
  EXPECT_TRUE(idx.has_parents());
}

TEST(RegionIndexParentsTest, RebuiltAfterInsertDocRegions) {
  RegionIndex idx = ParentFixture();
  ExpectFreshParents(idx);
  idx.InsertDocRegions({{"Reference", {{100, 150}}}, {"Name", {{110, 120}}}});
  EXPECT_FALSE(idx.has_parents());
  ExpectFreshParents(idx);
  EXPECT_EQ(DirectlyIncluded(**idx.Get("Name"), **idx.Get("Reference"),
                             idx.Universe(), idx.Parents()),
            RS({{110, 120}}));
}

TEST(RegionIndexParentsTest, SurvivesCopyAndMove) {
  RegionIndex idx = ParentFixture();
  const ParentTable expected = idx.Parents();
  RegionIndex copy(idx);
  EXPECT_TRUE(copy.has_parents());
  EXPECT_EQ(copy.Parents(), expected);
  RegionIndex assigned;
  assigned = idx;
  EXPECT_TRUE(assigned.has_parents());
  EXPECT_EQ(assigned.Parents(), expected);
  RegionIndex moved(std::move(copy));
  EXPECT_TRUE(moved.has_parents());
  EXPECT_EQ(moved.Parents(), expected);
  RegionIndex move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_TRUE(move_assigned.has_parents());
  EXPECT_EQ(move_assigned.Parents(), expected);
  // A copy mutated afterwards (a copy-on-write snapshot's writer) drops
  // its own table without touching the original's.
  RegionIndex writer(idx);
  writer.Add("Last_Name", RS({{20, 28}}));
  EXPECT_FALSE(writer.has_parents());
  EXPECT_TRUE(idx.has_parents());
  EXPECT_EQ(idx.Parents(), expected);
  ExpectFreshParents(writer);
}

TEST(RegionIndexParentsTest, ConcurrentFirstUse) {
  // Snapshot readers share one immutable index; the first ⊃d of each
  // races to build the table, and all must see the same one.
  RegionIndex idx = ParentFixture();
  const RegionSet& authors = **idx.Get("Authors");
  const RegionSet& name = **idx.Get("Name");
  std::vector<const ParentTable*> seen(4, nullptr);
  std::vector<RegionSet> answers(4);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < seen.size(); ++t) {
    readers.emplace_back([&, t] {
      seen[t] = &idx.Parents();
      answers[t] = DirectlyIncluding(authors, name, idx.Universe(), *seen[t]);
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (size_t t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], &idx.Parents());
    EXPECT_EQ(answers[t], authors);
  }
  ExpectFreshParents(idx);
}

TEST(RegionIndexParentsTest, StoreBackedIndexAndSaveStore) {
  RegionIndex built = ParentFixture();
  built.Add("Empty", RegionSet());
  WordIndex words;
  StoreWriterInput input;
  input.regions = &built;
  input.words = &words;
  auto image = BuildStoreImage(input, kMinStorePageSize);
  ASSERT_TRUE(image.ok()) << image.status().message();
  // Writing the store reads the universe size only.
  EXPECT_FALSE(built.has_parents());

  const std::string path = ::testing::TempDir() + "/parents.qofstore";
  ASSERT_TRUE(WriteFileBytes(path, *image).ok());
  auto store = PagedStore::Open(path, {});
  ASSERT_TRUE(store.ok()) << store.status().message();
  RegionIndex disk;
  ASSERT_TRUE(
      disk.AttachSource(std::make_shared<StoreRegionSource>(*store)).ok());
  ASSERT_TRUE(disk.disk_resident());
  EXPECT_FALSE(disk.has_parents());
  ASSERT_TRUE(disk.EnsureResident().ok());
  EXPECT_EQ(disk.Universe(), built.Universe());
  EXPECT_EQ(disk.Parents(), built.Parents());
  ExpectFreshParents(disk);
}

}  // namespace
}  // namespace qof
