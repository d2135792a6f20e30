// FaultInjector unit coverage: deterministic one-shot firing by
// (site, hit), scoped install/restore, the site registry the fuzzer
// and governance tests enumerate, and the planted-bug branches kept
// apart from it.

#include "qof/exec/fault_injector.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qof {
namespace {

TEST(FaultInjectorTest, RegistryListsEveryNamedSite) {
  const std::vector<std::string>& sites = FaultSites();
  for (const char* site :
       {fault_site::kParseDocument, fault_site::kIndexerBuild,
        fault_site::kIndexIoSerialize, fault_site::kIndexIoDeserialize,
        fault_site::kJournalAppend, fault_site::kJournalReplay,
        fault_site::kMaintainAdd, fault_site::kMaintainUpdate,
        fault_site::kMaintainRemove, fault_site::kMaintainCompact,
        fault_site::kAlgebraEval, fault_site::kTwoPhaseCandidate}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << site << " missing from FaultSites()";
  }
  // Stable order: two calls agree (the fuzzer's random-site mode indexes
  // into this list by seed).
  EXPECT_EQ(sites, FaultSites());
}

TEST(FaultInjectorTest, UninstalledSiteIsFree) {
  ASSERT_EQ(FaultInjector::Current(), nullptr);
  EXPECT_TRUE(MaybeInjectFault(fault_site::kParseDocument).ok());
}

TEST(FaultInjectorTest, FiresOnceAtTheArmedHit) {
  ScopedFaultInjector inject({fault_site::kAlgebraEval, 2});
  EXPECT_TRUE(MaybeInjectFault(fault_site::kAlgebraEval).ok());
  EXPECT_FALSE(inject.injector().fired());

  Status s = MaybeInjectFault(fault_site::kAlgebraEval);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
  EXPECT_NE(s.message().find(fault_site::kAlgebraEval), std::string::npos);
  EXPECT_TRUE(inject.injector().fired());

  // One-shot: later passes succeed — recovery code runs fault-free.
  EXPECT_TRUE(MaybeInjectFault(fault_site::kAlgebraEval).ok());
}

TEST(FaultInjectorTest, OtherSitesAreRecordedButSucceed) {
  ScopedFaultInjector inject({fault_site::kJournalAppend, 1});
  EXPECT_TRUE(MaybeInjectFault(fault_site::kParseDocument).ok());
  EXPECT_TRUE(MaybeInjectFault(fault_site::kParseDocument).ok());
  EXPECT_FALSE(MaybeInjectFault(fault_site::kJournalAppend).ok());

  uint64_t parse_passes = 0;
  uint64_t append_passes = 0;
  for (const auto& [site, count] : inject.injector().observed()) {
    if (site == fault_site::kParseDocument) parse_passes = count;
    if (site == fault_site::kJournalAppend) append_passes = count;
  }
  EXPECT_EQ(parse_passes, 2u);
  EXPECT_EQ(append_passes, 1u);
}

TEST(FaultInjectorTest, ScopedInstallAndRestore) {
  ASSERT_EQ(FaultInjector::Current(), nullptr);
  {
    ScopedFaultInjector outer({fault_site::kIndexerBuild, 1});
    EXPECT_EQ(FaultInjector::Current(), &outer.injector());
    {
      ScopedFaultInjector inner({fault_site::kMaintainAdd, 1});
      EXPECT_EQ(FaultInjector::Current(), &inner.injector());
      // The inner injector owns the process-wide hook: the outer one's
      // site does not fire.
      EXPECT_TRUE(MaybeInjectFault(fault_site::kIndexerBuild).ok());
      EXPECT_FALSE(MaybeInjectFault(fault_site::kMaintainAdd).ok());
    }
    EXPECT_EQ(FaultInjector::Current(), &outer.injector());
  }
  EXPECT_EQ(FaultInjector::Current(), nullptr);
}

TEST(FaultInjectorTest, RecordOnlySpecNeverFires) {
  ScopedFaultInjector inject({"", 1});
  for (const std::string& site : FaultSites()) {
    EXPECT_TRUE(MaybeInjectFault(site.c_str()).ok()) << site;
  }
  EXPECT_FALSE(inject.injector().fired());
  EXPECT_EQ(inject.injector().observed().size(), FaultSites().size());
}

TEST(FaultInjectorTest, PlantedBugsStayOutOfTheSiteRegistry) {
  const std::vector<std::string>& sites = FaultSites();
  ASSERT_EQ(PlantedBugs().size(), 5u);
  for (const std::string& bug : PlantedBugs()) {
    EXPECT_EQ(std::find(sites.begin(), sites.end(), bug), sites.end())
        << bug << " must not be drawn as a random fault site";
    EXPECT_FALSE(PlantedBugArmed(bug.c_str())) << bug;
    EXPECT_FALSE(TakePlantedBug(bug.c_str())) << bug;
  }
  // Arming one bug arms only that bug and fails no fault site.
  ScopedFaultInjector planted({planted_bug::kStaleCache, 1});
  for (const std::string& bug : PlantedBugs()) {
    EXPECT_EQ(PlantedBugArmed(bug.c_str()), bug == planted_bug::kStaleCache)
        << bug;
  }
  for (const std::string& site : sites) {
    EXPECT_TRUE(MaybeInjectFault(site.c_str()).ok()) << site;
  }
  EXPECT_TRUE(PlantedBugArmed(planted_bug::kStaleCache));  // stays armed
}

TEST(FaultInjectorTest, OneShotPlantedBugTripsOnce) {
  ScopedFaultInjector planted({planted_bug::kDropTombstone, 1});
  EXPECT_FALSE(TakePlantedBug(planted_bug::kEvictPinned));
  EXPECT_TRUE(TakePlantedBug(planted_bug::kDropTombstone));
  EXPECT_TRUE(planted.injector().fired());
  EXPECT_FALSE(TakePlantedBug(planted_bug::kDropTombstone));
}

}  // namespace
}  // namespace qof
