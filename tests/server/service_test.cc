// QueryService semantics: session lifecycle, repeatable reads,
// read-your-writes, refresh, admission control, option clamping,
// cancellation, and stats accounting (see qof/server/service.h).

#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/server/service.h"

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
  return out;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    system_ = std::make_unique<FileQuerySystem>(*schema);
    ASSERT_TRUE(system_->AddFile("a.bib", Doc(11)).ok());
    ASSERT_TRUE(system_->AddFile("b.bib", Doc(22)).ok());
    system_->SetCacheOptions(CacheOptions::Enabled());
    ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  }

  std::unique_ptr<FileQuerySystem> system_;
};

TEST_F(ServiceTest, SessionLifecycleAndStats) {
  QueryService service(system_.get());
  EXPECT_EQ(service.system(), system_.get());
  auto a = service.OpenSession();
  auto b = service.OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(service.stats().sessions_open, 2u);
  EXPECT_EQ(service.stats().sessions_opened, 2u);

  EXPECT_TRUE(service.CloseSession(*a).ok());
  EXPECT_EQ(service.stats().sessions_open, 1u);
  // Double close and unknown ids are kNotFound, as are all operations
  // on them.
  EXPECT_TRUE(service.CloseSession(*a).IsNotFound());
  EXPECT_TRUE(service.Query(999, kProbeFql).status().IsNotFound());
  EXPECT_TRUE(service.Refresh(999).IsNotFound());
  EXPECT_TRUE(service.AddFile(999, "x.bib", "text").IsNotFound());
  EXPECT_TRUE(service.CancelActive(999).IsNotFound());
}

TEST_F(ServiceTest, QueryMatchesDirectExecution) {
  std::string expected = Fingerprint(system_->Execute(kProbeFql));
  QueryService service(system_.get());
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ(Fingerprint(service.Query(*sid, kProbeFql)), expected);
  auto count = service.SessionQueryCount(*sid);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  EXPECT_EQ(service.stats().queries_executed, 1u);
  EXPECT_EQ(service.stats().queries_failed, 0u);
}

TEST_F(ServiceTest, RepeatableReadsUntilRefresh) {
  QueryService service(system_.get());
  auto reader = service.OpenSession();
  auto writer = service.OpenSession();
  ASSERT_TRUE(reader.ok() && writer.ok());

  std::string before = Fingerprint(service.Query(*reader, kProbeFql));
  auto gen_before = service.SessionGeneration(*reader);
  ASSERT_TRUE(gen_before.ok());

  // Writer mutates; reader's pinned view must not move.
  ASSERT_TRUE(service.AddFile(*writer, "c.bib", Doc(33)).ok());
  EXPECT_EQ(Fingerprint(service.Query(*reader, kProbeFql)), before);
  EXPECT_EQ(*service.SessionGeneration(*reader), *gen_before);

  // Writer sees its own write immediately (read-your-writes).
  EXPECT_NE(Fingerprint(service.Query(*writer, kProbeFql)), before);
  EXPECT_GT(*service.SessionGeneration(*writer), *gen_before);

  // REFRESH repins the reader to the current state.
  ASSERT_TRUE(service.Refresh(*reader).ok());
  EXPECT_NE(Fingerprint(service.Query(*reader, kProbeFql)), before);
  EXPECT_EQ(*service.SessionGeneration(*reader),
            *service.SessionGeneration(*writer));
  EXPECT_EQ(service.stats().refreshes, 1u);
  EXPECT_EQ(service.stats().mutations, 1u);
}

TEST_F(ServiceTest, EveryMutationKindRepinsTheMutator) {
  QueryService service(system_.get());
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());
  uint64_t gen = *service.SessionGeneration(*sid);

  ASSERT_TRUE(service.AddFile(*sid, "c.bib", Doc(33)).ok());
  EXPECT_GT(*service.SessionGeneration(*sid), gen);
  gen = *service.SessionGeneration(*sid);
  ASSERT_TRUE(service.UpdateFile(*sid, "c.bib", Doc(44)).ok());
  EXPECT_GT(*service.SessionGeneration(*sid), gen);
  gen = *service.SessionGeneration(*sid);
  ASSERT_TRUE(service.RemoveFile(*sid, "c.bib").ok());
  EXPECT_GT(*service.SessionGeneration(*sid), gen);
  ASSERT_TRUE(service.Compact(*sid).ok());
  EXPECT_EQ(service.stats().mutations, 4u);

  // Mutation failures surface the engine's status untouched.
  EXPECT_TRUE(service.RemoveFile(*sid, "no-such.bib").IsNotFound());
}

TEST_F(ServiceTest, AdmissionControlRejectsWhenQueueIsFull) {
  ServiceOptions options;
  options.workers = 1;
  options.max_queued = 1;
  QueryService service(system_.get(), options);
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());

  // Occupy the only worker: the first query's completion callback
  // blocks until released, so the second submission sits queued and the
  // third must be refused at the door.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> running;
  Status first = service.SubmitQuery(
      *sid, kProbeFql, {}, [&, released](Result<QueryResult>) {
        running.set_value();
        released.wait();
      });
  ASSERT_TRUE(first.ok());
  running.get_future().wait();

  Status second = service.SubmitQuery(*sid, kProbeFql, {},
                                      [](Result<QueryResult>) {});
  EXPECT_TRUE(second.ok());

  Status third = service.SubmitQuery(*sid, kProbeFql, {},
                                     [](Result<QueryResult>) {});
  EXPECT_TRUE(third.IsUnavailable()) << third.ToString();
  EXPECT_EQ(service.stats().queries_rejected, 1u);

  release.set_value();
  service.Shutdown();
  EXPECT_EQ(service.stats().queries_executed, 2u);
}

TEST_F(ServiceTest, ServiceLimitsClampSessionOptions) {
  ServiceOptions options;
  options.limits.max_regions = 1;  // forces the kAuto degradation ladder
  QueryService service(system_.get(), options);
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());

  // The session asked for unlimited regions; the service ceiling still
  // applies (visible as the ladder's degradation note).
  auto r = service.Query(*sid, kProbeFql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool degraded = false;
  for (const std::string& note : r->stats.notes) {
    degraded = degraded || note.find("degraded to") != std::string::npos;
  }
  EXPECT_TRUE(degraded) << "service max_regions ceiling was not applied";

  // A session may ask for *less* than the ceiling but never more: a
  // pre-cancelled caller token must also survive the clamp.
  QueryOptions own;
  own.cancel = std::make_shared<CancelToken>();
  own.cancel->Cancel();
  auto cancelled = service.Query(*sid, kProbeFql, own);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled());
  EXPECT_EQ(service.stats().queries_failed, 1u);
}

TEST_F(ServiceTest, CancelActiveHitsOnlyInFlightQueries) {
  QueryService service(system_.get());
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(service.CancelActive(*sid).ok());
  // Queries submitted after the cancel carry a fresh token.
  auto r = service.Query(*sid, kProbeFql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST_F(ServiceTest, SubmitAfterShutdownIsUnavailable) {
  QueryService service(system_.get());
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());
  service.Shutdown();
  service.Shutdown();  // idempotent
  Status s = service.SubmitQuery(*sid, kProbeFql, {},
                                 [](Result<QueryResult>) {});
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
}

TEST_F(ServiceTest, BadQueriesFailWithoutPoisoningTheSession) {
  QueryService service(system_.get());
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());
  auto bad = service.Query(*sid, "SELECT FROM nonsense !!");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(service.stats().queries_failed, 1u);
  auto good = service.Query(*sid, kProbeFql);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

}  // namespace
}  // namespace qof
