#include "qof/fuzz/disk_leg.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "qof/engine/system.h"
#include "qof/exec/fault_injector.h"
#include "qof/fuzz/canon.h"
#include "qof/store/store_format.h"

namespace qof {
namespace {

/// One temp store file per oracle invocation; seed + pid keep parallel
/// fuzz runs out of each other's way.
std::string StorePath(uint64_t seed) {
  return "/tmp/qof-fuzz-disk-" + std::to_string(::getpid()) + "-" +
         std::to_string(seed) + ".qofstore";
}

/// Deletes the temp file however the leg exits.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

}  // namespace

Status CheckDiskTier(
    const StructuringSchema& schema,
    const std::vector<std::pair<std::string, std::string>>& docs,
    const ConcreteCase& c, const OracleOptions& options, uint64_t seed,
    std::string* failure) {
  auto make_system = [&]() {
    auto system = std::make_unique<FileQuerySystem>(schema);
    for (const auto& [name, text] : docs) {
      (void)system->AddFile(name, text);
    }
    return system;
  };

  // The in-memory truth: full indexes, serial execution.
  std::unique_ptr<FileQuerySystem> mem = make_system();
  mem->SetParallelism(1);
  if (!mem->BuildIndexes(IndexSpec::Full()).ok()) {
    return Status::OK();  // the index legs report build failures
  }

  const std::string path = StorePath(seed);
  FileGuard guard{path};
  // 256-byte pages spread even a small corpus's posting streams over
  // several pages, so lazy paging, block skipping and (injected) pinned
  // multi-page reads all actually happen.
  QOF_RETURN_IF_ERROR(mem->SaveStore(path, /*page_size=*/256));

  PagedStoreOptions store_options;
  // Clean runs get a pool big enough for the longest pinned read; the
  // injected bug needs a pool *smaller* than a multi-page stream so the
  // victim scan has to steal one of the read's own pinned frames — with
  // a single frame, any stream crossing a page boundary triggers it.
  const bool inject = options.bug == InjectedBug::kEvictPinned;
  store_options.pool_pages = inject ? 1 : 64;
  // Armed from open to the final export: only the store's pool reads it.
  std::optional<ScopedFaultInjector> planted;
  if (inject) planted.emplace(FaultInjector::Spec{planted_bug::kEvictPinned});
  // A fresh system on the store, nothing paged in yet — so the cursor
  // kernels stream the instances instead of probing materialized ones.
  std::unique_ptr<FileQuerySystem> disk = make_system();
  disk->SetParallelism(1);
  QOF_RETURN_IF_ERROR(disk->OpenStore(path, store_options));

  if (!Agrees("disk/auto",
              Canon(mem->Execute(c.fql, ExecutionMode::kAuto)),
              Canon(disk->Execute(c.fql, ExecutionMode::kAuto)), c,
              failure)) {
    return Status::OK();
  }
  if (!Agrees("disk/two-phase",
              Canon(mem->Execute(c.fql, ExecutionMode::kTwoPhase)),
              Canon(disk->Execute(c.fql, ExecutionMode::kTwoPhase)), c,
              failure)) {
    return Status::OK();
  }
  auto plan = mem->Plan(c.fql);
  if (plan.ok() && plan->exact) {
    if (!Agrees("disk/index-only",
                Canon(mem->Execute(c.fql, ExecutionMode::kIndexOnly)),
                Canon(disk->Execute(c.fql, ExecutionMode::kIndexOnly)), c,
                failure)) {
      return Status::OK();
    }
  }

  // Force full materialization: every region instance and posting list
  // pages in (through whatever the pool does to pinned frames), and the
  // re-export must reproduce the original blob byte-for-byte. This is
  // the check that corners kEvictPinned even when the query above never
  // crossed a stolen frame.
  auto mem_blob = mem->ExportIndexes();
  if (!mem_blob.ok()) return mem_blob.status();
  auto disk_blob = disk->ExportIndexes();
  if (!disk_blob.ok()) {
    *failure = "[disk/export] full materialization from the store failed: " +
               disk_blob.status().ToString() + " (fql: " + c.fql + ")";
    return Status::OK();
  }
  if (*mem_blob != *disk_blob) {
    *failure =
        "[disk/export] store round trip changed the index bytes: "
        "re-export from the paged store (" +
        std::to_string(disk_blob->size()) +
        " bytes) differs from the in-memory export (" +
        std::to_string(mem_blob->size()) + " bytes) (fql: " + c.fql + ")";
    return Status::OK();
  }
  return Status::OK();
}

}  // namespace qof
