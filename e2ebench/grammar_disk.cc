// grammar-disk: the disk tier under a working set larger than its
// cache. The 8 MiB grammar-model corpus (Zipf 1.1 word ranks) is saved
// as a QOFSTOR1 store with 4 KiB pages, about five times the default
// 256-page buffer pool, opened in process, and queried by one client
// in a closed read-only loop. Time goes to the store, the cursor
// kernels, region algebra and the IR; there is no server, no writes and
// little parsing.

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "inproc.h"
#include "qof/fuzz/grammar_model.h"
#include "qof/schema/schema_text.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr double kNominalOpsPerS = 45;
constexpr int kSetups = 5;
constexpr uint32_t kPageSize = 4096;

enum Tmpl { kAlphaEq, kBetaContains, kBetaAndGamma, kScanHeavyUnion };

const std::vector<Template>& Mix() {
  static const std::vector<Template> mix = {
      {"alpha-eq", Cls::kPoint, 0.60},
      {"beta-contains", Cls::kScan, 0.20},
      {"beta-and-gamma", Cls::kScan, 0.15},
      {"scan-heavy-union", Cls::kScan, 0.05},
  };
  return mix;
}

std::string Quoted(const std::string& word) { return "\"" + word + "\""; }

/// Literals are BenchVocab() words drawn by the same rank-Zipf law the
/// corpus was generated with, so selectivity runs from hot words on
/// about one object in ten to tail words on one in thousands.
void Fill(Op& op, Draws& draws) {
  static const Zipf zipf(qof::BenchVocab().size(), 1.1);
  int slot = 0;
  auto word = [&] {
    return Quoted(qof::BenchVocab()[zipf.Rank(draws.U(slot++))]);
  };
  const std::string head = "SELECT x FROM Obj x WHERE ";
  switch (op.tmpl) {
    case kAlphaEq:
      op.text = head + "x.Alpha = " + word();
      break;
    case kBetaContains:
      op.text = head + "x.Beta.ItemA CONTAINS " + word();
      break;
    case kBetaAndGamma: {
      std::string a = word();
      op.text = head + "x.Beta.ItemA CONTAINS " + a +
                " AND x.Gamma.ItemB.ItemBVal CONTAINS " + word();
      break;
    }
    default: {
      std::string a = word();
      std::string b = word();
      op.text = head + "x.Beta.ItemA CONTAINS " + a +
                " OR x.Gamma.ItemB.ItemBVal CONTAINS " + b +
                " OR x.Alpha = " + word();
      break;
    }
  }
}

}  // namespace

int RunGrammarDisk(const Args& args) {
  std::vector<Op> ops =
      MakeOps(Mix(), OpCount(args, kNominalOpsPerS), args.seed, Fill);

  qof::BenchCorpusSpec spec;
  spec.seed = 42;
  spec.target_bytes = size_t{8} << 20;
  spec.zipf_s = 1.1;
  qof::BenchCorpus corpus = qof::MakeBenchCorpus(spec);
  auto schema = qof::ParseSchemaText(corpus.schema_text);
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    return 2;
  }
  const std::string path = args.work_dir + "/grammar-disk.qofstore";

  InProcessSetup setup;
  RefHashes refs;
  std::vector<double> total_s, add_s, build_s, save_s, open_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    std::remove(path.c_str());
    setup.sut.reset();
    double t0 = NowUs();
    auto in_memory = std::make_unique<qof::FileQuerySystem>(*schema);
    bool ok = AddDocs(*in_memory, corpus.docs);
    double t1 = NowUs();
    ok = ok && in_memory->BuildIndexes(qof::IndexSpec::Full()).ok();
    double t2 = NowUs();
    if (ok && rep == 0) {
      // Reference answers from the in-memory full index, before the
      // store exists; not part of set-up time.
      refs = ReferenceHashes(*in_memory, ops);
      setup.reference_s = (NowUs() - t2) / 1e6;
    }
    double t3 = NowUs();
    ok = ok && in_memory->SaveStore(path, kPageSize).ok();
    double t4 = NowUs();
    in_memory.reset();
    double t5 = NowUs();
    setup.sut = std::make_unique<qof::FileQuerySystem>(*schema);
    ok = ok && AddDocs(*setup.sut, corpus.docs);
    double t6 = NowUs();
    ok = ok && setup.sut->OpenStore(path).ok();
    double t7 = NowUs();
    if (!ok || !setup.sut->index_stats().disk_resident) {
      std::fprintf(stderr, "grammar-disk set-up failed\n");
      return 2;
    }
    add_s.push_back((t1 - t0 + t6 - t5) / 1e6);
    build_s.push_back((t2 - t1) / 1e6);
    save_s.push_back((t4 - t3) / 1e6);
    open_s.push_back((t7 - t6) / 1e6);
    total_s.push_back((t2 - t0 + t4 - t3 + t7 - t5) / 1e6);
  }
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 2;
  setup.setup_s = Median(total_s);
  setup.space_ratio =
      static_cast<double>(st.st_size) / static_cast<double>(corpus.total_bytes);
  setup.layers["text.add_s"] = Median(add_s);
  setup.layers["indexer.build_s"] = Median(build_s);
  setup.layers["store.save_s"] = Median(save_s);
  setup.layers["store.open_s"] = Median(open_s);
  setup.layers["index.bytes"] = static_cast<double>(st.st_size);
  // The system under test holds its own copy of the documents.
  corpus.docs = {};
  return RunInProcess(args, Mix(), ops, refs, std::move(setup));
}

}  // namespace e2e
