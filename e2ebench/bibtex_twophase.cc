// bibtex-twophase: the paper's §6.1 partial index. 64 BibTeX documents
// of 300 references each (the E1 20k-reference scale, ~11 MB) indexed
// with only {Reference, Key, Last_Name}: author and editor last names
// are indistinguishable, so queries on either run two-phase — candidate
// regions from the index, then parse and filter. One client, closed
// read-only loop. Time goes to the engine's candidate parsing and
// filtering, parse and db; IR and the store do little.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "inproc.h"
#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr double kNominalOpsPerS = 20;
constexpr int kSetups = 7;
constexpr int kDocs = 64;
constexpr int kRefsPerDoc = 300;

enum Tmpl { kFlagship, kYearProjection, kEditorAuthors };

const std::vector<Template>& Mix() {
  static const std::vector<Template> mix = {
      {"flagship", Cls::kPoint, 0.70},
      {"year-projection", Cls::kScan, 0.15},
      {"editor-authors", Cls::kScan, 0.15},
  };
  return mix;
}

Docs MakeDocs() {
  Docs docs;
  for (int d = 0; d < kDocs; ++d) {
    qof::BibtexGenOptions o;
    o.num_references = kRefsPerDoc;
    o.seed = 1000 + d;
    docs.emplace_back("refs" + std::to_string(d) + ".bib",
                      qof::GenerateBibtex(o));
  }
  return docs;
}

}  // namespace

int RunBibtexTwophase(const Args& args) {
  auto docs = MakeDocs();
  std::vector<const std::string*> texts;
  for (const auto& [name, text] : docs) texts.push_back(&text);
  const std::vector<std::string> last_names = RankedBibtexValues(texts, kLastNames);
  const Zipf zipf(last_names.size(), 1.0);
  std::vector<Op> ops = MakeOps(
      Mix(), OpCount(args, kNominalOpsPerS), args.seed,
      [&](Op& op, Draws& draws) {
        std::string last = "\"" + last_names[zipf.Rank(draws.U(0))] + "\"";
        switch (op.tmpl) {
          case kFlagship:
            op.text = "SELECT r FROM References r "
                      "WHERE r.Authors.Name.Last_Name = " + last;
            break;
          case kYearProjection:
            op.text = "SELECT r.Year FROM References r "
                      "WHERE r.Authors.Name.Last_Name = " + last;
            break;
          default:
            op.text = "SELECT r.Authors.Name.Last_Name FROM References r "
                      "WHERE r.Editors.Name.Last_Name = " + last;
            break;
        }
      });
  double corpus_bytes = 0;
  for (const auto& [name, text] : docs) corpus_bytes += text.size();

  InProcessSetup setup;
  RefHashes refs;
  {
    // Reference answers from a full-index system (index-only plans).
    double t0 = NowUs();
    qof::FileQuerySystem full(*qof::BibtexSchema());
    if (!AddDocs(full, docs) ||
        !full.BuildIndexes(qof::IndexSpec::Full()).ok()) {
      std::fprintf(stderr, "bibtex-twophase reference build failed\n");
      return 2;
    }
    refs = ReferenceHashes(full, ops);
    setup.reference_s = (NowUs() - t0) / 1e6;
  }

  std::vector<double> total_s, add_s, build_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    setup.sut.reset();
    double t0 = NowUs();
    setup.sut = std::make_unique<qof::FileQuerySystem>(*qof::BibtexSchema());
    bool ok = AddDocs(*setup.sut, docs);
    double t1 = NowUs();
    ok = ok && setup.sut
                   ->BuildIndexes(qof::IndexSpec::Partial(
                       {"Reference", "Key", "Last_Name"}))
                   .ok();
    double t2 = NowUs();
    if (!ok) {
      std::fprintf(stderr, "bibtex-twophase set-up failed\n");
      return 2;
    }
    add_s.push_back((t1 - t0) / 1e6);
    build_s.push_back((t2 - t1) / 1e6);
    total_s.push_back((t2 - t0) / 1e6);
  }
  setup.setup_s = Median(total_s);
  double index_bytes = static_cast<double>(setup.sut->IndexBytes());
  setup.space_ratio = index_bytes / corpus_bytes;
  setup.layers["text.add_s"] = Median(add_s);
  setup.layers["indexer.build_s"] = Median(build_s);
  setup.layers["index.bytes"] = index_bytes;
  docs = {};
  return RunInProcess(args, Mix(), ops, refs, std::move(setup));
}

}  // namespace e2e
