// Document outline: recursive (self-nested) sections — the paper's
// self-nested regions (§3.2) and transitive-closure paths (§5.3) — plus
// EXPLAIN output, PAT-style lexical/proximity search at the algebra
// level, and index persistence.
//
// Build & run:  ./build/examples/document_outline

#include <cstdio>
#include <string>

#include "qof/core/api.h"

namespace {

void Show(qof::FileQuerySystem& system, const char* title,
          const char* fql) {
  std::printf("--- %s\n    %s\n", title, fql);
  auto result = system.Execute(fql);
  if (!result.ok()) {
    std::printf("    error: %s\n\n", result.status().ToString().c_str());
    return;
  }
  std::printf("    -> %llu sections  [%s]\n\n",
              static_cast<unsigned long long>(result->stats.results),
              result->stats.strategy.c_str());
}

}  // namespace

int main() {
  qof::OutlineGenOptions gen;
  gen.num_top_sections = 400;
  gen.max_depth = 5;
  gen.probe_title_rate = 0.03;
  std::string document = qof::GenerateOutline(gen);

  auto schema = qof::OutlineSchema();
  if (!schema.ok()) return 1;
  qof::FileQuerySystem system(*schema);
  if (!system.AddFile("spec.outline", document).ok()) return 1;
  if (!system.BuildIndexes().ok()) return 1;

  auto all = system.Execute("SELECT s FROM Sections s");
  if (!all.ok()) return 1;
  std::printf("document: %zu bytes, %llu sections at all nesting levels\n",
              document.size(),
              static_cast<unsigned long long>(all->stats.results));
  std::printf("RIG has a cycle: Section -> Subsections -> Section\n\n");

  Show(system, "sections titled Optimization",
       "SELECT s FROM Sections s WHERE s.SecTitle = \"Optimization\"");

  Show(system,
       "sections with an Optimization section anywhere below "
       "(transitive closure as ONE plain-inclusion expression, §5.3)",
       "SELECT s FROM Sections s WHERE s.*X.SecTitle = \"Optimization\"");

  Show(system, "sections with a *direct* Optimization subsection",
       "SELECT s FROM Sections s "
       "WHERE s.Subsections.Section.SecTitle = \"Optimization\"");

  Show(system, "prefix search over titles (PAT lexical search)",
       "SELECT s FROM Sections s WHERE s.SecTitle STARTS \"Optim\"");

  // EXPLAIN: how the closure query compiles.
  auto explain = system.Explain(
      "SELECT s FROM Sections s WHERE s.*X.SecTitle = \"Optimization\"");
  if (explain.ok()) {
    std::printf("=== EXPLAIN of the closure query ===\n%s\n",
                explain->c_str());
  }

  // Algebra-level PAT features: proximity and frequency search.
  qof::ExprEvaluator evaluator(&system.region_index(),
                               &system.word_index(), &system.corpus());
  auto near = qof::ParseRegionExpr(
      "near(\"indexed\", \"regions\", 40, Prose)");
  if (near.ok()) {
    auto hits = evaluator.Evaluate(**near);
    if (hits.ok()) {
      std::printf("proximity: %zu prose blocks say 'indexed' within 40 "
                  "bytes of 'regions'\n",
                  hits->size());
    }
  }
  auto frequent =
      qof::ParseRegionExpr("atleast(\"the\", 2, Prose)");
  if (frequent.ok()) {
    auto hits = evaluator.Evaluate(**frequent);
    if (hits.ok()) {
      std::printf("frequency: %zu prose blocks use 'the' at least "
                  "twice\n\n",
                  hits->size());
    }
  }

  // Index persistence: save a paged store, open it in a fresh session,
  // re-run.
  const std::string path = "/tmp/qof-document-outline.qofstore";
  if (system.SaveStore(path).ok()) {
    qof::FileQuerySystem fresh(*schema);
    if (fresh.AddFile("spec.outline", document).ok() &&
        fresh.OpenStore(path).ok()) {
      auto again = fresh.Execute(
          "SELECT s FROM Sections s WHERE s.SecTitle = \"Optimization\"");
      if (again.ok()) {
        std::printf(
            "persistence: a fresh session opened the saved index store "
            "and answered with %llu sections from %llu store pages, "
            "without rebuilding\n",
            static_cast<unsigned long long>(again->stats.results),
            static_cast<unsigned long long>(
                fresh.index_stats().pool.pages_read));
      }
    }
    std::remove(path.c_str());
  }
  return 0;
}
