// Throughput of the differential fuzzing harness: cases generated and
// concretized per second, and full oracle iterations per second. The
// oracle dominates (it builds indexes and runs every plan kind), so
// these numbers bound how many cases a CI smoke budget buys.

#include <benchmark/benchmark.h>

#include "qof/fuzz/fuzzer.h"
#include "qof/fuzz/oracle.h"

namespace {

void BM_GenerateAndConcretize(benchmark::State& state) {
  qof::FuzzOptions options;
  options.seed = 42;
  int i = 0;
  for (auto _ : state) {
    qof::ConcreteCase c =
        qof::Concretize(qof::GenerateCase(options, i++));
    benchmark::DoNotOptimize(c.schema_text.data());
    benchmark::DoNotOptimize(c.fql.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GenerateAndConcretize);

void BM_OracleIteration(benchmark::State& state) {
  qof::FuzzOptions options;
  options.seed = 42;
  options.invalid_fraction = 0.0;
  qof::OracleOptions oracle;
  oracle.workers = 2;
  int i = 0;
  for (auto _ : state) {
    qof::ConcreteCase c =
        qof::Concretize(qof::GenerateCase(options, i++));
    auto outcome = qof::RunOracle(c, oracle, /*seed=*/i);
    if (!outcome.ok() || outcome->failed) {
      state.SkipWithError("oracle failure during benchmark");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleIteration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
