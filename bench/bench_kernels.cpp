/// Engineering micro-benchmarks (google-benchmark) for the kernels
/// the exploration leans on. Not a paper artifact, but evidence for
/// the paper's feasibility claims: STA ~0.1 s/point on the authors'
/// server and ~1 s for a power analysis; our substitute must be at
/// least that fast for the exhaustive O(2^NMAX * B * NVDD) sweep to
/// be practical.

#include <benchmark/benchmark.h>

#include "common.h"
#include "core/accuracy.h"
#include "sim/activity.h"
#include "sta/sta.h"

namespace {

using namespace adq;

const core::ImplementedDesign& Booth22() {
  static const core::ImplementedDesign d =
      bench::Implement(bench::kDesigns[0], {2, 2});
  return d;
}

void BM_StaFullBitwidth(benchmark::State& state) {
  const auto& d = Booth22();
  sta::TimingAnalyzer an(d.op.nl, bench::Lib(), d.loads);
  const auto bias = core::BiasVectorFor(d, 0b0101);
  for (auto _ : state) {
    benchmark::DoNotOptimize(an.Analyze(0.8, d.clock_ns, bias));
  }
}
BENCHMARK(BM_StaFullBitwidth);

void BM_StaWithCaseAnalysis(benchmark::State& state) {
  const auto& d = Booth22();
  sta::TimingAnalyzer an(d.op.nl, bench::Lib(), d.loads);
  const netlist::CaseAnalysis ca(d.op.nl, core::ForcedZeros(d.op, 8));
  const auto bias = core::BiasVectorFor(d, 0b0101);
  for (auto _ : state) {
    benchmark::DoNotOptimize(an.Analyze(0.8, d.clock_ns, bias, &ca));
  }
}
BENCHMARK(BM_StaWithCaseAnalysis);

void BM_CaseAnalysis(benchmark::State& state) {
  const auto& d = Booth22();
  const auto forced = core::ForcedZeros(d.op, 8);
  for (auto _ : state) {
    const netlist::CaseAnalysis ca(d.op.nl, forced);
    benchmark::DoNotOptimize(ca.num_constant());
  }
}
BENCHMARK(BM_CaseAnalysis);

void BM_ModeCaseAnalyses16(benchmark::State& state) {
  // Every accuracy mode of the explorer's sweep in one 16-lane batch.
  const auto& d = Booth22();
  std::vector<std::vector<netlist::ForcedValue>> sets;
  for (int bw = 1; bw <= 16; ++bw) sets.push_back(core::ForcedZeros(d.op, bw));
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::CaseAnalyses(d.op.nl, sets));
  }
}
BENCHMARK(BM_ModeCaseAnalyses16);

void BM_ActivityExtraction256(benchmark::State& state) {
  const auto& d = Booth22();
  // The scalar oracle: the cached ExtractActivity front door would
  // measure a map lookup after the first iteration.
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::ExtractActivityScalar(d.op, 8, 256, 7));
  }
}
BENCHMARK(BM_ActivityExtraction256);

void BM_Placement(benchmark::State& state) {
  const gen::Operator op = gen::BuildBoothOperator(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(place::PlaceDesign(op.nl, bench::Lib(), {}));
  }
}
BENCHMARK(BM_Placement);

void BM_ExplorationBooth2x2(benchmark::State& state) {
  const auto& d = Booth22();
  core::ExploreOptions xopt;
  xopt.bitwidths = {4, 8, 12, 16};
  xopt.activity_cycles = 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ExploreDesignSpace(d, bench::Lib(), xopt));
  }
}
BENCHMARK(BM_ExplorationBooth2x2);

void BM_NetlistGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::BuildBoothOperator(16));
  }
}
BENCHMARK(BM_NetlistGeneration);

}  // namespace

BENCHMARK_MAIN();
