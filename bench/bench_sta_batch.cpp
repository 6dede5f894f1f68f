/// \file bench_sta_batch.cpp
/// \brief Throughput study of the batched STA engine: masks/sec of
/// TimingAnalyzer::AnalyzeBatch at several batch widths vs the scalar
/// lane-by-lane Analyze baseline (the pre-batching exploration inner
/// loop), with an in-run check that every batch lane reproduces its
/// scalar report bit-for-bit (non-zero exit otherwise).
///
/// Usage: bench_sta_batch [reps] [--trace=f] [--metrics=f] [--progress]
/// Defaults: reps = 0 (auto-calibrate to ~0.5 s of scalar work); at
/// most 1000.
///
/// Appends to the perf trajectory by writing BENCH_sta_batch.json
/// (engine-tagged masks/sec rows; headline simd_masks_per_sec).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common.h"
#include "core/accuracy.h"
#include "sta/sta.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(const Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool SameReport(const adq::sta::TimingReport& a,
                const adq::sta::TimingReport& b) {
  return a.wns_ns == b.wns_ns && a.num_violations == b.num_violations &&
         a.num_active_endpoints == b.num_active_endpoints &&
         a.num_disabled_endpoints == b.num_disabled_endpoints;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adq;
  bench::InitObs(argc, argv);
  long reps_arg = 0;
  if (!bench::ParsePositional(argc, argv, {{"reps", 0, 1000, &reps_arg}}))
    return 1;
  int reps = static_cast<int>(reps_arg);

  std::printf("implementing 16-bit Booth, 2x2 grid\n");
  const core::ImplementedDesign design =
      bench::Implement(bench::kDesigns[0], {2, 2});
  const int ndom = design.num_domains();
  const std::uint32_t nmasks = 1u << ndom;
  sta::TimingAnalyzer analyzer(design.op.nl, bench::Lib(), design.loads);

  const std::vector<double> vdds = {1.0, 0.9, 0.8, 0.7, 0.6};
  const std::vector<int> bitwidths = {4, 8, 16};
  std::vector<std::unique_ptr<const netlist::CaseAnalysis>> ca;
  for (const int bw : bitwidths)
    ca.push_back(std::make_unique<const netlist::CaseAnalysis>(
        design.op.nl, core::ForcedZeros(design.op, bw)));
  std::vector<tech::DomainMask> masks(nmasks);
  for (std::uint32_t m = 0; m < nmasks; ++m) masks[m] = m;

  const long masks_per_rep =
      static_cast<long>(bitwidths.size() * vdds.size() * nmasks);

  // The baseline is the pre-batching exploration inner loop: expand
  // the mask to a per-instance bias vector, then run one scalar STA.
  auto scalar_sweep = [&](int r) {
    double sink = 0.0;
    for (int rep = 0; rep < r; ++rep)
      for (std::size_t bi = 0; bi < bitwidths.size(); ++bi)
        for (const double vdd : vdds)
          for (const tech::DomainMask mask : masks)
            sink += analyzer
                        .Analyze(vdd, design.clock_ns,
                                 core::BiasVectorFor(design, mask),
                                 ca[bi].get())
                        .wns_ns;
    return sink;
  };
  auto batch_sweep = [&](int r, std::size_t width) {
    double sink = 0.0;
    for (int rep = 0; rep < r; ++rep)
      for (std::size_t bi = 0; bi < bitwidths.size(); ++bi)
        for (const double vdd : vdds) {
          const std::vector<double> vdd_row(width, vdd);
          for (std::size_t c = 0; c < masks.size(); c += width) {
            const std::span<const tech::DomainMask> lanes(
                masks.data() + c, std::min(width, masks.size() - c));
            for (const sta::TimingReport& rep_l : analyzer.AnalyzeBatch(
                     std::span(vdd_row).first(lanes.size()), design.clock_ns,
                     lanes, design.domain_of(), ca[bi].get()))
              sink += rep_l.wns_ns;
          }
        }
    return sink;
  };

  // Correctness gate before the stopwatch: every batch lane must
  // reproduce the scalar report bit-for-bit.
  bool identical = true;
  for (std::size_t bi = 0; bi < bitwidths.size(); ++bi)
    for (const double vdd : vdds) {
      const std::vector<sta::TimingReport> batch = analyzer.AnalyzeBatch(
          std::vector<double>(masks.size(), vdd), design.clock_ns, masks,
          design.domain_of(), ca[bi].get());
      for (std::uint32_t m = 0; m < nmasks; ++m) {
        const sta::TimingReport scalar =
            analyzer.Analyze(vdd, design.clock_ns,
                             core::BiasVectorFor(design, masks[m]),
                             ca[bi].get());
        identical = identical && SameReport(batch[m], scalar);
      }
    }

  if (reps <= 0) {  // calibrate to ~0.5 s of scalar work
    const auto t0 = Clock::now();
    scalar_sweep(1);
    const double t1 = SecondsSince(t0);
    reps = std::min(200, std::max(1, static_cast<int>(0.5 / t1)));
  }
  const double total_masks = static_cast<double>(masks_per_rep) * reps;
  std::printf("workload: %ld masks/rep x %d reps (lanes bit-checked: %s)\n\n",
              masks_per_rep, reps, identical ? "identical" : "DIVERGE");

  const auto ts = Clock::now();
  scalar_sweep(reps);
  const double t_scalar = SecondsSince(ts);
  const double scalar_rate = total_masks / t_scalar;

  bench::BenchJson report;
  report.Str("design", "booth16_2x2")
      .Int("reps", reps)
      .Int("masks_per_rep", masks_per_rep)
      .Bool("lanes_identical", identical)
      .Num("scalar_wall_s", t_scalar)
      .Num("scalar_masks_per_sec", scalar_rate);

  util::Table t({"engine", "isa", "batch width", "wall [s]", "masks/s",
                 "speedup"});
  t.AddRow({"scalar", simd::kBackendName, "1", util::Table::Num(t_scalar, 3),
            util::Table::Num(scalar_rate, 0), "1.00"});
  double best_speedup = 0.0;
  double simd_masks_per_sec = 0.0;  // width-16 row: the headline lane count
  for (const std::size_t w : {std::size_t{2}, std::size_t{4},
                              std::size_t{8}, std::size_t{16}}) {
    const auto tb = Clock::now();
    batch_sweep(reps, w);
    const double s = SecondsSince(tb);
    const double speedup = t_scalar / s;
    best_speedup = std::max(best_speedup, speedup);
    if (w == 16) simd_masks_per_sec = total_masks / s;
    t.AddRow({"batch", simd::kBackendName, std::to_string(w),
              util::Table::Num(s, 3), util::Table::Num(total_masks / s, 0),
              util::Table::Num(speedup, 2)});
    report.Row("widths")
        .Str("engine", "batch")
        .Str("simd_backend", simd::kBackendName)
        .Int("batch_width", static_cast<long long>(w))
        .Num("wall_s", s)
        .Num("masks_per_sec", total_masks / s)
        .Num("speedup", speedup);
  }
  std::fputs(t.Render().c_str(), stdout);
  std::printf("\nbest batched speedup: %.2fx over scalar lane-by-lane "
              "Analyze (simd backend: %s, f64 width %d)\n",
              best_speedup, simd::kBackendName, simd::F64::kWidth);
  report.Num("best_speedup", best_speedup)
      .Num("simd_masks_per_sec", simd_masks_per_sec);
  report.Write("sta_batch");
  obs::Flush();
  return identical ? 0 : 1;
}
