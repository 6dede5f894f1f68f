/// \file bench_parallel_explore.cpp
/// \brief Scaling study of the parallel design-space exploration:
/// wall time, points/sec and speedup of the sharded (VDD, mask)
/// sweep vs the serial reference, plus an in-run verification that
/// every thread count reproduces the serial result bit-for-bit.
///
/// Usage: bench_parallel_explore [activity_cycles] [max_threads]
///                               [--trace=f] [--metrics=f] [--progress]
/// Defaults: 256 cycles, max(8, hardware); cycles in [2, 2^20], at
/// most 256 threads. The design is the paper's
/// 16-bit Booth multiplier on its Table I 2x2 grid — the full
/// 2^4 masks x 16 bitwidths x 5 VDDs lattice.
///
/// Besides the human-readable table, every run appends to the perf
/// trajectory by writing BENCH_parallel_explore.json (points/sec and
/// speedup per thread count, lattice stats, git-describable build id)
/// in the working directory.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>

#include "common.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

double SecondsOf(const std::function<adq::core::ExplorationResult()>& run,
                 adq::core::ExplorationResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

bool Identical(const adq::core::ExplorationResult& a,
               const adq::core::ExplorationResult& b) {
  if (a.stats.points_considered != b.stats.points_considered ||
      a.stats.sta_runs != b.stats.sta_runs ||
      a.stats.filtered != b.stats.filtered ||
      a.stats.feasible != b.stats.feasible ||
      a.modes.size() != b.modes.size())
    return false;
  for (std::size_t i = 0; i < a.modes.size(); ++i) {
    const adq::core::ModeResult& ma = a.modes[i];
    const adq::core::ModeResult& mb = b.modes[i];
    if (ma.bitwidth != mb.bitwidth || ma.has_solution != mb.has_solution ||
        ma.switched_energy_fj != mb.switched_energy_fj)
      return false;
    if (ma.has_solution &&
        (ma.best.vdd != mb.best.vdd || ma.best.mask != mb.best.mask ||
         ma.best.wns_ns != mb.best.wns_ns ||
         ma.best.power.dynamic_w != mb.best.power.dynamic_w ||
         ma.best.power.leakage_w != mb.best.power.leakage_w))
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adq;
  bench::InitObs(argc, argv);
  const int hw = util::ResolveNumThreads(0);
  long cycles_arg = 256;
  long threads_arg = std::max(8, hw);
  if (!bench::ParsePositional(argc, argv,
                              {{"activity_cycles", bench::kMinCycles,
                                bench::kMaxCycles, &cycles_arg},
                               {"max_threads", 1, bench::kMaxThreads,
                                &threads_arg}}))
    return 1;
  const int cycles = static_cast<int>(cycles_arg);
  const int max_threads = static_cast<int>(threads_arg);

  std::printf("implementing 16-bit Booth, 2x2 grid (hardware threads: %d)\n",
              hw);
  const core::ImplementedDesign design =
      bench::Implement(bench::kDesigns[0], {2, 2});

  core::ExploreOptions opt;
  opt.activity_cycles = cycles;

  auto run_with = [&](int nt) {
    core::ExploreOptions o = opt;
    o.num_threads = nt;
    return [&design, o] { return core::ExploreDesignSpace(design, bench::Lib(), o); };
  };

  core::ExplorationResult serial;
  const double t_serial = SecondsOf(run_with(1), serial);
  const double points = static_cast<double>(serial.stats.points_considered);
  std::printf(
      "lattice: %ld points (%ld STA runs, %.0f%% filtered), serial %.3f s\n\n",
      serial.stats.points_considered, serial.stats.sta_runs,
      100.0 * serial.stats.FilterRate(), t_serial);

  bench::BenchJson report;
  report.Str("design", "booth16_2x2")
      .Int("activity_cycles", cycles)
      .Int("points", serial.stats.points_considered)
      .Int("sta_runs", serial.stats.sta_runs)
      .Int("pruned", serial.stats.pruned)
      .Num("filter_rate", serial.stats.FilterRate())
      .Num("serial_wall_s", t_serial)
      .Num("serial_points_per_sec", points / t_serial);

  util::Table t({"threads", "wall [s]", "points/s", "speedup",
                 "identical to serial"});
  t.AddRow({"1", util::Table::Num(t_serial, 3),
            util::Table::Num(points / t_serial, 0), "1.00", "(reference)"});
  report.Row("scaling")
      .Int("threads", 1)
      .Num("wall_s", t_serial)
      .Num("points_per_sec", points / t_serial)
      .Num("speedup", 1.0)
      .Bool("identical", true);
  bool all_identical = true;
  for (int nt = 2; nt <= max_threads; nt *= 2) {
    core::ExplorationResult r;
    const double s = SecondsOf(run_with(nt), r);
    const bool same = Identical(serial, r);
    all_identical = all_identical && same;
    t.AddRow({std::to_string(nt), util::Table::Num(s, 3),
              util::Table::Num(points / s, 0),
              util::Table::Num(t_serial / s, 2), same ? "yes" : "NO"});
    report.Row("scaling")
        .Int("threads", nt)
        .Num("wall_s", s)
        .Num("points_per_sec", points / s)
        .Num("speedup", t_serial / s)
        .Bool("identical", same);
  }
  std::fputs(t.Render().c_str(), stdout);
  std::printf(
      "\ndeterminism: results across all thread counts %s the serial "
      "reference\n",
      all_identical ? "bit-match" : "DIVERGE from");
  if (hw == 1)
    std::printf("note: single hardware thread — speedups here measure "
                "oversubscription overhead only; run on a multi-core "
                "machine for scaling.\n");
  report.Bool("all_identical", all_identical);
  report.Write("parallel_explore");
  obs::Flush();
  return all_identical ? 0 : 1;
}
