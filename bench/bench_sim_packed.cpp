/// \file bench_sim_packed.cpp
/// \brief Throughput study of the bit-parallel packed logic simulator:
/// simulated cycles/sec of one packed activity extraction (the 17
/// distinct accuracy modes over the shared stimulus, time-sliced three
/// ways into the 64 lanes and seam-checked) vs 64 scalar LogicSim runs
/// — the pre-packing per-mode extraction loop — plus an in-run
/// verification that every requested mode reproduces the scalar
/// per-net toggle counts bit-for-bit.
///
/// Usage: bench_sim_packed [cycles] [--trace=f] [--metrics=f] [--progress]
/// Defaults: cycles = 2048. The design is the raw (pre-implementation)
/// 16-bit Booth/Wallace multiplier; the 64 requests sweep zeroed-LSB
/// settings l % 17, covering every accuracy mode of the operator.
///
/// Appends to the perf trajectory by writing BENCH_sim_packed.json
/// (cycles/sec for both engines, packed-vs-scalar speedup, toggle
/// identity and an activity-cache hit demonstration) in the cwd.

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "sim/activity.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(const Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adq;
  bench::InitObs(argc, argv);
  const int cycles = std::max(2, argc > 1 ? std::atoi(argv[1]) : 2048);
  constexpr int kLanes = 64;
  constexpr std::uint64_t kSeed = 7;

  const gen::Operator op = gen::BuildBoothOperator(16);
  std::vector<int> zs(kLanes);
  for (int l = 0; l < kLanes; ++l)
    zs[static_cast<std::size_t>(l)] = l % (op.spec.data_width + 1);
  const int modes = op.spec.data_width + 1;
  const int slices = sim::ActivitySlices(static_cast<std::size_t>(modes),
                                         cycles);
  std::printf("design: raw %s (%zu cells), %d requests (%d distinct "
              "modes) x %d cycles, %d time slices per packed run\n",
              op.spec.name.c_str(), op.nl.num_instances(), kLanes, modes,
              cycles, slices);

  // Correctness gate before the stopwatch: every requested mode's
  // per-net toggle profile must reproduce its scalar run bit-for-bit.
  sim::ClearActivityCache();
  const std::vector<sim::ActivityProfile> packed =
      sim::ExtractActivityBatch(op, zs, cycles, kSeed);
  bool identical = true;
  for (int l = 0; l < kLanes; ++l) {
    const sim::ActivityProfile scalar = sim::ExtractActivityScalar(
        op, zs[static_cast<std::size_t>(l)], cycles, kSeed);
    const sim::ActivityProfile& lane = packed[static_cast<std::size_t>(l)];
    identical = identical && lane.cycles == scalar.cycles &&
                lane.toggle_rate == scalar.toggle_rate;
  }
  std::printf("modes bit-checked against scalar LogicSim: %s\n\n",
              identical ? "identical" : "DIVERGE");

  // Scalar baseline: the pre-packing loop, one LogicSim run per mode.
  double sink = 0.0;
  const auto ts = Clock::now();
  for (int l = 0; l < kLanes; ++l)
    sink += sim::ExtractActivityScalar(op, zs[static_cast<std::size_t>(l)],
                                       cycles, kSeed)
                .toggle_rate[0];
  const double t_scalar = SecondsSince(ts);

  // Packed engine: one sliced run (cache cleared so it simulates).
  sim::ClearActivityCache();
  const auto tp = Clock::now();
  sink += sim::ExtractActivityBatch(op, zs, cycles, kSeed)[0].toggle_rate[0];
  const double t_packed = SecondsSince(tp);
  if (sink < 0.0) std::printf("%f\n", sink);  // keep the work observable

  const double total_cycles = static_cast<double>(cycles) * kLanes;
  const double scalar_rate = total_cycles / t_scalar;
  const double packed_rate = total_cycles / t_packed;
  const double speedup = t_scalar / t_packed;

  // Cache demonstration: re-requesting the same profiles simulates
  // nothing — all 64 modes (17 distinct) come back as hits.
  const sim::ActivityCacheStats before = sim::GetActivityCacheStats();
  sim::ExtractActivityBatch(op, zs, cycles, kSeed);
  const sim::ActivityCacheStats after = sim::GetActivityCacheStats();
  const long long hit_delta =
      static_cast<long long>(after.hits - before.hits);

  util::Table t({"engine", "wall [s]", "sim cycles/s", "speedup"});
  t.AddRow({"scalar x64", util::Table::Num(t_scalar, 3),
            util::Table::Num(scalar_rate, 0), "1.00"});
  t.AddRow({"packed " + std::to_string(slices) + "-slice",
            util::Table::Num(t_packed, 3),
            util::Table::Num(packed_rate, 0),
            util::Table::Num(speedup, 2)});
  std::fputs(t.Render().c_str(), stdout);
  std::printf("\npacked speedup: %.2fx over per-mode scalar extraction; "
              "repeat request: %lld cache hits\n",
              speedup, hit_delta);

  bench::BenchJson report;
  report.Str("design", "booth16_raw")
      .Int("lanes", kLanes)
      .Int("cycles", cycles)
      .Int("slices", slices)
      .Bool("toggles_identical", identical)
      .Num("scalar_wall_s", t_scalar)
      .Num("scalar_cycles_per_sec", scalar_rate)
      .Num("packed_wall_s", t_packed)
      .Num("packed_cycles_per_sec", packed_rate)
      .Num("speedup", speedup)
      .Int("repeat_cache_hits", hit_delta)
      .Int("cache_entries", static_cast<long long>(after.entries));
  report.Write("sim_packed");
  obs::Flush();
  return identical ? 0 : 1;
}
