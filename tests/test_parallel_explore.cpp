/// The determinism contract of the parallel design-space exploration
/// (ExplorationResult bit-identical for every num_threads) plus unit
/// tests of the util::ThreadPool it runs on. Everything here carries
/// the `parallel` CTest label so `ctest -L parallel` exercises the
/// concurrency surface under ThreadSanitizer (see the tsan preset).

#include <gtest/gtest.h>

#include <atomic>
#include <initializer_list>
#include <stdexcept>
#include <thread>

#include "core/explore.h"
#include "core/frontier.h"
#include "util/thread_pool.h"

namespace adq {
namespace {

// ---------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, 7, [&](std::int64_t i, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.num_threads());
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[(std::size_t)i].load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  util::ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 1, [&](std::int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n <= grain runs inline on the caller, in order.
  std::vector<std::int64_t> seen;
  pool.ParallelFor(3, 10, [&](std::int64_t i, int worker) {
    EXPECT_EQ(worker, 0);
    seen.push_back(i);
  });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(ThreadPool, SingleThreadPoolRunsInlineOnCaller) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id me = std::this_thread::get_id();
  pool.ParallelFor(64, 1, [&](std::int64_t, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), me);
  });
}

TEST(ThreadPool, ReusableAcrossCalls) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.ParallelFor(100, 3,
                     [&](std::int64_t i, int) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 100 * 99 / 2);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(1000, 1,
                                [&](std::int64_t i, int) {
                                  if (i == 137)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> ok{0};
  pool.ParallelFor(10, 1, [&](std::int64_t, int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(util::ResolveNumThreads(1), 1);
  EXPECT_EQ(util::ResolveNumThreads(5), 5);
  EXPECT_GE(util::ResolveNumThreads(0), 1);
}

// ---------------------------------------------------------------
// Parallel exploration: bit-identical to the serial reference.

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

/// Same small design as test_explore (width-8 Booth, 2x2 grid) so
/// failures here point at the engine, not the substrate.
const core::ImplementedDesign& Design22() {
  static const core::ImplementedDesign d = [] {
    core::FlowOptions fopt;
    fopt.grid = {2, 2};
    fopt.clock_ns = 0.55;
    return core::RunImplementationFlow(gen::BuildBoothOperator(8), Lib(),
                                       fopt);
  }();
  return d;
}

core::ExploreOptions BaseOptions() {
  core::ExploreOptions opt;
  opt.bitwidths = {2, 4, 6, 8};
  opt.activity_cycles = 128;
  opt.keep_all_points = true;
  return opt;
}

void ExpectPointsIdentical(const core::ExploredPoint& a,
                           const core::ExploredPoint& b) {
  EXPECT_EQ(a.bitwidth, b.bitwidth);
  EXPECT_EQ(a.mask, b.mask);
  EXPECT_EQ(a.feasible, b.feasible);
  // Bit-identical, not just close: EXPECT_EQ compares with ==.
  EXPECT_EQ(a.vdd, b.vdd);
  EXPECT_EQ(a.wns_ns, b.wns_ns);
  EXPECT_EQ(a.power.dynamic_w, b.power.dynamic_w);
  EXPECT_EQ(a.power.leakage_w, b.power.leakage_w);
}

void ExpectResultsIdentical(const core::ExplorationResult& a,
                            const core::ExplorationResult& b) {
  EXPECT_EQ(a.stats.points_considered, b.stats.points_considered);
  EXPECT_EQ(a.stats.sta_runs, b.stats.sta_runs);
  EXPECT_EQ(a.stats.filtered, b.stats.filtered);
  EXPECT_EQ(a.stats.pruned, b.stats.pruned);
  EXPECT_EQ(a.stats.mask_pruned, b.stats.mask_pruned);
  EXPECT_EQ(a.stats.feasible, b.stats.feasible);
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t i = 0; i < a.modes.size(); ++i) {
    EXPECT_EQ(a.modes[i].bitwidth, b.modes[i].bitwidth);
    EXPECT_EQ(a.modes[i].has_solution, b.modes[i].has_solution);
    EXPECT_EQ(a.modes[i].switched_energy_fj,
              b.modes[i].switched_energy_fj);
    if (a.modes[i].has_solution)
      ExpectPointsIdentical(a.modes[i].best, b.modes[i].best);
  }
  ASSERT_EQ(a.all_points.size(), b.all_points.size());
  for (std::size_t i = 0; i < a.all_points.size(); ++i)
    ExpectPointsIdentical(a.all_points[i], b.all_points[i]);
}

core::ExplorationResult RunExplore(core::ExploreOptions opt, int num_threads) {
  opt.num_threads = num_threads;
  return core::ExploreDesignSpace(Design22(), Lib(), opt);
}

/// Runs `opt` serially and at each of `thread_counts`, once as the
/// unpruned reference sweep (keep_all_points) and once with both
/// prunes on, so the threaded publication of prune verdicts is raced
/// too. Each variant must be bit-identical to its serial run.
void ExpectThreadCountInvariant(core::ExploreOptions opt,
                                std::initializer_list<int> thread_counts) {
  for (const bool keep_all : {true, false}) {
    opt.keep_all_points = keep_all;
    const core::ExplorationResult serial = RunExplore(opt, 1);
    for (const int nt : thread_counts) {
      SCOPED_TRACE("keep_all_points = " + std::to_string(keep_all) +
                   ", num_threads = " + std::to_string(nt));
      ExpectResultsIdentical(serial, RunExplore(opt, nt));
    }
  }
}

TEST(ParallelExplore, BitIdenticalAcrossThreadCounts) {
  ExpectThreadCountInvariant(BaseOptions(), {2, 8});
}

TEST(ParallelExplore, HardwareDefaultMatchesSerial) {
  // num_threads = 0 resolves to hardware concurrency — whatever that
  // is on the machine running the test, the contract holds.
  ExpectThreadCountInvariant(BaseOptions(), {0});
}

void ExpectModesIdentical(const core::ExplorationResult& a,
                          const core::ExplorationResult& b) {
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t i = 0; i < a.modes.size(); ++i) {
    EXPECT_EQ(a.modes[i].bitwidth, b.modes[i].bitwidth);
    EXPECT_EQ(a.modes[i].has_solution, b.modes[i].has_solution);
    EXPECT_EQ(a.modes[i].switched_energy_fj,
              b.modes[i].switched_energy_fj);
    if (a.modes[i].has_solution)
      ExpectPointsIdentical(a.modes[i].best, b.modes[i].best);
  }
}

TEST(ParallelExplore, MaskPruningIsExact) {
  // The prunes never change what is found — only how much STA is
  // spent finding it. Against the unpruned reference sweep, every
  // pruned point is exactly one STA run saved, at any thread count.
  core::ExploreOptions pruned = BaseOptions();
  pruned.keep_all_points = false;
  const core::ExplorationResult r_pruned = RunExplore(pruned, 1);
  const core::ExplorationResult r_full = RunExplore(BaseOptions(), 1);

  EXPECT_GT(r_pruned.stats.pruned, 0);
  EXPECT_GT(r_pruned.stats.mask_pruned, 0);
  EXPECT_EQ(r_pruned.stats.sta_runs + r_pruned.stats.pruned +
                r_pruned.stats.mask_pruned,
            r_full.stats.sta_runs);
  EXPECT_EQ(r_pruned.stats.points_considered,
            r_full.stats.points_considered);
  EXPECT_EQ(r_pruned.stats.filtered, r_full.stats.filtered);
  EXPECT_EQ(r_pruned.stats.feasible, r_full.stats.feasible);
  ExpectModesIdentical(r_pruned, r_full);

  ExpectResultsIdentical(r_pruned, RunExplore(pruned, 8));
  ExpectResultsIdentical(r_full, RunExplore(BaseOptions(), 8));
}

TEST(ParallelExplore, MaskPruningInactiveWithKeptPoints) {
  // keep_all_points records the computed wns_ns of every point, which
  // neither prune can supply — so both stand down and the full
  // lattice is analyzed and recorded.
  core::ExploreOptions opt = BaseOptions();
  ASSERT_TRUE(opt.keep_all_points);
  const core::ExplorationResult r = RunExplore(opt, 8);
  EXPECT_EQ(r.stats.pruned, 0);
  EXPECT_EQ(r.stats.mask_pruned, 0);
  EXPECT_EQ(r.stats.sta_runs, r.stats.points_considered);
  EXPECT_EQ(r.all_points.size(),
            static_cast<std::size_t>(r.stats.points_considered));
}

TEST(ParallelExplore, PruningStillSavesStaRuns) {
  core::ExploreOptions pruned = BaseOptions();
  pruned.keep_all_points = false;
  EXPECT_GT(RunExplore(BaseOptions(), 8).stats.sta_runs,
            RunExplore(pruned, 8).stats.sta_runs);
}

TEST(ParallelCriticality, ScoresMatchSerial) {
  const core::ImplementedDesign& d = Design22();
  const std::vector<int> probes = {2, 4, 6, 8};
  const std::vector<double> serial =
      core::AccuracyCriticality(d.op, Lib(), d.loads, d.clock_ns, probes,
                                0.12 * d.clock_ns, /*num_threads=*/1);
  const std::vector<double> parallel =
      core::AccuracyCriticality(d.op, Lib(), d.loads, d.clock_ns, probes,
                                0.12 * d.clock_ns, /*num_threads=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "instance " << i;
}

}  // namespace
}  // namespace adq
