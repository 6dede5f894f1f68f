/// Tests for the design-space exploration (the paper's optimization
/// phase), the DVAS baselines, Pareto utilities and the runtime
/// controller.

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/dvas.h"
#include "core/explore.h"
#include "core/pareto.h"
#include "obs/metrics.h"
#include "sim/activity.h"

namespace adq::core {
namespace {

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

/// Shared small design (width-8 Booth, 2x2) to keep tests fast.
const ImplementedDesign& Design22() {
  static const ImplementedDesign d = [] {
    FlowOptions fopt;
    fopt.grid = {2, 2};
    fopt.clock_ns = 0.55;  // tight enough that knobs matter
    return RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  }();
  return d;
}

const ImplementedDesign& DesignFlat() {
  static const ImplementedDesign d = [] {
    FlowOptions fopt;
    fopt.clock_ns = 0.55;
    return RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  }();
  return d;
}

ExploreOptions FastOptions() {
  ExploreOptions opt;
  opt.bitwidths = {2, 4, 6, 8};
  opt.activity_cycles = 128;
  return opt;
}

TEST(Explore, StatsAddUp) {
  ExploreOptions opt = FastOptions();
  const ExplorationResult r = ExploreDesignSpace(Design22(), Lib(), opt);
  EXPECT_EQ(r.stats.points_considered,
            (long)(opt.bitwidths.size() * opt.vdds.size() * 16));
  EXPECT_EQ(r.stats.filtered + r.stats.feasible, r.stats.points_considered);
  EXPECT_LE(r.stats.sta_runs, r.stats.points_considered);
}

TEST(Explore, PruningDoesNotChangeResults) {
  // The default sweep prunes; keep_all_points is the unpruned
  // reference that runs STA on every lattice point.
  const ExploreOptions fast = FastOptions();
  ExploreOptions slow = FastOptions();
  slow.keep_all_points = true;
  const ExplorationResult a = ExploreDesignSpace(Design22(), Lib(), fast);
  const ExplorationResult b = ExploreDesignSpace(Design22(), Lib(), slow);
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t i = 0; i < a.modes.size(); ++i) {
    EXPECT_EQ(a.modes[i].has_solution, b.modes[i].has_solution);
    if (a.modes[i].has_solution) {
      EXPECT_NEAR(a.modes[i].best.total_power_w(),
                  b.modes[i].best.total_power_w(), 1e-15);
      EXPECT_EQ(a.modes[i].best.mask, b.modes[i].best.mask);
      EXPECT_DOUBLE_EQ(a.modes[i].best.vdd, b.modes[i].best.vdd);
    }
  }
  EXPECT_GT(b.stats.sta_runs, a.stats.sta_runs) << "pruning must save STA";
}

TEST(Explore, BestIsMinimumOverKeptPoints) {
  ExploreOptions opt = FastOptions();
  opt.keep_all_points = true;
  const ExplorationResult r = ExploreDesignSpace(Design22(), Lib(), opt);
  for (const ModeResult& m : r.modes) {
    if (!m.has_solution) continue;
    for (const ExploredPoint& p : r.all_points) {
      if (p.bitwidth != m.bitwidth || !p.feasible) continue;
      EXPECT_GE(p.total_power_w(), m.best.total_power_w() - 1e-18);
    }
  }
}

TEST(Explore, FeasiblePointsMeetTiming) {
  ExploreOptions opt = FastOptions();
  opt.keep_all_points = true;
  const ExplorationResult r = ExploreDesignSpace(Design22(), Lib(), opt);
  for (const ExploredPoint& p : r.all_points)
    if (p.feasible) {
      EXPECT_GE(p.wns_ns, 0.0);
    }
}

TEST(Explore, LowerAccuracyNeverCostsMore) {
  // The frontier must be monotone: a lower bitwidth has at least the
  // options of a higher one (its active paths are a subset), so its
  // optimum cannot be worse.
  const ExplorationResult r =
      ExploreDesignSpace(Design22(), Lib(), FastOptions());
  double prev = 0.0;
  bool have = false;
  for (const ModeResult& m : r.modes) {  // ascending bitwidth
    if (!m.has_solution) continue;
    // 2% tolerance: activity annotation is per-mode simulation, so
    // tiny non-monotonicities in measured toggles are legitimate.
    if (have) {
      EXPECT_GE(m.best.total_power_w(), prev * 0.98);
    }
    prev = m.best.total_power_w();
    have = true;
  }
}

TEST(Explore, BiasVectorMatchesMask) {
  const auto bias = BiasVectorFor(Design22(), 0b0110);
  for (std::uint32_t i = 0; i < Design22().op.nl.num_instances(); ++i) {
    const int d = Design22().partition.domain_of[i];
    EXPECT_EQ(bias[i] == tech::BiasState::kFBB, ((0b0110 >> d) & 1) == 1);
  }
}

TEST(Dvas, VariantsRestrictMasks) {
  const auto nobb =
      ExploreDvas(DesignFlat(), Lib(), DvasVariant::kNoBB, FastOptions());
  const auto fbb =
      ExploreDvas(DesignFlat(), Lib(), DvasVariant::kFBB, FastOptions());
  for (const ModeResult& m : nobb.modes)
    if (m.has_solution) {
      EXPECT_EQ(m.best.mask, 0u);
    }
  for (const ModeResult& m : fbb.modes)
    if (m.has_solution) {
      EXPECT_EQ(m.best.mask, 1u);
    }
}

TEST(Dvas, WorksOnPartitionedDesignWithUniformMask) {
  const auto fbb =
      ExploreDvas(Design22(), Lib(), DvasVariant::kFBB, FastOptions());
  for (const ModeResult& m : fbb.modes)
    if (m.has_solution) {
      EXPECT_EQ(m.best.mask, 0b1111u);
    }
}

TEST(Dvas, ProposedNeverWorseThanIsoLayoutDvas) {
  // On the same layout, the proposed exploration's mask set is a
  // superset of both DVAS variants, so its optimum can never be worse.
  const auto prop = ExploreDesignSpace(Design22(), Lib(), FastOptions());
  const auto fbb =
      ExploreDvas(Design22(), Lib(), DvasVariant::kFBB, FastOptions());
  for (std::size_t i = 0; i < prop.modes.size(); ++i) {
    if (!fbb.modes[i].has_solution) continue;
    ASSERT_TRUE(prop.modes[i].has_solution);
    EXPECT_LE(prop.modes[i].best.total_power_w(),
              fbb.modes[i].best.total_power_w() + 1e-15);
  }
}

TEST(Flow, FlatViewIsSingleDomainSameNetlist) {
  const ImplementedDesign flat = FlatView(Design22(), Lib());
  EXPECT_EQ(flat.num_domains(), 1);
  EXPECT_EQ(flat.op.nl.num_instances(), Design22().op.nl.num_instances());
  EXPECT_NEAR(flat.partition.area_overhead(), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(flat.clock_ns, Design22().clock_ns);
}

TEST(Dvas, NoBBNeverBeatsFbbOnReach) {
  // Every bitwidth NoBB can configure, FBB can too (it is strictly
  // faster), though possibly at higher leakage.
  const auto nobb =
      ExploreDvas(DesignFlat(), Lib(), DvasVariant::kNoBB, FastOptions());
  const auto fbb =
      ExploreDvas(DesignFlat(), Lib(), DvasVariant::kFBB, FastOptions());
  for (std::size_t i = 0; i < nobb.modes.size(); ++i) {
    if (nobb.modes[i].has_solution) {
      EXPECT_TRUE(fbb.modes[i].has_solution);
    }
  }
}

void ExpectSameModes(const ExplorationResult& a, const ExplorationResult& b) {
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t i = 0; i < a.modes.size(); ++i) {
    const ModeResult& x = a.modes[i];
    const ModeResult& y = b.modes[i];
    EXPECT_EQ(x.bitwidth, y.bitwidth);
    EXPECT_EQ(x.has_solution, y.has_solution);
    EXPECT_EQ(x.switched_energy_fj, y.switched_energy_fj);
    EXPECT_EQ(x.best.mask, y.best.mask);
    EXPECT_EQ(x.best.vdd, y.best.vdd);
    EXPECT_EQ(x.best.wns_ns, y.best.wns_ns);
    EXPECT_EQ(x.best.total_power_w(), y.best.total_power_w());
  }
  EXPECT_EQ(a.stats.sta_runs, b.stats.sta_runs);
  EXPECT_EQ(a.stats.filtered, b.stats.filtered);
}

// The mode case analyses depend only on the netlist structure: the
// proposed sweep, both DVAS runs and the DVAS run on the flat view
// (a copy of the netlist) build each mode once between them, and
// give exactly the results of runs that each start from an empty
// cache. A structurally different netlist builds its own.
TEST(ModeConstants, CaseAnalysesBuiltOncePerNetlistStructure) {
  obs::EnableMetrics(true);
  obs::Counter& builds = obs::GetCounter("netlist.case_analysis_builds");
  const ImplementedDesign flat = FlatView(Design22(), Lib());
  const ExploreOptions opt = FastOptions();
  const auto run_all = [&](bool cold) {
    std::vector<ExplorationResult> r;
    const auto run = [&](auto&& fn) {
      if (cold) sim::ClearActivityCache();
      r.push_back(fn());
    };
    run([&] { return ExploreDesignSpace(Design22(), Lib(), opt); });
    run([&] { return ExploreDvas(Design22(), Lib(), DvasVariant::kNoBB, opt); });
    run([&] { return ExploreDvas(Design22(), Lib(), DvasVariant::kFBB, opt); });
    run([&] { return ExploreDvas(flat, Lib(), DvasVariant::kFBB, opt); });
    return r;
  };

  sim::ClearActivityCache();
  builds.Reset();
  const std::vector<ExplorationResult> shared = run_all(false);
  EXPECT_EQ(builds.value(), static_cast<long>(opt.bitwidths.size()));

  builds.Reset();
  const std::vector<ExplorationResult> cold = run_all(true);
  EXPECT_EQ(builds.value(), 4 * static_cast<long>(opt.bitwidths.size()));
  for (std::size_t k = 0; k < shared.size(); ++k)
    ExpectSameModes(shared[k], cold[k]);

  builds.Reset();
  ExploreDesignSpace(DesignFlat(), Lib(), opt);  // same structure: hits
  EXPECT_EQ(builds.value(), 0);
  FlowOptions fopt;
  fopt.clock_ns = 0.55;
  const ImplementedDesign other = RunImplementationFlow(
      gen::BuildArrayMultOperator(8), Lib(), fopt);
  ExploreDesignSpace(other, Lib(), opt);
  EXPECT_EQ(builds.value(), static_cast<long>(opt.bitwidths.size()));
  obs::EnableMetrics(false);
}

TEST(Pareto, FrontierSortedAndComplete) {
  const ExplorationResult r =
      ExploreDesignSpace(Design22(), Lib(), FastOptions());
  const auto f = Frontier(r);
  for (std::size_t i = 1; i < f.size(); ++i)
    EXPECT_LT(f[i - 1].bitwidth, f[i].bitwidth);
}

TEST(Pareto, RemoveDominated) {
  std::vector<ParetoPoint> pts = {
      {4, 1.0, 0, 1.0},  // dominated by {8, 0.9}
      {8, 0.9, 0, 1.0},
      {8, 1.1, 0, 1.0},  // dominated by {8, 0.9}
      {12, 2.0, 0, 1.0},
  };
  const auto kept = RemoveDominated(pts);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].bitwidth, 8);
  EXPECT_EQ(kept[1].bitwidth, 12);
}

TEST(Pareto, SavingAtComputesRelativeDelta) {
  std::vector<ParetoPoint> ours = {{8, 0.6, 0, 1.0}};
  std::vector<ParetoPoint> base = {{8, 1.0, 0, 1.0}};
  const auto s = SavingAt(ours, base, 8);
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(*s, 0.4, 1e-12);
  EXPECT_FALSE(SavingAt(ours, base, 10).has_value());
}

TEST(Controller, TableAndSwitchEnergy) {
  const ExplorationResult r =
      ExploreDesignSpace(Design22(), Lib(), FastOptions());
  const RuntimeController ctrl(r);
  const auto modes = ctrl.SupportedModes();
  ASSERT_FALSE(modes.empty());
  for (const int m : modes) {
    const auto k = ctrl.Configure(m);
    ASSERT_TRUE(k.has_value());
    EXPECT_EQ(k->bitwidth, m);
    EXPECT_GT(k->power_w, 0.0);
  }
  EXPECT_FALSE(ctrl.Configure(99).has_value());
  // Switching to the same mode costs nothing.
  EXPECT_DOUBLE_EQ(ctrl.SwitchEnergyFj(modes[0], modes[0]), 0.0);
  EXPECT_FALSE(ctrl.RenderTable().empty());
}

TEST(Explore, ModeLookup) {
  const ExplorationResult r =
      ExploreDesignSpace(Design22(), Lib(), FastOptions());
  EXPECT_EQ(r.Mode(4).bitwidth, 4);
  EXPECT_THROW(r.Mode(5), CheckError);
}

}  // namespace
}  // namespace adq::core
