/// Tests for the frontier branch-and-bound engine (core/frontier.h):
/// certificate equivalence against the exhaustive sweep (bit-identical
/// best points at any worker count), bounded-gap results under a node
/// budget, warm-starting from the persistent store (cold/warm runs
/// bit-identical, STA fully traded for store hits), and verdict
/// sharing between the frontier and exhaustive engines through one
/// store directory, a golden digest of the budgeted 25-domain
/// search, and the signoff lint gate.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/explore.h"
#include "core/flow.h"
#include "core/frontier.h"
#include "core/mode_context.h"
#include "netlist/netlist.h"
#include "store/exploration_store.h"
#include "util/check.h"

namespace adq::core {
namespace {

namespace fs = std::filesystem;

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

/// Shared small design (width-8 Booth, 2x2): 16-mask lattice, small
/// enough that the exhaustive sweep is a fast oracle.
const ImplementedDesign& Design22() {
  static const ImplementedDesign d = [] {
    FlowOptions fopt;
    fopt.grid = {2, 2};
    fopt.clock_ns = 0.55;  // tight enough that knobs matter
    return RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  }();
  return d;
}

/// The frontier_store benchmark's designs: 16-bit operators on a 5x5
/// grid (25 domains), implemented with one worker.
ImplementedDesign Implement55(gen::Operator (*build)(int)) {
  FlowOptions fopt;
  fopt.grid = {5, 5};
  fopt.num_threads = 1;
  return RunImplementationFlow(build(16), Lib(), fopt);
}
const ImplementedDesign& Booth55() {
  static const ImplementedDesign d = Implement55(&gen::BuildBoothOperator);
  return d;
}
const ImplementedDesign& Fir55() {
  static const ImplementedDesign d = Implement55(&gen::BuildFirMacOperator);
  return d;
}

FrontierOptions FastFrontier() {
  FrontierOptions opt;
  opt.bitwidths = {2, 4, 6, 8};
  opt.activity_cycles = 128;
  return opt;
}

ExploreOptions MatchingExhaustive() {
  ExploreOptions opt;
  opt.bitwidths = {2, 4, 6, 8};
  opt.activity_cycles = 128;
  return opt;
}

/// Bit-identical comparison of two mode tables (the frontier
/// certificate contract: ==, never near).
void ExpectModesIdentical(const std::vector<FrontierModeResult>& got,
                          const std::vector<ModeResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("mode " + std::to_string(want[i].bitwidth) + " bit");
    EXPECT_EQ(got[i].bitwidth, want[i].bitwidth);
    ASSERT_EQ(got[i].has_solution, want[i].has_solution);
    EXPECT_EQ(got[i].switched_energy_fj, want[i].switched_energy_fj);
    if (!want[i].has_solution) continue;
    EXPECT_EQ(got[i].best.vdd, want[i].best.vdd);
    EXPECT_EQ(got[i].best.mask, want[i].best.mask);
    EXPECT_EQ(got[i].best.wns_ns, want[i].best.wns_ns);
    EXPECT_EQ(got[i].best.power.dynamic_w, want[i].best.power.dynamic_w);
    EXPECT_EQ(got[i].best.power.leakage_w, want[i].best.power.leakage_w);
  }
}

void ExpectFrontierIdentical(const FrontierResult& a,
                             const FrontierResult& b) {
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t i = 0; i < a.modes.size(); ++i) {
    EXPECT_EQ(a.modes[i].has_solution, b.modes[i].has_solution);
    EXPECT_EQ(a.modes[i].best.vdd, b.modes[i].best.vdd);
    EXPECT_EQ(a.modes[i].best.mask, b.modes[i].best.mask);
    EXPECT_EQ(a.modes[i].best.wns_ns, b.modes[i].best.wns_ns);
    EXPECT_EQ(a.modes[i].best.power.dynamic_w,
              b.modes[i].best.power.dynamic_w);
    EXPECT_EQ(a.modes[i].best.power.leakage_w,
              b.modes[i].best.power.leakage_w);
    EXPECT_EQ(a.modes[i].certified, b.modes[i].certified);
    EXPECT_EQ(a.modes[i].gap_w, b.modes[i].gap_w);
    EXPECT_EQ(a.modes[i].nodes_expanded, b.modes[i].nodes_expanded);
  }
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded);
  EXPECT_EQ(a.stats.nodes_pruned_bound, b.stats.nodes_pruned_bound);
  EXPECT_EQ(a.stats.nodes_pruned_infeasible,
            b.stats.nodes_pruned_infeasible);
  EXPECT_EQ(a.stats.nodes_closed, b.stats.nodes_closed);
  EXPECT_EQ(a.stats.waves, b.stats.waves);
  EXPECT_EQ(a.stats.certified_modes, b.stats.certified_modes);
}

TEST(Frontier, CertificateMatchesExhaustiveAtAnyThreadCount) {
  const ExplorationResult oracle =
      ExploreDesignSpace(Design22(), Lib(), MatchingExhaustive());
  for (const int nt : {1, 8}) {
    SCOPED_TRACE("num_threads=" + std::to_string(nt));
    FrontierOptions opt = FastFrontier();
    opt.num_threads = nt;
    const FrontierResult fr = FrontierExplore(Design22(), Lib(), opt);
    EXPECT_EQ(fr.stats.certified_modes,
              static_cast<int>(fr.modes.size()));
    for (const FrontierModeResult& m : fr.modes) {
      EXPECT_TRUE(m.certified);
      EXPECT_EQ(m.gap_w, 0.0);
    }
    ExpectModesIdentical(fr.modes, oracle.modes);
  }
}

TEST(Frontier, TrajectoryIsThreadCountInvariant) {
  FrontierOptions a = FastFrontier();
  a.num_threads = 1;
  FrontierOptions b = FastFrontier();
  b.num_threads = 8;
  ExpectFrontierIdentical(FrontierExplore(Design22(), Lib(), a),
                          FrontierExplore(Design22(), Lib(), b));
}

TEST(Frontier, WaveWidthChangesTrajectoryNotResult) {
  const ExplorationResult oracle =
      ExploreDesignSpace(Design22(), Lib(), MatchingExhaustive());
  for (const int w : {1, 3, 256}) {
    SCOPED_TRACE("wave_width=" + std::to_string(w));
    FrontierOptions opt = FastFrontier();
    opt.wave_width = w;
    const FrontierResult fr = FrontierExplore(Design22(), Lib(), opt);
    ExpectModesIdentical(fr.modes, oracle.modes);
  }
}

TEST(Frontier, IndexOrderBranchingStaysExact) {
  // Disabling the criticality probe only reorders the search; the
  // certificate still reproduces the exhaustive optimum.
  const ExplorationResult oracle =
      ExploreDesignSpace(Design22(), Lib(), MatchingExhaustive());
  FrontierOptions opt = FastFrontier();
  opt.criticality_slack_window_ns = 0.0;
  const FrontierResult fr = FrontierExplore(Design22(), Lib(), opt);
  ExpectModesIdentical(fr.modes, oracle.modes);
}

TEST(Frontier, BudgetYieldsIncumbentWithSoundGap) {
  const ExplorationResult oracle =
      ExploreDesignSpace(Design22(), Lib(), MatchingExhaustive());
  FrontierOptions opt = FastFrontier();
  opt.node_budget = 1;
  opt.wave_width = 1;
  const FrontierResult fr = FrontierExplore(Design22(), Lib(), opt);
  for (std::size_t i = 0; i < fr.modes.size(); ++i) {
    const FrontierModeResult& m = fr.modes[i];
    SCOPED_TRACE("mode " + std::to_string(m.bitwidth) + " bit");
    EXPECT_LE(m.nodes_expanded, 1);
    if (m.certified) continue;  // tiny lattice may still finish
    EXPECT_GE(m.gap_w, 0.0);
    ASSERT_TRUE(m.has_solution);  // root wave already folds verdicts
    const double optimum = oracle.modes[i].best.total_power_w();
    // The incumbent is a real feasible point, so it can only be
    // above the optimum; the proved gap must cover the distance.
    EXPECT_GE(m.best.total_power_w(), optimum);
    EXPECT_LE(m.best.total_power_w() - m.gap_w, optimum + 1e-15);
  }
}

TEST(Frontier, WarmStartFromOwnStoreIsBitIdenticalAndStaFree) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "frontier_warm_store";
  fs::remove_all(dir);
  FrontierResult cold, warm;
  {
    store::ExplorationStore st(dir.string());
    FrontierOptions opt = FastFrontier();
    opt.store = &st;
    cold = FrontierExplore(Design22(), Lib(), opt);
    EXPECT_GT(cold.stats.sta_runs, 0);
    EXPECT_EQ(cold.stats.store_hits, 0);
    ASSERT_TRUE(st.Flush());
  }
  {
    store::ExplorationStore st(dir.string());  // fresh process' view
    FrontierOptions opt = FastFrontier();
    opt.num_threads = 8;  // and a different worker count to boot
    opt.store = &st;
    warm = FrontierExplore(Design22(), Lib(), opt);
  }
  // Identical trajectory, every former STA run served by the store —
  // far beyond the required >= 5x reduction in STA evaluations.
  ExpectFrontierIdentical(cold, warm);
  EXPECT_EQ(warm.stats.sta_runs, 0);
  EXPECT_EQ(warm.stats.store_hits, cold.stats.sta_runs);
  EXPECT_GE(cold.stats.sta_runs, 5 * (warm.stats.sta_runs + 1));
  EXPECT_EQ(warm.stats.transfer_hits, cold.stats.transfer_hits);
}

TEST(Frontier, SharesVerdictsWithTheExhaustiveEngine) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "frontier_shared_store";
  fs::remove_all(dir);

  // Exhaustive cold run populates the store...
  ExplorationResult ex_cold, ex_warm;
  {
    store::ExplorationStore st(dir.string());
    ExploreOptions opt = MatchingExhaustive();
    opt.store = &st;
    ex_cold = ExploreDesignSpace(Design22(), Lib(), opt);
    EXPECT_GT(ex_cold.stats.sta_runs, 0);
    EXPECT_EQ(ex_cold.stats.store_hits, 0);
    ASSERT_TRUE(st.Flush());
  }
  // ...the frontier warm-starts from the exhaustive verdicts...
  {
    store::ExplorationStore st(dir.string());
    FrontierOptions opt = FastFrontier();
    opt.store = &st;
    const FrontierResult fr = FrontierExplore(Design22(), Lib(), opt);
    EXPECT_GT(fr.stats.store_hits, 0);
    ExpectModesIdentical(fr.modes, ex_cold.modes);
    ASSERT_TRUE(st.Flush());  // frontier-only verdicts join the store
  }
  // ...and a warm exhaustive run is bit-identical with the exact
  // sta_runs <-> store_hits trade (pruning untouched by the store).
  {
    store::ExplorationStore st(dir.string());
    ExploreOptions opt = MatchingExhaustive();
    opt.store = &st;
    ex_warm = ExploreDesignSpace(Design22(), Lib(), opt);
  }
  EXPECT_EQ(ex_warm.stats.sta_runs, 0);
  EXPECT_EQ(ex_warm.stats.store_hits, ex_cold.stats.sta_runs);
  EXPECT_EQ(ex_warm.stats.pruned, ex_cold.stats.pruned);
  EXPECT_EQ(ex_warm.stats.mask_pruned, ex_cold.stats.mask_pruned);
  EXPECT_EQ(ex_warm.stats.filtered, ex_cold.stats.filtered);
  EXPECT_EQ(ex_warm.stats.feasible, ex_cold.stats.feasible);
  ASSERT_EQ(ex_warm.modes.size(), ex_cold.modes.size());
  for (std::size_t i = 0; i < ex_warm.modes.size(); ++i) {
    EXPECT_EQ(ex_warm.modes[i].best.mask, ex_cold.modes[i].best.mask);
    EXPECT_EQ(ex_warm.modes[i].best.vdd, ex_cold.modes[i].best.vdd);
    EXPECT_EQ(ex_warm.modes[i].best.wns_ns,
              ex_cold.modes[i].best.wns_ns);
  }
}

TEST(Frontier, LargeGridCompletesUnderBudgetWithReportedGap) {
  // 25 domains: a 2^25 lattice per (vdd, bitwidth) row — far beyond
  // the exhaustive ceiling. The frontier must return within the node
  // budget and label every mode either certified or gap-bounded.
  FlowOptions fopt;
  fopt.grid = {5, 5};
  fopt.lint = lint::LintGate::kWarn;
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(16), Lib(), fopt);
  ASSERT_EQ(d.num_domains(), 25);

  FrontierOptions opt;
  opt.bitwidths = {16};
  opt.activity_cycles = 64;
  opt.node_budget = 40;
  opt.wave_width = 8;
  const FrontierResult fr = FrontierExplore(d, Lib(), opt);
  ASSERT_EQ(fr.modes.size(), 1u);
  const FrontierModeResult& m = fr.modes[0];
  EXPECT_LE(m.nodes_expanded, 40);
  if (!m.certified) {
    EXPECT_TRUE(m.has_solution);  // roots alone yield an incumbent
    EXPECT_GE(m.gap_w, 0.0);
  }
  // Determinism holds on the big lattice too.
  FrontierOptions opt2 = opt;
  opt2.num_threads = 8;
  ExpectFrontierIdentical(fr, FrontierExplore(d, Lib(), opt2));
}

TEST(Frontier, ToExplorationResultFeedsExistingConsumers) {
  FrontierOptions opt = FastFrontier();
  const FrontierResult fr = FrontierExplore(Design22(), Lib(), opt);
  const ExplorationResult as_ex = fr.ToExplorationResult();
  ASSERT_EQ(as_ex.modes.size(), fr.modes.size());
  for (std::size_t i = 0; i < fr.modes.size(); ++i) {
    EXPECT_EQ(as_ex.modes[i].bitwidth, fr.modes[i].bitwidth);
    EXPECT_EQ(as_ex.modes[i].has_solution, fr.modes[i].has_solution);
    EXPECT_EQ(as_ex.modes[i].best.mask, fr.modes[i].best.mask);
    EXPECT_EQ(as_ex.modes[i].switched_energy_fj,
              fr.modes[i].switched_energy_fj);
  }
  EXPECT_EQ(as_ex.stats.sta_runs, fr.stats.sta_runs);
  EXPECT_EQ(as_ex.stats.store_hits, fr.stats.store_hits);
  // `feasible` counts feasible lattice points, which the search never
  // enumerates: the adapter leaves it unset rather than filling it
  // with a count of solved modes.
  EXPECT_EQ(as_ex.stats.feasible, 0);
  // Mode lookup mirrors ExplorationResult::Mode.
  EXPECT_EQ(fr.Mode(4).bitwidth, 4);
}

/// FNV-1a over the bit patterns of a search's outputs.
class SearchDigest {
 public:
  void AddByte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      AddByte(static_cast<unsigned char>((v >> (8 * i)) & 0xffULL));
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  void Add(long v) { Add(static_cast<std::uint64_t>(v)); }
  void Add(int v) { Add(static_cast<std::uint64_t>(v)); }
  void Add(bool v) { Add(static_cast<std::uint64_t>(v)); }
  void AddBytes(const std::string& s) {
    for (const char c : s) AddByte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Pins the budgeted 25-domain search bit for bit: the two designs of
// the frontier_store benchmark (Booth16 and FIR16 at 5x5, node budget
// 2000, one worker, a fresh store). The digest covers every mode's
// best point, certificate, gap and node count, every FrontierStats
// field, and the bytes of the segment the store flushes — so the
// search trajectory, the fold order and the on-disk record order are
// all fixed. A change meant to be a pure speedup must leave it alone.
TEST(FrontierGolden, FiveByFiveBudgetedSearchBitIdentical) {
  struct Case {
    const char* name;
    const ImplementedDesign& (*design)();
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"Booth16 5x5", &Booth55, 0x5e18061e32ec6992ULL},
      {"FIR16 5x5", &Fir55, 0x896b672585a69b3cULL},
  };
  for (const Case& c : cases) {
    const ImplementedDesign& d = c.design();
    const fs::path dir = fs::path(::testing::TempDir()) / "frontier_golden";
    fs::remove_all(dir);
    SearchDigest h;
    {
      store::ExplorationStore st(dir.string());
      FrontierOptions opt;
      opt.num_threads = 1;
      opt.node_budget = 2000;
      opt.store = &st;
      const FrontierResult fr = FrontierExplore(d, Lib(), opt);
      ASSERT_TRUE(st.Flush());
      for (const FrontierModeResult& m : fr.modes) {
        h.Add(m.bitwidth);
        h.Add(m.has_solution);
        h.Add(m.best.vdd);
        h.Add(static_cast<std::uint64_t>(m.best.mask));
        h.Add(m.best.wns_ns);
        h.Add(m.best.power.dynamic_w);
        h.Add(m.best.power.leakage_w);
        h.Add(m.certified);
        h.Add(m.gap_w);
        h.Add(m.nodes_expanded);
      }
      const FrontierStats& s = fr.stats;
      for (const long v :
           {s.nodes_expanded, s.nodes_pruned_bound, s.nodes_pruned_infeasible,
            s.nodes_closed, s.sta_runs, s.store_hits, s.transfer_hits,
            s.waves})
        h.Add(v);
      h.Add(s.certified_modes);
    }
    int segments = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() != ".adqstore") continue;
      std::ifstream in(e.path(), std::ios::binary);
      h.AddBytes(std::string(std::istreambuf_iterator<char>(in), {}));
      ++segments;
    }
    EXPECT_EQ(segments, 1) << c.name;
    EXPECT_EQ(h.value(), c.digest)
        << c.name << ": digest 0x" << std::hex << h.value();
  }
}

// The mode context's leakage table is a pure re-association of
// MaskLeakageW's per-domain terms: same terms, same domain order, so
// every sum must come out bit-identical, at every supply of the list.
TEST(ModeContext, LeakageTableMatchesMaskLeakageW) {
  const ImplementedDesign& d = Booth55();
  ASSERT_EQ(d.num_domains(), 25);
  FrontierOptions opt;
  opt.vdds = {0.65, 1.0, 0.85, 0.6};
  opt.bitwidths = {16};
  opt.activity_cycles = 64;
  opt.num_threads = 1;
  const ModeContext ctx(ModeContext::Engine::kFrontier, d, Lib(), opt);

  std::mt19937_64 rng(20261017);
  std::vector<tech::DomainMask> masks = {0, tech::FullMask(25)};
  for (int i = 0; i < 200; ++i) masks.push_back(rng() & tech::FullMask(25));
  for (std::size_t vi = 0; vi < opt.vdds.size(); ++vi)
    for (const tech::DomainMask m : masks) {
      const double oracle = MaskLeakageW(ctx.pmodel(), ctx.dom_weight(), 25,
                                         opt.vdds[vi], m);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ctx.LeakageW(vi, m)),
                std::bit_cast<std::uint64_t>(oracle))
          << "vdd " << opt.vdds[vi] << " mask 0x" << std::hex << m;
    }
}

// Signoff lint gate: the exhaustive engine's (tests/test_explore),
// applied identically by the frontier engine.

core::ImplementedDesign CorruptCopy() {
  core::ImplementedDesign d = Design22();
  // Second driver claims an existing net: an NL001 structural error
  // the signoff DRC must catch.
  netlist::RawAccess raw(d.op.nl);
  raw.inst(netlist::InstId(1)).out[0] = raw.inst(netlist::InstId(0)).out[0];
  return d;
}

TEST(LintGate, FrontierEngineRejectsCorruptNetlistIdentically) {
  const core::ImplementedDesign bad = CorruptCopy();
  core::FrontierOptions opt;
  opt.bitwidths = {8};
  opt.activity_cycles = 128;
  opt.lint = lint::LintGate::kError;
  EXPECT_THROW(core::FrontierExplore(bad, Lib(), opt), CheckError);
  // kOff preserves historical behavior (no gate, no throw) — probed
  // on the clean design only; never sweep a corrupt netlist.
  core::FrontierOptions off = opt;
  off.lint = lint::LintGate::kOff;
  const core::FrontierResult ok =
      core::FrontierExplore(Design22(), Lib(), off);
  EXPECT_EQ(ok.modes.size(), 1u);
}

}  // namespace
}  // namespace adq::core
