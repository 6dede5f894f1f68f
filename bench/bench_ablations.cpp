/// Ablation studies beyond the paper's evaluation, covering its
/// discussion points and stated future work:
///
///  (1) RBB sleep states — the paper restricts runtime assignments to
///      {NoBB, FBB}; the FDSOI back-gate also supports reverse bias.
///      How much leakage does putting idle domains to sleep recover?
///  (2) Criticality-driven band construction — the paper's future
///      work: do data-fitted cut lines beat the regular grid?
///  (3) VDD islands with level shifters — the alternative the paper
///      dismisses in Sec. III; quantified on the same partition.
///  (4) Process-variation robustness — parametric timing yield of the
///      mode table under die-to-die Vth variation.

#include "common.h"
#include "core/variation.h"
#include "core/vdd_islands.h"
#include "util/table.h"

int main(int argc, char** argv) {
  adq::bench::InitObs(argc, argv);
  using namespace adq;
  std::printf("=== Ablations (Booth 16x16 unless noted) ===\n\n");
  const std::vector<int> bits = {4, 6, 8, 10, 12, 14, 16};

  // ---------- (1) RBB sleep ----------
  {
    const core::ImplementedDesign d =
        bench::Implement(bench::kDesigns[0], {2, 2});
    core::ExploreOptions base;
    base.bitwidths = bits;
    core::ExploreOptions rbb = base;
    rbb.enable_rbb_sleep = true;
    const auto without = core::ExploreDesignSpace(d, bench::Lib(), base);
    const auto with = core::ExploreDesignSpace(d, bench::Lib(), rbb);
    std::printf("(1) RBB sleep for idle domains (2x2 grid)\n");
    util::Table t({"bits", "2-state [W]", "3-state [W]", "RBB mask",
                   "saving"});
    for (std::size_t i = 0; i < with.modes.size(); ++i) {
      const auto& a = without.modes[i];
      const auto& b = with.modes[i];
      if (!a.has_solution || !b.has_solution) continue;
      t.AddRow({std::to_string(b.bitwidth),
                util::Table::Sci(a.best.total_power_w(), 3),
                util::Table::Sci(b.best.total_power_w(), 3),
                bench::MaskToString(b.best.rbb_mask, d.num_domains()),
                util::Table::Num(100.0 * (a.best.total_power_w() -
                                          b.best.total_power_w()) /
                                     a.best.total_power_w(),
                                 1) +
                    "%"});
    }
    std::fputs(t.Render().c_str(), stdout);
    std::printf("\n");
  }

  // ---------- (2) criticality-driven bands ----------
  {
    core::FlowOptions reg;
    reg.grid = {1, 3};
    const core::ImplementedDesign regular = core::RunImplementationFlow(
        gen::BuildBoothOperator(16), bench::Lib(), reg);
    core::FlowOptions crit = reg;
    crit.strategy = core::DomainStrategy::kCriticalityBands;
    const core::ImplementedDesign fitted = core::RunImplementationFlow(
        gen::BuildBoothOperator(16), bench::Lib(), crit);

    core::ExploreOptions xopt;
    xopt.bitwidths = bits;
    const auto r_reg = core::ExploreDesignSpace(regular, bench::Lib(), xopt);
    const auto r_fit = core::ExploreDesignSpace(fitted, bench::Lib(), xopt);
    std::printf("(2) regular 1x3 grid vs criticality-fitted bands\n");
    util::Table t({"bits", "regular [W]", "fitted [W]", "delta"});
    for (std::size_t i = 0; i < r_reg.modes.size(); ++i) {
      const auto& a = r_reg.modes[i];
      const auto& b = r_fit.modes[i];
      if (!a.has_solution || !b.has_solution) continue;
      t.AddRow({std::to_string(a.bitwidth),
                util::Table::Sci(a.best.total_power_w(), 3),
                util::Table::Sci(b.best.total_power_w(), 3),
                util::Table::Num(100.0 * (a.best.total_power_w() -
                                          b.best.total_power_w()) /
                                     a.best.total_power_w(),
                                 1) +
                    "%"});
    }
    std::fputs(t.Render().c_str(), stdout);
    std::printf("\n");
  }

  // ---------- (3) back-bias islands vs VDD islands ----------
  {
    const core::ImplementedDesign d =
        bench::Implement(bench::kDesigns[0], {2, 2});
    core::ExploreOptions xopt;
    xopt.bitwidths = bits;
    const auto bb = core::ExploreDesignSpace(d, bench::Lib(), xopt);
    core::VddIslandOptions vopt;
    vopt.bitwidths = bits;
    const auto vi = core::ExploreVddIslands(d, bench::Lib(), vopt);
    std::printf(
        "(3) back-bias islands vs two-rail VDD islands (%d level "
        "shifters inserted)\n",
        vi.num_level_shifters);
    util::Table t({"bits", "BB islands [W]", "VDD islands [W]",
                   "of which shifters", "BB advantage"});
    for (std::size_t i = 0; i < bb.modes.size(); ++i) {
      const auto& a = bb.modes[i];
      const auto* b = i < vi.modes.size() ? &vi.modes[i] : nullptr;
      if (!a.has_solution || !b || !b->has_solution) continue;
      t.AddRow({std::to_string(a.bitwidth),
                util::Table::Sci(a.best.total_power_w(), 3),
                util::Table::Sci(b->best.total_power_w(), 3),
                util::Table::Sci(b->best.shifter_w, 2),
                util::Table::Num(100.0 * (b->best.total_power_w() -
                                          a.best.total_power_w()) /
                                     b->best.total_power_w(),
                                 1) +
                    "%"});
    }
    std::fputs(t.Render().c_str(), stdout);
    std::printf(
        "\npaper Sec. III: BB domains need no level shifters, only "
        "guardbands —\nthe table quantifies that argument on identical "
        "partitions.\n\n");
  }

  // ---------- (4) process-variation robustness ----------
  {
    const core::ImplementedDesign d =
        bench::Implement(bench::kDesigns[0], {2, 2});
    core::ExploreOptions xopt;
    xopt.bitwidths = bits;
    const auto r = core::ExploreDesignSpace(d, bench::Lib(), xopt);
    core::VariationOptions vopt;  // 15 mV die-to-die Vth sigma
    const auto yields = core::TimingYield(d, bench::Lib(), r, vopt);
    std::printf(
        "(4) parametric timing yield of the mode table under die-to-die"
        " Vth\n    variation (sigma = %.0f mV, %d dies)\n",
        1e3 * vopt.sigma_vth_v, vopt.samples);
    util::Table t({"bits", "yield", "worst wns [ns]"});
    for (const auto& y : yields)
      t.AddRow({std::to_string(y.bitwidth),
                util::Table::Num(100.0 * y.yield, 1) + "%",
                util::Table::Num(y.worst_wns_ns, 3)});
    std::fputs(t.Render().c_str(), stdout);
    std::printf(
        "\nreading: modes whose optimum sits at the STA-filter edge "
        "lose yield\nfirst — a deployment should derate the clock or "
        "re-explore with a\nguard-banded constraint.\n\n");
  }

  adq::obs::Flush();
  return 0;
}
