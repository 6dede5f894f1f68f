/// Reproduces paper Fig. 5: bitwidth-versus-power Pareto frontiers of
/// the proposed method against DVAS(NoBB) and DVAS(FBB) for all three
/// operators, plus the headline iso-accuracy savings:
///   Booth  @10 bits: paper -32.67% vs DVAS
///   FIR    @10 bits: paper -39.92% vs DVAS
///   B.fly  @ 8 bits: paper -16.5%  vs DVAS
///
/// The DVAS baselines are evaluated on the same partitioned layout
/// (identical parasitics — isolates exactly what runtime bias
/// assignment buys) and additionally on a dedicated guardband-free
/// layout ("FBB flat", the paper's own baseline construction); the
/// delta between the two columns is the guardband cost charged to
/// the proposed method.
///
/// Also prints the STA-filter statistics of the exploration (paper
/// Sec. III-C reports ~75% of points filtered), then a markdown summary
/// (EXPERIMENTS.md is regenerated from it). Exits non-zero unless
/// every design has the Fig. 5 shape: a solution at all 16 bitwidths,
/// proposed power at most same-layout DVAS(FBB) at every bitwidth, no
/// DVAS(NoBB) solution at 16 bits, at least 75% of points filtered,
/// and the saving at the paper's reference bitwidth inside a band that
/// brackets the measured value. Booth's and FIR's bands sit below the
/// paper's savings: the shortfall is asserted as such.

#include "common.h"
#include "util/table.h"

int main(int argc, char** argv) {
  adq::bench::InitObs(argc, argv);
  (void)argc;
  (void)argv;
  using namespace adq;
  std::printf("=== Fig. 5 — power vs accuracy: proposed vs DVAS ===\n\n");

  // Reference bitwidth, paper saving and the asserted band [%].
  struct Ref {
    int bits;
    double paper_saving_pct, lo_pct, hi_pct;
  };
  const Ref refs[3] = {
      {10, 32.67, 0.0, 5.0}, {8, 16.5, 14.0, 23.0}, {10, 39.92, 10.0, 19.0}};
  bench::ShapeGate gate;
  std::vector<std::vector<std::string>> summary;

  for (int di = 0; di < 3; ++di) {
    const bench::DesignCase& c = bench::kDesigns[di];
    std::printf("--- (%c) %s (%s domains) ---\n", 'a' + di, c.name,
                c.grid.ToString().c_str());

    const core::ImplementedDesign ours = bench::Implement(c, c.grid);
    const core::ImplementedDesign flat = core::FlatView(ours, bench::Lib());

    core::ExploreOptions xopt;
    const core::ExplorationResult proposed =
        core::ExploreDesignSpace(ours, bench::Lib(), xopt);
    const core::ExplorationResult nobb =
        core::ExploreDvas(ours, bench::Lib(), core::DvasVariant::kNoBB, xopt);
    const core::ExplorationResult fbb =
        core::ExploreDvas(ours, bench::Lib(), core::DvasVariant::kFBB, xopt);
    const core::ExplorationResult fbb_flat =
        core::ExploreDvas(flat, bench::Lib(), core::DvasVariant::kFBB, xopt);

    const auto fp = core::Frontier(proposed);
    const auto fn = core::Frontier(nobb);
    const auto ff = core::Frontier(fbb);
    const auto ffl = core::Frontier(fbb_flat);

    util::Table t({"bits", "Proposed [W]", "VDD", "mask", "DVAS NoBB [W]",
                   "DVAS FBB [W]", "FBB flat [W]"});
    auto cell = [](const std::optional<double>& p) {
      return p ? util::Table::Sci(*p, 3) : std::string("--");
    };
    for (int bw = 1; bw <= 16; ++bw) {
      std::string vdd = "--", mask = "--";
      for (const core::ParetoPoint& p : fp) {
        if (p.bitwidth != bw) continue;
        vdd = util::Table::Num(p.vdd, 1);
        mask = bench::MaskToString(p.mask, ours.num_domains());
      }
      t.AddRow({std::to_string(bw), cell(core::PowerAt(fp, bw)), vdd, mask,
                cell(core::PowerAt(fn, bw)), cell(core::PowerAt(ff, bw)),
                cell(core::PowerAt(ffl, bw))});
    }
    std::fputs(t.Render().c_str(), stdout);

    // DVAS reference = best DVAS variant at that bitwidth (iso-layout).
    auto best_dvas_at = [&](int bw) {
      auto best = core::PowerAt(ff, bw);
      if (const auto n = core::PowerAt(fn, bw))
        if (!best || *n < *best) best = n;
      return best;
    };
    const Ref& ref = refs[di];
    const auto p_ours = core::PowerAt(fp, ref.bits);
    const auto d_ref = best_dvas_at(ref.bits);
    const double saving =
        p_ours && d_ref ? 100.0 * (*d_ref - *p_ours) / *d_ref : -100.0;
    std::printf("\nsaving vs DVAS at %d bits: %.2f%%   (band [%.0f, %.0f]%%; "
                "paper: %.2f%%)\n",
                ref.bits, saving, ref.lo_pct, ref.hi_pct,
                ref.paper_saving_pct);
    // Best saving across the mid/high-accuracy band the paper plots.
    double best_s = 0.0;
    int best_b = -1;
    for (int bw = 6; bw <= 16; ++bw) {
      const auto p = core::PowerAt(fp, bw);
      const auto d = best_dvas_at(bw);
      if (p && d && (*d - *p) / *d > best_s) {
        best_s = (*d - *p) / *d;
        best_b = bw;
      }
    }
    if (best_b > 0)
      std::printf("largest saving vs DVAS: %.2f%% at %d bits\n",
                  100.0 * best_s, best_b);
    const int max_nobb = fn.empty() ? 0 : fn.back().bitwidth;
    std::printf("DVAS(NoBB) reaches only %d bits (paper: cannot reach "
                "max accuracy)\n",
                max_nobb);
    std::printf(
        "exploration: %ld points, %ld STA runs, %.0f%% filtered "
        "(paper: ~75%%)\n\n",
        proposed.stats.points_considered, proposed.stats.sta_runs,
        100.0 * proposed.stats.FilterRate());

    const std::string name = c.name;
    int solved = 0;
    for (int bw = 1; bw <= 16; ++bw) {
      const auto p = core::PowerAt(fp, bw);
      const auto f = core::PowerAt(ff, bw);
      solved += p ? 1 : 0;
      gate.Expect(!p || !f || *p <= *f,
                  name + " proposed <= DVAS(FBB) at " + std::to_string(bw) +
                      " bits");
    }
    gate.Expect(solved == 16, name + " has a solution at all 16 bitwidths");
    gate.Expect(!core::PowerAt(fn, 16), name + " DVAS(NoBB) misses 16 bits");
    gate.Expect(proposed.stats.FilterRate() >= 0.75,
                name + " STA filters at least 75% of points");
    gate.Expect(saving >= ref.lo_pct && saving <= ref.hi_pct,
                name + " saving at the reference bitwidth inside its band");
    char buf[6][48];
    std::snprintf(buf[0], sizeof buf[0], "%.2f%% @ %d bits",
                  ref.paper_saving_pct, ref.bits);
    std::snprintf(buf[1], sizeof buf[1], "%.2f%% [%.0f, %.0f]", saving,
                  ref.lo_pct, ref.hi_pct);
    std::snprintf(buf[2], sizeof buf[2], "%.2f%% @ %d bits", 100.0 * best_s,
                  best_b);
    std::snprintf(buf[3], sizeof buf[3], "%d/16", solved);
    std::snprintf(buf[4], sizeof buf[4], "%d bits", max_nobb);
    std::snprintf(buf[5], sizeof buf[5], "%.0f%%",
                  100.0 * proposed.stats.FilterRate());
    summary.push_back({name, buf[0], buf[1], buf[2], buf[3], buf[4], buf[5]});
  }
  std::printf("=== Fig. 5 summary ===\n\n");
  bench::MarkdownRow({"design", "saving vs DVAS, paper", "measured [band]",
                      "largest saving (6-16 bits)", "bitwidths solved",
                      "DVAS(NoBB) reach", "STA filtered"},
                     true);
  for (const std::vector<std::string>& row : summary) bench::MarkdownRow(row);
  std::printf("\n");
  adq::obs::Flush();
  return gate.Finish();
}
