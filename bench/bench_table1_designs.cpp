/// Reproduces paper Table I: post-P&R characteristics of the three
/// benchmark operators — silicon area A, nominal clock frequency,
/// the chosen Vth-domain grid, and the guardband area overhead Aovr —
/// then the timing-closure sweep: five operators at 8 and 16 bits on
/// six grids, each through the full flow at its nominal clock.
///
/// Exits non-zero unless every Table I design and every sweep config
/// meets timing at signoff within two closure-loop rounds (flow.h).

#include <cstdio>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  adq::bench::InitObs(argc, argv);
  using namespace adq;
  // The closure-round counter is read per flow below.
  obs::EnableMetrics(true);
  obs::Counter& rounds = obs::GetCounter("flow.closure_rounds");
  constexpr long kMaxRounds = 2;
  bench::ShapeGate gate;

  std::printf(
      "=== Table I — post-P&R design characteristics ===\n"
      "(areas are standard-cell areas in mm^2)\n\n");
  bench::MarkdownRow({"design", "A [mm^2] paper", "measured", "fclk paper",
                      "measured", "grid", "Aovr paper", "measured"},
                     true);
  for (const bench::DesignCase& c : bench::kDesigns) {
    const long r0 = rounds.value();
    const core::ImplementedDesign d = bench::Implement(c, c.grid);
    const long r = rounds.value() - r0;
    char area[32], fclk[48], aovr[16];
    std::snprintf(area, sizeof area, "%.2e", bench::CellAreaMm2(d));
    std::snprintf(fclk, sizeof fclk, "%.2f GHz (%s)", d.fclk_ghz(),
                  d.timing_met ? "met" : "VIOLATED");
    std::snprintf(aovr, sizeof aovr, "%.1f%%",
                  100.0 * d.partition.area_overhead());
    char paper_area[16], paper_fclk[16], paper_aovr[16];
    std::snprintf(paper_area, sizeof paper_area, "%.2e", c.paper_area_mm2);
    std::snprintf(paper_fclk, sizeof paper_fclk, "%.2f GHz",
                  c.paper_fclk_ghz);
    std::snprintf(paper_aovr, sizeof paper_aovr, "%.0f%%", c.paper_aovr_pct);
    bench::MarkdownRow({c.name, paper_area, area, paper_fclk, fclk,
                        c.grid.ToString(), paper_aovr, aovr});
    gate.Expect(d.timing_met, std::string(c.name) + " meets timing");
    gate.Expect(r <= kMaxRounds, std::string(c.name) + " closes in <= 2 rounds");
  }
  std::printf(
      "\nnotes: our FIR is a quad-MAC folded datapath (30 taps / 8 "
      "cycles);\nthe paper does not specify its FIR microarchitecture, "
      "so the area is\nexpected to sit in the same decade, not to "
      "match exactly.\n\n");

  std::printf(
      "=== Timing-closure sweep (nominal clocks) ===\n"
      "(cells: signoff wns [ns] / closure-loop rounds)\n\n");
  struct Op {
    const char* name;
    gen::Operator (*build)(int);
  };
  const Op ops[] = {{"booth", &gen::BuildBoothOperator},
                    {"butterfly", &gen::BuildButterflyOperator},
                    {"fir", &gen::BuildFirMacOperator},
                    {"mac", &gen::BuildMacOperator},
                    {"array", &gen::BuildArrayMultOperator}};
  const place::GridConfig grids[] = {{1, 1}, {2, 1}, {1, 2},
                                     {2, 2}, {3, 3}, {4, 3}};
  std::vector<std::string> header = {"operator"};
  for (const place::GridConfig& g : grids) header.push_back(g.ToString());
  bench::MarkdownRow(header, true);
  int met = 0, configs = 0;
  for (const Op& op : ops) {
    for (const int width : {8, 16}) {
      const std::string name = op.name + std::to_string(width);
      std::vector<std::string> row = {name};
      for (const place::GridConfig& g : grids) {
        core::FlowOptions fopt;
        fopt.grid = g;
        const long r0 = rounds.value();
        const core::ImplementedDesign d =
            core::RunImplementationFlow(op.build(width), bench::Lib(), fopt);
        const long r = rounds.value() - r0;
        char cell[32];
        std::snprintf(cell, sizeof cell, "%+.4f / %ld", d.sizing.wns_ns, r);
        row.push_back(cell);
        ++configs;
        met += d.timing_met ? 1 : 0;
        const std::string label = name + " " + g.ToString();
        gate.Expect(d.timing_met, label + " meets timing");
        gate.Expect(r <= kMaxRounds, label + " closes in <= 2 rounds");
      }
      bench::MarkdownRow(row);
    }
  }
  std::printf("\nclosure sweep: %d/%d configs meet timing\n", met, configs);
  adq::obs::Flush();
  return gate.Finish();
}
