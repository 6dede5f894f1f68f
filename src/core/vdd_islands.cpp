#include "core/vdd_islands.h"

#include <algorithm>
#include <set>

#include "core/accuracy.h"
#include "opt/sizing.h"
#include "power/power.h"
#include "sta/sta.h"

namespace adq::core {

namespace {

/// (net, foreign sink domain) pairs that need a level shifter.
std::vector<std::pair<netlist::NetId, int>> ShifterSites(
    const ImplementedDesign& design) {
  const netlist::Netlist& nl = design.op.nl;
  std::vector<std::pair<netlist::NetId, int>> sites;
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(netlist::NetId(n));
    if (!net.driver.valid()) continue;  // primary inputs enter at full rail
    const int src = design.partition.domain_of[net.driver.inst.index()];
    std::set<int> foreign;
    for (const netlist::PinRef& s : net.sinks) {
      const int dst = design.partition.domain_of[s.inst.index()];
      if (dst != src) foreign.insert(dst);
    }
    for (const int d : foreign) sites.push_back({netlist::NetId(n), d});
  }
  return sites;
}

}  // namespace

int CountLevelShifters(const ImplementedDesign& design) {
  return static_cast<int>(ShifterSites(design).size());
}

VddIslandResult ExploreVddIslands(const ImplementedDesign& design,
                                  const tech::CellLibrary& lib,
                                  const VddIslandOptions& opt) {
  const int ndom = design.num_domains();
  ADQ_CHECK_MSG(ndom <= 20, "island count beyond exhaustive enumeration");

  std::vector<int> bitwidths = opt.bitwidths;
  if (bitwidths.empty())
    for (int b = 1; b <= design.op.spec.data_width; ++b)
      bitwidths.push_back(b);
  std::sort(bitwidths.begin(), bitwidths.end());

  const auto sites = ShifterSites(design);

  // Static hardware: shifters load their nets and slow every crossing
  // arc regardless of the runtime rail assignment.
  place::NetWires wires = place::PlacedWires(design.op.nl, design.placement);
  wires.extra_pins.assign(design.op.nl.num_nets(), 0);
  wires.extra_pin_cap_ff = opt.shifter.cap_in_ff;
  wires.extra_pin_delay_ns = opt.shifter.delay_ns;
  for (const auto& [net, dom] : sites) ++wires.extra_pins[net.index()];

  // Fair comparison: the island implementation gets its own timing
  // closure after shifter insertion (a real multi-VDD flow would
  // upsize the crossing paths), on a copy of the netlist.
  gen::Operator op_copy = design.op;
  {
    opt::SizingOptions fix;
    fix.clock_ns = design.clock_ns;
    fix.corner = tech::BiasState::kFBB;
    fix.enable_recovery = false;
    opt::OptimizeSizing(op_copy.nl, lib, wires, fix);
  }
  const netlist::Netlist& nl_v = op_copy.nl;
  const place::NetLoads loads = place::ComputeLoads(nl_v, lib, wires);
  sta::TimingAnalyzer analyzer(nl_v, lib, loads);
  power::PowerModel pmodel(nl_v, lib, loads);

  const std::vector<double> dom_weight =
      pmodel.LeakWeightByDomain(design.partition.domain_of, ndom);

  VddIslandResult result;
  result.num_level_shifters = static_cast<int>(sites.size());

  // One bit-parallel simulation covers every bitwidth's activity
  // profile (one lane per accuracy mode). The sizing fix above only
  // touched drive strengths, so the profiles — cache entries included
  // — are shared with an exploration run over the same design.
  std::vector<int> mode_lsbs(bitwidths.size());
  for (std::size_t i = 0; i < bitwidths.size(); ++i)
    mode_lsbs[i] = ZeroedLsbs(op_copy, bitwidths[i]);
  const std::vector<sim::ActivityProfile> acts = sim::ExtractActivityBatch(
      op_copy, mode_lsbs, opt.activity_cycles, opt.seed, opt.stimulus);

  std::vector<double> scales(nl_v.num_instances(), 1.0);
  for (std::size_t bwi = 0; bwi < bitwidths.size(); ++bwi) {
    const int bw = bitwidths[bwi];
    const netlist::CaseAnalysis ca(nl_v, ForcedZeros(op_copy, bw));
    const sim::ActivityProfile& act = acts[bwi];
    // Per-domain switched energy at 1 V (driver's rail pays the net).
    std::vector<double> energy_fj(static_cast<std::size_t>(ndom), 0.0);
    for (std::uint32_t i = 0; i < nl_v.num_instances(); ++i) {
      const netlist::Instance& inst = nl_v.instances()[i];
      const tech::CellVariant& v = lib.Variant(inst.kind, inst.drive);
      const int d = design.partition.domain_of[i];
      for (int o = 0; o < inst.num_outputs(); ++o) {
        const netlist::NetId out = inst.out[o];
        energy_fj[(std::size_t)d] +=
            act.RateOf(out) * (loads.cap_ff[out.index()] + v.e_int_fj);
      }
      if (inst.is_sequential()) energy_fj[(std::size_t)d] += v.cap_clk_ff;
    }
    // Level-shifter switching (output stage at the high rail).
    double ls_toggle_fj = 0.0;
    for (const auto& [net, dom] : sites)
      ls_toggle_fj += act.RateOf(net) * opt.shifter.e_int_fj;

    VddIslandMode mode;
    mode.bitwidth = bw;
    for (const double low : opt.low_vdds) {
      for (tech::DomainMask mask = 0; mask <= tech::FullMask(ndom); ++mask) {
        ++result.points_considered;
        auto vdd_of = [&](int d) {
          return tech::MaskHas(mask, d) ? low : opt.high_vdd;
        };
        for (std::uint32_t i = 0; i < nl_v.num_instances(); ++i)
          scales[i] = lib.DelayScale(vdd_of(design.partition.domain_of[i]),
                                     tech::BiasState::kFBB);
        const sta::TimingReport rep =
            analyzer.AnalyzeWithScales(scales, design.clock_ns, &ca);
        if (!rep.feasible()) {
          ++result.filtered;
          continue;
        }
        VddIslandPoint p;
        p.bitwidth = bw;
        p.low_vdd = low;
        p.low_mask = mask;
        p.feasible = true;
        for (int d = 0; d < ndom; ++d) {
          const double v = vdd_of(d);
          p.dynamic_w += power::PowerModel::DynamicW(
              energy_fj[(std::size_t)d], v, design.fclk_ghz());
          p.leakage_w += pmodel.DomainLeakageW(dom_weight[(std::size_t)d],
                                               v, tech::BiasState::kFBB);
        }
        p.shifter_w =
            power::PowerModel::DynamicW(ls_toggle_fj, opt.high_vdd,
                                        design.fclk_ghz()) +
            lib.leakage_model().Power(
                opt.shifter.leak_weight * (double)sites.size(),
                opt.high_vdd, lib.Vth(tech::BiasState::kFBB));
        if (!mode.has_solution ||
            p.total_power_w() < mode.best.total_power_w()) {
          mode.has_solution = true;
          mode.best = p;
        }
      }
    }
    result.modes.push_back(mode);
  }
  return result;
}

}  // namespace adq::core
