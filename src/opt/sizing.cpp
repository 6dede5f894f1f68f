#include "opt/sizing.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sta/sta.h"

namespace adq::opt {

using netlist::InstId;
using netlist::NetId;
using netlist::Netlist;
using tech::DriveStrength;

namespace {

/// Worst slack over an instance's pins (its "through" slack), from
/// per-net slacks that read +inf on inactive nets, the identity of the
/// min fold.
double InstSlack(const Netlist& nl, const std::vector<double>& net_slack,
                 std::uint32_t i) {
  const netlist::Instance& inst = nl.instances()[i];
  double slack = std::numeric_limits<double>::infinity();
  for (int o = 0; o < inst.num_outputs(); ++o)
    slack = std::min(slack, net_slack[inst.out[o].index()]);
  for (int p = 0; p < inst.num_inputs(); ++p)
    slack = std::min(slack, net_slack[inst.in[p].index()]);
  return slack;
}

bool CanUpsize(DriveStrength d) { return d != DriveStrength::kX4; }
bool CanDownsize(DriveStrength d) { return d != DriveStrength::kX0P25; }
DriveStrength Up(DriveStrength d) {
  return static_cast<DriveStrength>(static_cast<int>(d) + 1);
}
DriveStrength Down(DriveStrength d) {
  return static_cast<DriveStrength>(static_cast<int>(d) - 1);
}

}  // namespace

SizingResult OptimizeSizing(Netlist& nl, const tech::CellLibrary& lib,
                            const place::NetWires& wires,
                            const SizingOptions& opt) {
  SizingResult res;
  const std::vector<tech::BiasState> bias(nl.num_instances(),
                                          kImplementationCorner);
  const double scale = lib.DelayScale(opt.vdd, kImplementationCorner);

  place::NetLoads loads = place::ComputeLoads(nl, lib, wires);
  sta::TimingAnalyzer analyzer(nl, lib, loads);
  // Cells resized since the last refresh; a drive change moves only
  // the pin caps on the cell's input nets.
  std::vector<std::uint32_t> moved;
  const auto refresh_loads = [&] {
    for (const std::uint32_t i : moved) {
      const netlist::Instance& inst = nl.instances()[i];
      for (int p = 0; p < inst.num_inputs(); ++p)
        place::UpdateNetLoad(nl, lib, wires, inst.in[p], &loads);
    }
    analyzer.UpdateLoads(loads, moved);
  };
  // One detailed analysis per pass into reused buffers, folded once
  // into the per-net slack every instance scan reads.
  sta::TimingAnalyzer::DetailedTiming dt;
  std::vector<double> net_slack(nl.num_nets());
  const auto analyze_detailed = [&] {
    analyzer.AnalyzeDetailed(opt.vdd, opt.clock_ns, bias, nullptr, &dt);
    for (std::uint32_t n = 0; n < nl.num_nets(); ++n)
      net_slack[n] = dt.ActiveNet(NetId(n))
                         ? dt.SlackOf(NetId(n))
                         : std::numeric_limits<double>::infinity();
  };

  // ---- Phase 1: upsize until the clock is met (or sizes saturate).
  bool met = false;
  for (; res.iterations < opt.max_iterations; ++res.iterations) {
    analyze_detailed();
    if (dt.wns_ns >= 0.0) {
      met = true;
      break;
    }
    moved.clear();
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
      const netlist::Instance& inst = nl.instances()[i];
      if (tech::IsTie(inst.kind)) continue;
      if (!CanUpsize(inst.drive)) continue;
      if (InstSlack(nl, net_slack, i) < 0.0) {
        nl.SetDrive(InstId(i), Up(inst.drive));
        moved.push_back(i);
      }
    }
    if (moved.empty()) break;  // saturated; timing unreachable
    res.upsize_moves += static_cast<int>(moved.size());
    refresh_loads();
  }

  // ---- Phase 2: power recovery on slack paths (wall of slack).
  // Guarded greedy: tentatively downsize the K highest-slack
  // candidates, verify by STA, and *revert exactly those moves* on a
  // violation (then halve K). Timing is never left broken and the
  // final state is a monotone descent — no up/down churn, so the
  // flat and partitioned variants of a design converge to comparable
  // sizing states.
  if (opt.enable_recovery && met) {
    const long budget = static_cast<long>(
        opt.recovery_steps_per_cell * static_cast<double>(nl.num_instances()));
    int k = std::max<int>(16, static_cast<int>(nl.num_instances()) / 8);
    static obs::Counter& passes = obs::GetCounter("opt.recovery_passes");
    static obs::Counter& reverts = obs::GetCounter("opt.recovery_reverts");
    std::vector<std::pair<double, std::uint32_t>> cand;  // (slack, id)
    for (int pass = 0; pass < 16 * opt.max_iterations && k >= 8 &&
                       res.downsize_moves < budget;
         ++pass) {
      analyze_detailed();
      // Candidates: downsizable cells whose estimated self-delay
      // increase fits within their slack minus the margin.
      cand.clear();
      for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
        const netlist::Instance& inst = nl.instances()[i];
        if (tech::IsTie(inst.kind)) continue;
        if (!CanDownsize(inst.drive)) continue;
        const double slack = InstSlack(nl, net_slack, i);
        if (slack == std::numeric_limits<double>::infinity()) continue;
        const tech::CellVariant& cur = lib.Variant(inst.kind, inst.drive);
        const tech::CellVariant& dn =
            lib.Variant(inst.kind, Down(inst.drive));
        double worst_load = 0.0;
        for (int o = 0; o < inst.num_outputs(); ++o)
          worst_load =
              std::max(worst_load, loads.cap_ff[inst.out[o].index()]);
        const double delta =
            ((dn.d0_ns - cur.d0_ns) +
             (dn.kd_ns_per_ff - cur.kd_ns_per_ff) * worst_load) *
            scale;
        if (delta <= slack - opt.recovery_margin_ns) cand.push_back({slack, i});
      }
      if (cand.empty()) break;
      std::sort(cand.begin(), cand.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      const int take = std::min<int>(k, static_cast<int>(cand.size()));
      moved.clear();
      for (int t = 0; t < take; ++t) {
        const std::uint32_t i = cand[static_cast<std::size_t>(t)].second;
        nl.SetDrive(InstId(i), Down(nl.instances()[i].drive));
        moved.push_back(i);
      }
      refresh_loads();
      passes.Add();
      const auto check = analyzer.Analyze(opt.vdd, opt.clock_ns, bias);
      if (check.feasible()) {
        res.downsize_moves += take;
      } else {
        reverts.Add();
        for (const std::uint32_t i : moved)
          nl.SetDrive(InstId(i), Up(nl.instances()[i].drive));
        refresh_loads();
        k /= 2;
      }
    }
  }

  const auto final_rep = analyzer.Analyze(opt.vdd, opt.clock_ns, bias);
  res.wns_ns = final_rep.wns_ns;
  res.timing_met = final_rep.feasible();
  return res;
}

}  // namespace adq::opt
