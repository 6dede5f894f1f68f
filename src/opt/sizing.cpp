#include "opt/sizing.h"

#include <algorithm>
#include <array>

#include "obs/metrics.h"
#include "sta/sta.h"

namespace adq::opt {

using netlist::InstId;
using netlist::NetId;
using netlist::Netlist;
using tech::DriveStrength;

namespace {

/// Per instance, its outputs then inputs, padded with its first output
/// so folds run without pin-count branches. A min or max fold is
/// unchanged by a repeat, so they equal the per-pin loops bit for bit.
constexpr int kOuts = tech::kMaxCellOutputs;
using PinNets = std::array<std::uint32_t, kOuts + tech::kMaxCellInputs>;
std::vector<PinNets> PinNetTable(const Netlist& nl) {
  std::vector<PinNets> table(nl.num_instances());
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instances()[i];
    table[i].fill(inst.out[0].value);
    for (int o = 0; o < inst.num_outputs(); ++o)
      table[i][o] = inst.out[o].value;
    for (int p = 0; p < inst.num_inputs(); ++p)
      table[i][kOuts + p] = inst.in[p].value;
  }
  return table;
}

/// Worst slack over an instance's pins (its "through" slack), from
/// per-net slacks that read +inf on inactive nets, the identity of the
/// min fold.
double InstSlack(const PinNets& pins, const std::vector<double>& net_slack) {
  double slack = std::numeric_limits<double>::infinity();
  for (const std::uint32_t n : pins) slack = std::min(slack, net_slack[n]);
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
  const std::vector<PinNets> pin_nets = PinNetTable(nl);
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
  // into the per-net slack every instance scan reads. Recovery keeps
  // the previous pass's analysis in `saved` to swap back on a revert.
  sta::TimingAnalyzer::DetailedTiming dt, saved_dt;
  std::vector<double> net_slack(nl.num_nets()), saved_slack(nl.num_nets());
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
      if (InstSlack(pin_nets[i], net_slack) < 0.0) {
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
  // One analysis per pass: that of the moved state is the check and,
  // on success, the next pass's input (phase 1 ended on one). A revert
  // plus refresh_loads restores the delay rows bit for bit, so the
  // previous analysis is swapped back.
  if (opt.enable_recovery && met) {
    const long budget = static_cast<long>(
        opt.recovery_steps_per_cell * static_cast<double>(nl.num_instances()));
    int k = std::max<int>(16, static_cast<int>(nl.num_instances()) / 8);
    static obs::Counter& passes = obs::GetCounter("opt.recovery_passes");
    static obs::Counter& reverts = obs::GetCounter("opt.recovery_reverts");
    // Per (kind, drive): the unscaled d0 and kd steps of one downsize;
    // an infinite d0 (ties, the weakest drive) fits no finite slack.
    std::pair<double, double> step[tech::kNumCellKinds][tech::kNumDrives];
    for (int c = 0; c < tech::kNumCellKinds; ++c)
      for (int d = 0; d < tech::kNumDrives; ++d) {
        const auto kind = static_cast<tech::CellKind>(c);
        const auto drive = static_cast<DriveStrength>(d);
        step[c][d] = {std::numeric_limits<double>::infinity(), 0.0};
        if (tech::IsTie(kind) || !CanDownsize(drive)) continue;
        const tech::CellVariant& cur = lib.Variant(kind, drive);
        const tech::CellVariant& dn = lib.Variant(kind, Down(drive));
        step[c][d] = {dn.d0_ns - cur.d0_ns, dn.kd_ns_per_ff - cur.kd_ns_per_ff};
      }
    std::vector<std::pair<double, std::uint32_t>> cand(nl.num_instances());
    for (int pass = 0; pass < 16 * opt.max_iterations && k >= 8 &&
                       res.downsize_moves < budget;
         ++pass) {
      // Candidates: downsizable cells whose estimated self-delay
      // increase fits within their slack minus the margin.
      std::size_t num_cand = 0;
      for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
        const netlist::Instance& inst = nl.instances()[i];
        const double slack = InstSlack(pin_nets[i], net_slack);
        double worst_load = 0.0;
        for (int o = 0; o < kOuts; ++o)
          worst_load = std::max(worst_load, loads.cap_ff[pin_nets[i][o]]);
        const auto [d0, kd] = step[static_cast<int>(inst.kind)]
                                  [static_cast<int>(inst.drive)];
        const double delta = (d0 + kd * worst_load) * scale;
        cand[num_cand] = {slack, i};
        num_cand += static_cast<std::size_t>(
            (slack != std::numeric_limits<double>::infinity()) &
            (delta <= slack - opt.recovery_margin_ns));
      }
      if (num_cand == 0) break;
      // The full sort, not a partial one: its order among equal slacks
      // picks the downsized set.
      std::sort(cand.begin(), cand.begin() + static_cast<long>(num_cand),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      const int take = std::min<int>(k, static_cast<int>(num_cand));
      moved.clear();
      for (int t = 0; t < take; ++t) {
        const std::uint32_t i = cand[static_cast<std::size_t>(t)].second;
        nl.SetDrive(InstId(i), Down(nl.instances()[i].drive));
        moved.push_back(i);
      }
      refresh_loads();
      passes.Add();
      std::swap(dt, saved_dt);
      net_slack.swap(saved_slack);
      analyze_detailed();
      if (dt.num_violations == 0) {
        res.downsize_moves += take;
      } else {
        reverts.Add();
        for (const std::uint32_t i : moved)
          nl.SetDrive(InstId(i), Up(nl.instances()[i].drive));
        refresh_loads();
        std::swap(dt, saved_dt);
        net_slack.swap(saved_slack);
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
