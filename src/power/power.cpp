#include "power/power.h"

#include "obs/metrics.h"

namespace adq::power {

using netlist::NetId;
using tech::BiasState;

PowerModel::PowerModel(const netlist::Netlist& nl,
                       const tech::CellLibrary& lib,
                       const place::NetLoads& loads)
    : nl_(nl), lib_(lib), loads_(&loads) {}

double PowerModel::SwitchedEnergyPerCycleFj(
    const sim::ActivityProfile& act) const {
  ADQ_CHECK(act.toggle_rate.size() == nl_.num_nets());
  static obs::Counter& scans = obs::GetCounter("power.energy_scans");
  scans.Add();
  double energy = 0.0;
  // Net (wire + pin) capacitance switching: E = rate * C * 1V^2 [fJ].
  for (std::uint32_t n = 0; n < nl_.num_nets(); ++n)
    energy += act.toggle_rate[n] * loads_->cap_ff[n];
  // Cell-internal energy per output toggle + register clock pins
  // (the clock toggles every cycle regardless of data activity).
  for (const netlist::Instance& inst : nl_.instances()) {
    const tech::CellVariant& v = lib_.Variant(inst.kind, inst.drive);
    for (int o = 0; o < inst.num_outputs(); ++o)
      energy += act.toggle_rate[inst.out[o].index()] * v.e_int_fj;
    if (inst.is_sequential()) energy += v.cap_clk_ff;
  }
  return energy;
}

double PowerModel::LeakageW(
    double vdd, const std::vector<BiasState>& bias_of_inst) const {
  ADQ_CHECK(bias_of_inst.empty() ||
            bias_of_inst.size() == nl_.num_instances());
  static obs::Counter& scans = obs::GetCounter("power.leakage_scans");
  scans.Add();
  double leak = 0.0;
  for (std::uint32_t i = 0; i < nl_.num_instances(); ++i) {
    const netlist::Instance& inst = nl_.instances()[i];
    const BiasState b =
        bias_of_inst.empty() ? BiasState::kNoBB : bias_of_inst[i];
    leak += lib_.LeakagePower(inst.kind, inst.drive, vdd, b);
  }
  return leak;
}

std::vector<double> PowerModel::LeakWeightByDomain(
    const std::vector<int>& domain_of, int ndom) const {
  ADQ_CHECK(domain_of.size() == nl_.num_instances());
  ADQ_CHECK(ndom >= 1);
  std::vector<double> weights(static_cast<std::size_t>(ndom), 0.0);
  for (std::uint32_t i = 0; i < nl_.num_instances(); ++i) {
    const netlist::Instance& inst = nl_.instances()[i];
    const int d = domain_of[i];
    ADQ_CHECK(d >= 0 && d < ndom);
    weights[static_cast<std::size_t>(d)] +=
        lib_.Variant(inst.kind, inst.drive).leak_weight;
  }
  return weights;
}

PowerBreakdown PowerModel::Analyze(
    double vdd, double f_ghz, const sim::ActivityProfile& act,
    const std::vector<BiasState>& bias) const {
  PowerBreakdown pb;
  pb.dynamic_w = DynamicW(SwitchedEnergyPerCycleFj(act), vdd, f_ghz);
  pb.leakage_w = LeakageW(vdd, bias);
  return pb;
}

}  // namespace adq::power
