#pragma once
/// \file power.h
/// \brief Power analysis: leakage + activity-annotated dynamic.
///
/// Reproduces the PrimeTime power step of the paper's optimization
/// phase: "feasible configurations are analyzed for power, taking
/// into account both leakage and dynamic components", with switching
/// activity annotated from simulation traces.
///
/// Model:
///   P_dyn  = sum_nets  rate * C_net * VDD^2 * f
///          + sum_cells rate_out * E_int * VDD^2 * f
///          + sum_regs  C_clkpin * VDD^2 * f          (clock tree)
///   P_leak = sum_cells VDD * I0 * w_leak * exp(-Vth(bias)/n vT)
///
/// Dynamic power is independent of the per-domain bias assignment, so
/// the explorer can precompute one "switched energy per cycle at 1 V"
/// scalar per accuracy mode; leakage reduces to per-domain leakage
/// weight sums. Both reductions are exposed here.

#include <vector>

#include "netlist/case_analysis.h"
#include "netlist/netlist.h"
#include "place/wirelength.h"
#include "sim/activity.h"
#include "tech/cell_library.h"

namespace adq::power {

struct PowerBreakdown {
  double dynamic_w = 0.0;
  double leakage_w = 0.0;
  double total_w() const { return dynamic_w + leakage_w; }
};

class PowerModel {
 public:
  PowerModel(const netlist::Netlist& nl, const tech::CellLibrary& lib,
             const place::NetLoads& loads);

  void SetLoads(const place::NetLoads& loads) { loads_ = &loads; }

  /// Effective switched energy per clock cycle at VDD = 1 V [fJ]:
  /// net cap + internal energy + clock pins, annotated with `act`.
  /// Dynamic power then is E * VDD^2 * f_GHz * 1e-6 [W].
  double SwitchedEnergyPerCycleFj(const sim::ActivityProfile& act) const;

  /// Full leakage scan for an arbitrary per-instance bias assignment
  /// (empty = all NoBB).
  double LeakageW(double vdd,
                  const std::vector<tech::BiasState>& bias_of_inst) const;

  /// Leakage of the cells a mode's constant propagation quiesces —
  /// every output net proven constant under `ca`, so the cell can
  /// never toggle in the mode. This is the leakage of logic the
  /// accuracy mode disabled: the static headroom the RBB sleep pass
  /// (ExploreOptions::enable_rbb_sleep) reclaims. Always <= LeakageW
  /// at the same operating point.
  double QuiescedLeakageW(
      const netlist::CaseAnalysis& ca, double vdd,
      const std::vector<tech::BiasState>& bias_of_inst) const;

  /// Per-domain leakage weight sums (for O(#domains) leakage in the
  /// explorer). domain_of maps instance -> domain in [0, ndom).
  std::vector<double> LeakWeightByDomain(const std::vector<int>& domain_of,
                                         int ndom) const;

  /// Leakage power of a domain weight at an operating point.
  double DomainLeakageW(double weight, double vdd,
                        tech::BiasState bias) const {
    return lib_.leakage_model().Power(weight, vdd, lib_.Vth(bias));
  }

  /// Complete breakdown at one operating point.
  PowerBreakdown Analyze(double vdd, double f_ghz,
                         const sim::ActivityProfile& act,
                         const std::vector<tech::BiasState>& bias) const;

  static double DynamicW(double energy_fj, double vdd, double f_ghz) {
    return energy_fj * vdd * vdd * f_ghz * 1e-6;
  }

 private:
  const netlist::Netlist& nl_;
  const tech::CellLibrary& lib_;
  const place::NetLoads* loads_;
};

}  // namespace adq::power
