#pragma once
/// \file controller.h
/// \brief Runtime back-bias controller model.
///
/// The paper's hardware story (Sec. III): two DC-DC converters
/// (charge pumps) generate the FBB well voltages; per-domain power
/// switches connect each domain's wells either to the pumps or to
/// ground. Accuracy selection is an external control signal; this
/// class is the lookup logic that turns a requested accuracy mode
/// into the knob setting found by the exploration, and it accounts a
/// simple mode-switch energy cost (well capacitance charging).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/explore.h"
#include "lint/lint.h"

namespace adq::core {

/// Knob state for one accuracy mode.
struct KnobSetting {
  int bitwidth = 0;
  double vdd = 0.0;
  tech::DomainMask fbb_mask = 0;  ///< bit d: domain d on the forward pumps
  double power_w = 0.0;
};

class RuntimeController {
 public:
  /// Builds the mode table from an exploration result.
  /// \param well_cap_ff_per_domain  deep-N-well capacitance charged
  ///        when a domain toggles between NoBB and FBB.
  /// \param fbb_voltage_v           pump output (paper: 1.1 V).
  RuntimeController(const ExplorationResult& result,
                    double well_cap_ff_per_domain = 500.0,
                    double fbb_voltage_v = 1.1);

  /// The configuration for an accuracy mode, if one exists.
  std::optional<KnobSetting> Configure(int bitwidth) const;

  /// Energy to switch between two modes [fJ]: well charging of every
  /// domain whose bias changes (popcount of the mask XOR).
  double SwitchEnergyFj(int from_bitwidth, int to_bitwidth) const;

  /// Supported (configurable) accuracy modes, ascending.
  std::vector<int> SupportedModes() const;

  /// Human-readable mode table.
  std::string RenderTable() const;

  /// Checks the programmed schedule for consistency (lint rules
  /// FL004 bias-mask width, MD001 VDD/bitwidth schedule): masks must
  /// fit the domain count, bitwidths unique and within the operator's
  /// data width, power monotone.
  lint::LintReport Lint(int num_domains, int data_width) const;

 private:
  std::vector<KnobSetting> table_;
  double well_cap_ff_;
  double fbb_voltage_v_;
};

}  // namespace adq::core
