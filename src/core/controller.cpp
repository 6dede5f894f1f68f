#include "core/controller.h"

#include <bit>
#include <sstream>

#include "util/table.h"

namespace adq::core {

RuntimeController::RuntimeController(const ExplorationResult& result,
                                     double well_cap_ff_per_domain,
                                     double fbb_voltage_v)
    : well_cap_ff_(well_cap_ff_per_domain), fbb_voltage_v_(fbb_voltage_v) {
  for (const ModeResult& m : result.modes) {
    if (!m.has_solution) continue;
    table_.push_back(KnobSetting{m.bitwidth, m.best.vdd, m.best.mask,
                                 m.best.total_power_w()});
  }
}

std::optional<KnobSetting> RuntimeController::Configure(int bitwidth) const {
  for (const KnobSetting& k : table_)
    if (k.bitwidth == bitwidth) return k;
  return std::nullopt;
}

double RuntimeController::SwitchEnergyFj(int from_bitwidth,
                                         int to_bitwidth) const {
  const auto a = Configure(from_bitwidth);
  const auto b = Configure(to_bitwidth);
  if (!a || !b) return 0.0;
  // Any domain whose well voltage changes is re-charged: E = C * V^2
  // per such domain.
  const int flipped = std::popcount(a->fbb_mask ^ b->fbb_mask);
  return flipped * well_cap_ff_ * fbb_voltage_v_ * fbb_voltage_v_;
}

std::vector<int> RuntimeController::SupportedModes() const {
  std::vector<int> modes;
  for (const KnobSetting& k : table_) modes.push_back(k.bitwidth);
  return modes;
}

std::string RuntimeController::RenderTable() const {
  util::Table t({"bits", "VDD [V]", "FBB mask", "power [W]"});
  for (const KnobSetting& k : table_) {
    std::ostringstream mask;
    mask << "0b";
    for (int d = tech::kMaxDomains - 1; d >= 0; --d)
      if (k.fbb_mask >> d) {
        for (int e = d; e >= 0; --e) mask << ((k.fbb_mask >> e) & 1u);
        break;
      }
    if (k.fbb_mask == 0) mask << '0';
    t.AddRow({std::to_string(k.bitwidth), util::Table::Num(k.vdd, 1),
              mask.str(), util::Table::Sci(k.power_w, 3)});
  }
  return t.Render();
}

lint::LintReport RuntimeController::Lint(int num_domains,
                                         int data_width) const {
  std::vector<lint::ModeEntry> modes;
  modes.reserve(table_.size());
  for (const KnobSetting& k : table_)
    modes.push_back(
        lint::ModeEntry{k.bitwidth, k.vdd, k.fbb_mask, k.power_w});
  return lint::LintModeTable("mode-table", modes, num_domains, data_width);
}

}  // namespace adq::core
