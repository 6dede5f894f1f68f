#include "lint/rules.h"

namespace adq::lint {

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {kRuleMultiDriver, "net-multi-driver", Severity::kError,
       "net driven by more than one cell output pin, or a driven "
       "primary input"},
      {kRuleUndrivenNet, "net-undriven", Severity::kError,
       "net with sinks but no driver: not a cell output, primary "
       "input or tie"},
      {kRuleDanglingOutput, "net-dangling-output", Severity::kWarning,
       "cell output net with no sinks that is not a primary output"},
      {kRuleCombLoop, "comb-loop", Severity::kError,
       "combinational cycle (a loop not cut by a register)"},
      {kRulePinArity, "pin-arity", Severity::kError,
       "instance pin table inconsistent with the tech:: cell "
       "definition (missing/extra pins, stale back-references)"},
      {kRuleDeadCone, "dead-cone", Severity::kWarning,
       "logic cone that reaches no primary output or register"},
      {kRuleFanoutCeiling, "fanout-ceiling", Severity::kWarning,
       "net fanout above the configured ceiling (tie cells exempt)"},
      {kRulePortBus, "port-bus", Severity::kError,
       "bus/port bookkeeping broken: empty or duplicate bus, bus bit "
       "that is not a port, duplicate port name"},
      {kRuleDomainCoverage, "domain-coverage", Severity::kError,
       "placed cell not covered by exactly one back-bias domain"},
      {kRuleTileContainment, "tile-containment", Severity::kError,
       "cell legalized outside its Vth-domain tile (straddles a "
       "domain boundary)"},
      {kRuleGuardbandOverlap, "guardband-overlap", Severity::kError,
       "domain tiles overlap, violate the guardband spacing, or "
       "leave the enlarged die"},
      {kRuleMaskWidth, "bias-mask-width", Severity::kError,
       "bias-mask width inconsistent with the domain count"},
      {kRuleEndpointConstraint, "endpoint-constraint", Severity::kError,
       "constraint-free timing endpoint: unregistered primary I/O or "
       "a non-positive clock"},
      {kRuleModeSchedule, "mode-schedule", Severity::kWarning,
       "VDD/bitwidth schedule inconsistency in the runtime mode "
       "table"},
  };
  return kRules;
}

const RuleInfo* FindRule(std::string_view id_or_name) {
  for (const RuleInfo& r : AllRules())
    if (id_or_name == r.id || id_or_name == r.name) return &r;
  return nullptr;
}

}  // namespace adq::lint
