#pragma once
/// \file rules.h
/// \brief Registry of adq_lint rules: stable ids, default severities
/// and one-line descriptions.
///
/// Rule ids are stable API — tests pin them, JSON reports carry them,
/// and LintOptions::disabled refers to them. Families:
///
///   NL0xx  structural netlist rules (any netlist::Netlist)
///   FL0xx  flow-artifact rules (placement / Vth-domain partition)
///   ST0xx  STA-sanity rules (constraint discipline)
///   MD0xx  mode-table rules (runtime knob schedule)

#include <string_view>
#include <vector>

#include "lint/diagnostics.h"

namespace adq::lint {

struct RuleInfo {
  const char* id;          ///< stable id, e.g. "NL001"
  const char* name;        ///< short kebab-case name
  Severity severity;       ///< default severity
  const char* description;
};

/// Every registered rule, in id order.
const std::vector<RuleInfo>& AllRules();

/// Lookup by id or name; nullptr if unknown.
const RuleInfo* FindRule(std::string_view id_or_name);

// Stable rule ids (referenced by checks, tests and docs).
inline constexpr const char* kRuleMultiDriver = "NL001";
inline constexpr const char* kRuleUndrivenNet = "NL002";
inline constexpr const char* kRuleDanglingOutput = "NL003";
inline constexpr const char* kRuleCombLoop = "NL004";
inline constexpr const char* kRulePinArity = "NL005";
inline constexpr const char* kRuleDeadCone = "NL006";
inline constexpr const char* kRuleFanoutCeiling = "NL007";
inline constexpr const char* kRulePortBus = "NL008";
inline constexpr const char* kRuleDomainCoverage = "FL001";
inline constexpr const char* kRuleTileContainment = "FL002";
inline constexpr const char* kRuleGuardbandOverlap = "FL003";
inline constexpr const char* kRuleMaskWidth = "FL004";
inline constexpr const char* kRuleEndpointConstraint = "ST001";
inline constexpr const char* kRuleModeSchedule = "MD001";

}  // namespace adq::lint
