#pragma once
/// \file lint.h
/// \brief adq_lint — static analyzer over netlists and flow artifacts.
///
/// The implementation flow (core::Flow) only produces meaningful STA
/// and power numbers if every transform — generation, buffering,
/// sizing, Vth-domain insertion, incremental placement — preserves
/// the structural invariants of the netlist and of the back-bias
/// domain grid. This module verifies those invariants statically,
/// after the fact, the way production netlist tools re-check the
/// design between flow stages:
///
///   LintNetlist    structural DRC on any netlist::Netlist
///                  (multi-driven nets, floating inputs, dangling
///                  outputs, combinational loops with the cycle
///                  printed, pin-arity vs tech:: definitions,
///                  unreachable cones, fanout ceilings, bus/port
///                  bookkeeping);
///   LintFlow       flow-artifact invariants (every placed cell in
///                  exactly one domain, cells inside their domain
///                  tile, guardband spacing between tiles, bias-mask
///                  width vs domain count, registered-I/O timing
///                  constraint discipline);
///   LintModeTable  runtime-knob schedule consistency (bitwidth /
///                  VDD / mask sanity, power monotonicity).
///
/// Reports mirror their totals into obs metrics (lint.reports,
/// lint.errors, lint.warnings) so violation counts appear in every
/// --metrics snapshot. EnforceGate applies the flow's --lint policy.
///
/// Layering: adq_lint sits above netlist/tech/place and below core —
/// core::Flow calls it between phases, so this library must not
/// depend on core types. Flow-artifact checks therefore take the raw
/// place:: artifacts, and the mode-table check takes a plain
/// ModeEntry list that core adapts its ExplorationResult into.

#include <cstdint>
#include <string>
#include <vector>

#include "lint/diagnostics.h"
#include "lint/rules.h"
#include "netlist/case_analysis.h"
#include "netlist/netlist.h"
#include "place/grid_partition.h"
#include "tech/cell_library.h"

namespace adq::lint {

struct LintOptions {
  /// NL007 fanout ceiling; 0 disables the rule. The flow sets this to
  /// the buffering pass's max_fanout once buffer trees exist.
  int max_fanout = 0;
  /// Rule ids or names to skip (e.g. {"NL006", "net-dangling-output"}).
  std::vector<std::string> disabled;
  /// Findings reported per rule before the remainder is folded into
  /// one "... and N more" summary diagnostic (keeps reports bounded
  /// on pathological netlists).
  int max_diags_per_rule = 16;
  /// Optional per-mode constant propagation consumed by NL006. A net
  /// proven constant under the analyzed accuracy mode carries no
  /// events, so liveness does not propagate through it: NL006 then
  /// reports *mode-dead* cones — cells that reach a primary output
  /// only through constant nets (the logic the mode quiesces). Null
  /// (the default) keeps the structural meaning: dead under every
  /// mode. The caller owns the CaseAnalysis and must keep it alive
  /// across the lint call.
  const netlist::CaseAnalysis* case_analysis = nullptr;

  bool RuleEnabled(const char* id) const;
};

/// Structural netlist DRC (rules NL001..NL008).
LintReport LintNetlist(const netlist::Netlist& nl,
                       const LintOptions& opt = {});

/// Flow artifacts a post-phase lint gate checks. Pointers may be null
/// when a stage has not produced the artifact yet; the corresponding
/// rules are skipped.
struct FlowArtifacts {
  const place::Placement* placement = nullptr;
  const place::GridPartition* partition = nullptr;
  double clock_ns = 0.0;  ///< 0 skips the clock sanity check
};

/// Flow-level invariants (rules FL001..FL004, ST001).
LintReport LintFlow(const netlist::Netlist& nl, const tech::CellLibrary& lib,
                    const FlowArtifacts& art, const LintOptions& opt = {});

/// One runtime accuracy mode, as the controller will program it.
/// core adapts its ExplorationResult / KnobSetting into this POD.
struct ModeEntry {
  int bitwidth = 0;
  double vdd = 0.0;
  tech::DomainMask fbb_mask = 0;
  double power_w = 0.0;
};

/// Mode-table consistency (rules MD001, FL004).
LintReport LintModeTable(const std::string& subject,
                         const std::vector<ModeEntry>& modes,
                         int num_domains, int data_width,
                         const LintOptions& opt = {});

/// Flow gate policy (FlowOptions::lint, domain_explorer --lint=).
enum class LintGate {
  kOff,   ///< do not lint
  kWarn,  ///< report every finding on stderr, never fail
  kError, ///< throw CheckError when the report has errors
};

/// Applies the gate policy to a report: kWarn prints non-empty
/// reports to stderr; kError throws adq::CheckError (listing every
/// finding) when report.clean() is false. Warnings never throw.
void EnforceGate(const LintReport& report, LintGate gate);

}  // namespace adq::lint
