#pragma once
/// \file case_analysis.h
/// \brief Three-valued constant propagation (STA "case analysis").
///
/// Runtime accuracy scaling clamps input LSBs to zero (paper Sec.
/// III-A). Timing paths sourced by those constants are *disabled*
/// (set (1) in the paper's Fig. 2) and must be excluded from timing
/// and from the feasibility filter of the design-space exploration.
/// This module propagates forced port constants through the gate
/// network — including through registers, to a fixpoint — producing a
/// per-net value in {0, 1, X}. Any net that resolves to a constant
/// carries no transitions, so every timing arc touching it is dead.
///
/// Conservatism: iteration is bounded; a register value that cannot be
/// proven stable stays X. Unproven constants only make timing more
/// pessimistic (more active paths), never optimistic — the safe side.

#include <vector>

#include "netlist/netlist.h"

namespace adq::netlist {

enum class LogicV : std::uint8_t { kZero = 0, kOne = 1, kX = 2 };

inline LogicV FromBool(bool b) { return b ? LogicV::kOne : LogicV::kZero; }

/// One forced primary-input value (the accuracy control interface:
/// "this operand bit is clamped to 0 in the selected mode").
struct ForcedValue {
  NetId net;
  bool value = false;
};

/// Result of case analysis over a netlist.
class CaseAnalysis {
 public:
  /// Propagates `forced` port constants to a fixpoint.
  CaseAnalysis(const Netlist& nl, const std::vector<ForcedValue>& forced);

  LogicV Value(NetId n) const { return values_[n.index()]; }
  bool IsConstant(NetId n) const { return Value(n) != LogicV::kX; }

  /// Number of nets proven constant.
  std::size_t num_constant() const { return num_constant_; }

  /// Content digest of the resolved per-net values, computed once at
  /// construction. Two analyses with equal digests disable the same
  /// nets — the identity sta::TimingAnalyzer keys its cached sweep
  /// schedules on (object addresses are unreliable: a stack-allocated
  /// analysis can reuse the address of a destroyed one).
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  std::vector<LogicV> values_;
  std::size_t num_constant_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Evaluates one cell in three-valued logic: an output is a constant
/// only if every boolean completion of the X inputs agrees on it. Looks
/// the outputs up in a per-kind 27-entry {0,1,X}^3 table built once
/// from tech::Evaluate. Exposed for testing.
void Evaluate3(tech::CellKind kind, const LogicV* in, LogicV* out);

}  // namespace adq::netlist
