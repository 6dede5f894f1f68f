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
///
/// CaseAnalyses runs up to 64 forced sets in one dual-rail sweep over
/// the netlist's CellTape: each net holds a "can be 0" and a "can be
/// 1" word with one lane per set, and a cell's output rail is the OR,
/// over the kind's truth-table minterms with that output value, of the
/// AND of the inputs' matching rails. An output is thus constant only
/// if every boolean completion of its X inputs agrees.

#include <span>
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
  /// Propagates `forced` port constants to a fixpoint: the one-set
  /// case of CaseAnalyses.
  CaseAnalysis(const Netlist& nl, const std::vector<ForcedValue>& forced);

  LogicV Value(NetId n) const { return values_[n.index()]; }
  bool IsConstant(NetId n) const { return Value(n) != LogicV::kX; }

  /// Number of nets proven constant.
  std::size_t num_constant() const { return num_constant_; }

  /// Bit n of word n / 64 is set iff net n is constant: the part of
  /// the analysis that decides which timing arcs are disabled.
  std::span<const std::uint64_t> constant_bits() const {
    return constant_bits_;
  }

  /// 64-bit FNV digest of the resolved per-net values, computed once
  /// at construction. Equal analyses have equal digests; unequal ones
  /// can collide, so the digest only narrows a lookup that a full
  /// comparison then confirms. sta::TimingAnalyzer looks its cached
  /// sweep schedules up this way, confirming with constant_bits()
  /// (object addresses are unreliable: a stack-allocated analysis can
  /// reuse the address of a destroyed one).
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  CaseAnalysis() = default;
  friend std::vector<CaseAnalysis> CaseAnalyses(
      const Netlist& nl, std::span<const std::vector<ForcedValue>> sets);

  std::vector<LogicV> values_;
  std::vector<std::uint64_t> constant_bits_;
  std::size_t num_constant_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// The case analysis of each forced set, equal to CaseAnalysis(nl,
/// sets[i]); 64 sets share one sweep. Each counts as one build in
/// `netlist.case_analysis_builds`.
std::vector<CaseAnalysis> CaseAnalyses(
    const Netlist& nl, std::span<const std::vector<ForcedValue>> sets);

}  // namespace adq::netlist
