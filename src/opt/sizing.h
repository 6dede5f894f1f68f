#pragma once
/// \file sizing.h
/// \brief Timing-driven gate sizing with power recovery.
///
/// Stand-in for the synthesis-tool optimization the paper relies on
/// (Synopsys DC + Innovus incremental optimization). Two phases:
///
///  1. *Timing fix*: cells on violating paths are upsized (stronger
///     drive, lower load sensitivity) until the target clock is met
///     at the characterization corner (FBB, nominal VDD — the paper
///     implements with an all-FBB library, Sec. IV-A).
///  2. *Power recovery*: cells with comfortable slack are downsized
///     (weaker, frugal variants), consuming the spare slack.
///
/// Phase 2 is what produces the **wall of slack** (paper Fig. 1 and
/// [15]): after recovery, previously-fast paths have delays pushed
/// toward the critical one, which is precisely the phenomenon that
/// breaks plain DVAS and motivates per-domain back-bias.

#include "netlist/netlist.h"
#include "place/wirelength.h"
#include "tech/cell_library.h"

namespace adq::opt {

/// Characterization corner for implementation: the paper
/// characterizes all cells in FBB during the first P&R (Sec. IV-A).
inline constexpr tech::BiasState kImplementationCorner =
    tech::BiasState::kFBB;

struct SizingOptions {
  double clock_ns = 1.0;
  double vdd = tech::CellLibrary::kVddNominal;
  int max_iterations = 60;
  /// Slack a cell must retain after a downsize move [ns].
  double recovery_margin_ns = 0.010;
  bool enable_recovery = true;
  /// Recovery move budget in downsize steps per cell. Commercial
  /// multi-Vt/area recovery is coarse-grained and stops at
  /// diminishing returns, leaving a *gradient* of leftover slack
  /// (the soft wall of the paper's Fig. 1a) rather than grinding
  /// every path exactly to the margin. The budget emulates that:
  /// the highest-slack cells are recovered first; when the budget is
  /// spent, mid-slack paths keep part of their margin.
  double recovery_steps_per_cell = 1.2;
};

struct SizingResult {
  int upsize_moves = 0;
  int downsize_moves = 0;
  int iterations = 0;
  double wns_ns = 0.0;
  bool timing_met = false;
};

/// Optimizes drive strengths in place. Loads come from `wires`
/// (place::FanoutWires before placement, place::PlacedWires after);
/// after each batch of moves only the input nets of the resized cells
/// are recomputed, since a drive change moves pin caps only, and the
/// timing analyzer rewrites only the delay rows they feed
/// (sta::TimingAnalyzer::UpdateLoads).
SizingResult OptimizeSizing(netlist::Netlist& nl,
                            const tech::CellLibrary& lib,
                            const place::NetWires& wires,
                            const SizingOptions& opt);

}  // namespace adq::opt
