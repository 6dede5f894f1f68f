#pragma once
/// \file flow.h
/// \brief The automated implementation flow of the paper (Fig. 4,
/// green phase): synthesis-like sizing -> placement -> Vth-domain
/// grid insertion -> incremental placement -> parasitic extraction
/// and timing closure, all at the FBB characterization corner and
/// nominal VDD.
///
/// The result (an ImplementedDesign) is the physical artifact the
/// optimization phase (explore.h) analyzes: a sized netlist, its
/// final placement with domain assignment, and extracted loads.
/// A 1x1 grid degenerates to the plain (DVAS-comparable)
/// implementation: no guardbands, a single bias domain.

#include "gen/operator.h"
#include "lint/lint.h"
#include "opt/buffering.h"
#include "opt/sizing.h"
#include "place/grid_partition.h"
#include "place/placer.h"
#include "place/wirelength.h"
#include "tech/cell_library.h"

namespace adq::core {

/// The flow implements at opt::kImplementationCorner, places at
/// place::kUtilization and separates domains by place::kGuardbandUm.
struct FlowOptions {
  place::GridConfig grid{1, 1};
  std::uint64_t seed = 1;
  /// Overrides the operator's nominal clock when > 0.
  double clock_ns = 0.0;
  /// Has no effect: no flow stage runs on worker threads. Kept only
  /// because the end-to-end benchmark (perfbench/e2e.cpp) still sets
  /// it; that benchmark's next change stops setting it and deletes
  /// this field.
  int num_threads = 0;
  /// Lint gate policy of the flow's one lint run, SignoffLint on the
  /// finished design (see lint/lint.h). kError aborts the flow on any
  /// structural error; warnings (dead cones, fanout) never abort.
  lint::LintGate lint = lint::LintGate::kError;
};

struct ImplementedDesign {
  gen::Operator op;                 ///< netlist with final sizing
  double clock_ns = 0.0;            ///< implementation clock
  place::Placement placement;       ///< post-partition placement
  place::GridPartition partition;   ///< grid + cell->domain map
  place::NetLoads loads;            ///< extracted from final placement
  opt::SizingResult sizing;         ///< synthesis + ECO statistics
  bool timing_met = false;          ///< at corner, nominal VDD

  /// Pre-partition ("flat") view of the same sized netlist: the
  /// placement and parasitics before guardband insertion. DVAS
  /// baselines are evaluated on this view, so the comparison against
  /// the proposed method isolates exactly the methodology's knobs
  /// (domains + bias) plus the guardband overhead — not incidental
  /// differences in synthesis/sizing outcomes.
  place::Placement flat_placement;
  place::NetLoads flat_loads;

  double fclk_ghz() const { return 1.0 / clock_ns; }
  int num_domains() const { return partition.num_domains(); }

  /// Per-instance bias-domain ids (index = instance id) — the layout
  /// sta::TimingAnalyzer::AnalyzeBatch and the exploration engine
  /// consume directly, instead of expanding a per-instance bias
  /// vector per mask (see core::BiasVectorFor).
  const std::vector<int>& domain_of() const { return partition.domain_of; }
};

/// Runs the full flow on (a copy of) the operator. After the extract
/// ECO a closure loop alternates place::RelegalizeViolations with a
/// fix-only sizing ECO on the re-legalized wires until no tile moves.
/// It fails a check if it has not converged after 4 rounds; a design
/// it hands back with `timing_met == false` converged, and its clock is
/// out of the sizer's reach.
ImplementedDesign RunImplementationFlow(gen::Operator op,
                                        const tech::CellLibrary& lib,
                                        const FlowOptions& opt = {});

/// Re-packages the pre-partition view of `d` as a single-domain
/// ImplementedDesign (netlist copied; trivial 1x1 partition), suitable
/// for the DVAS baseline explorations.
ImplementedDesign FlatView(const ImplementedDesign& d,
                           const tech::CellLibrary& lib);

/// The signoff lint gate: the full netlist DRC (with the fanout
/// ceiling the buffering pass enforces) plus every flow-artifact
/// invariant of the implemented design. It is the flow's only lint
/// run: after buffering only drive strengths change, which no netlist
/// rule reads, and the flow rules check the final placement.
/// RunImplementationFlow calls it at signoff; ExploreDesignSpace and
/// FrontierExplore call the very same gate when their `lint` option
/// is enabled, so a corrupt netlist is rejected identically on every
/// engine (pinned by tests/test_explore_lint_gate). kOff is a no-op.
void SignoffLint(const ImplementedDesign& d, const tech::CellLibrary& lib,
                 lint::LintGate gate);

}  // namespace adq::core
