#pragma once
/// \file explore.h
/// \brief Exhaustive design-space exploration (paper Fig. 4, blue
/// phase; Sec. III-C).
///
/// For every combination of (i) back-bias assignment to the NMAX
/// domains (2^NMAX masks), (ii) input bitwidth, and (iii) global VDD,
/// the design is checked by STA — points with violations are
/// discarded (the paper reports ~75% filtered) — and surviving points
/// are analyzed for power (leakage + activity-annotated dynamic).
/// The minimum-power configuration per bitwidth is the output: the
/// table a runtime controller uses to switch accuracy modes.
///
/// Complexity is O(2^NMAX * B * NVDD) points, as in the paper; three
/// exact accelerations are applied: per-condition delay scaling is
/// two global multipliers (see sta.h); infeasibility is monotone
/// in bitwidth (activating more input bits only adds timing paths),
/// so a (VDD, mask) pair that fails at bitwidth b is skipped — and
/// counted as filtered — for larger bitwidths; and infeasibility is
/// antitone in the FBB mask lattice (forward bias only lowers delay),
/// so a mask that fails at (VDD, b) proves every submask infeasible
/// at the same point without running STA (mask-dominance pruning).
/// Both prunes are exact and always on, except in the unpruned
/// reference sweep that ExploreOptions::keep_all_points selects.
/// Surviving masks are evaluated in batches of kStaBatchWidth lanes
/// per topological traversal (sta::AnalyzeBatch).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.h"
#include "power/power.h"
#include "sim/activity.h"
#include "store/exploration_store.h"

namespace adq::core {

/// Recoverable failure of an exploration request. Unlike CheckError
/// (a programming/contract error that should crash loudly), an
/// ExploreError means the *request* cannot be served as posed — e.g.
/// an exhaustive sweep over a grid whose 2^NMAX lattice is beyond
/// enumeration — and the caller can recover by rerouting to the
/// frontier engine (core/frontier.h) instead of dying.
class ExploreError : public std::runtime_error {
 public:
  explicit ExploreError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Largest domain count the exhaustive engine will enumerate when
/// asked for the full 2^NMAX mask lattice (2^20 masks per (VDD,
/// bitwidth) row). Bigger grids must either restrict
/// ExploreOptions::masks or use core::FrontierExplore.
inline constexpr int kMaxExhaustiveDomains = 20;

/// One explored operating point. `mask` bit d = 1 means domain d is
/// forward back-biased (FBB); 0 means NoBB.
struct ExploredPoint {
  int bitwidth = 0;
  double vdd = 0.0;
  tech::DomainMask mask = 0;
  bool feasible = false;
  double wns_ns = 0.0;
  power::PowerBreakdown power;

  double total_power_w() const { return power.total_w(); }
};

/// Best configuration found for one accuracy mode.
struct ModeResult {
  int bitwidth = 0;
  bool has_solution = false;
  ExploredPoint best;
  double switched_energy_fj = 0.0;  ///< per cycle at 1 V, this mode
  /// Always false: no engine decides a mode without simulating and
  /// timing it. Kept only because the end-to-end benchmark
  /// (perfbench/e2e.cpp) still reads it; that benchmark's next change
  /// moves to the `netlist.case_analysis_builds` counter and deletes
  /// this field.
  bool statically_pruned = false;
};

struct ExplorationStats {
  long points_considered = 0;  ///< full O(2^NMAX * B * NVDD) count
  long sta_runs = 0;           ///< STA actually executed
  long filtered = 0;           ///< discarded by the STA filter
  long pruned = 0;  ///< monotone-pruning hits (subset of filtered):
                    ///< points whose infeasibility was implied by a
                    ///< smaller bitwidth, so no STA was spent
  long mask_pruned = 0;  ///< mask-dominance hits (subset of filtered):
                         ///< points whose infeasibility was implied by
                         ///< a failing supermask at the same (VDD,
                         ///< bitwidth), so no STA was spent. Always an
                         ///< exact trade against sta_runs:
                         ///< points_considered ==
                         ///<     sta_runs + store_hits + pruned +
                         ///<     mask_pruned.
  long store_hits = 0;  ///< verdicts served by the persistent
                        ///< exploration store instead of an STA run
                        ///< (0 unless ExploreOptions::store is set);
                        ///< bit-identical trade against sta_runs
  long feasible = 0;

  double FilterRate() const {
    return points_considered == 0
               ? 0.0
               : static_cast<double>(filtered) /
                     static_cast<double>(points_considered);
  }
};

struct ExplorationResult {
  std::vector<ModeResult> modes;  ///< one per requested bitwidth
  ExplorationStats stats;
  std::vector<ExploredPoint> all_points;  ///< if keep_all_points

  const ModeResult& Mode(int bitwidth) const;
};

/// Stimulus of both engines' activity-annotated power analysis (paper
/// Sec. III-C): the lag-1 correlated DSP-like signal.
inline constexpr sim::StimulusKind kActivityStimulus =
    sim::StimulusKind::kCorrelated;

struct ExploreOptions {
  /// Supply range: paper Sec. IV-B uses 1.0 .. 0.6 V in 0.1 V steps.
  std::vector<double> vdds = {1.0, 0.9, 0.8, 0.7, 0.6};
  /// Accuracy modes (active bits); empty = 1 .. data_width.
  std::vector<int> bitwidths;
  /// BB masks to consider; empty = all 2^NMAX (the paper's method).
  /// DVAS baselines restrict this to all-NoBB {0} or all-FBB.
  std::vector<tech::DomainMask> masks;
  int activity_cycles = 1024;
  std::uint64_t seed = 7;
  /// The unpruned reference sweep: record every lattice point in
  /// ExplorationResult::all_points, each with its computed wns_ns.
  /// This turns both exact prunes off (the monotone-in-bitwidth one
  /// and mask dominance), so every point is evaluated by STA and
  /// stats.pruned == stats.mask_pruned == 0. The modes are identical
  /// either way; the prunes only trade sta_runs for pruned and
  /// mask_pruned.
  bool keep_all_points = false;
  /// Worker threads sharding the (VDD, mask) lattice and the per-mode
  /// activity extraction: 0 = one per hardware thread, 1 = run the
  /// whole sweep inline on the caller, n > 1 = n workers. Every
  /// setting yields a bit-identical ExplorationResult — modes, stats
  /// and all_points ordering included — because each lattice point is
  /// a pure function of (bitwidth, VDD, mask) and the per-point
  /// outcomes are folded serially in lattice order (deterministic
  /// merge). The monotone-infeasibility filter prunes identically
  /// too: the shared failure table is only consulted for bitwidths
  /// above the one that set it, and bitwidths are separated by a
  /// pool barrier; mask-dominance decisions similarly only consult
  /// popcount levels separated by a barrier. Contract enforced by
  /// tests/test_parallel_explore.
  int num_threads = 0;
  /// Optional persistent exploration store (store/exploration_store.h)
  /// warm-starting the sweep: every (bitwidth, VDD, mask) STA verdict
  /// already present is reused instead of re-running STA (counted in
  /// stats.store_hits), and every fresh verdict is inserted back. The
  /// result is bit-identical with or without the store — stored wns
  /// values round-trip as exact double bit patterns — only the
  /// sta_runs / store_hits split changes. nullptr (the default)
  /// disables both directions; the caller owns the store and decides
  /// when to Flush() it to disk.
  store::ExplorationStore* store = nullptr;
  /// Signoff lint gate applied to the implemented netlist before the
  /// sweep — the same netlist DRC + flow-artifact rules the
  /// implementation flow enforces at signoff (core::SignoffLint), so
  /// a corrupt or hand-mutated netlist is rejected identically on the
  /// exhaustive and frontier engines. kOff (the default) preserves
  /// historical behavior.
  lint::LintGate lint = lint::LintGate::kOff;
};

/// Throws ExploreError when the request asks for the full mask
/// lattice of a grid beyond kMaxExhaustiveDomains (use
/// core::FrontierExplore for those); all other contract violations
/// still fail fast via ADQ_CHECK.
ExplorationResult ExploreDesignSpace(const ImplementedDesign& design,
                                     const tech::CellLibrary& lib,
                                     const ExploreOptions& opt = {});

/// Expands a domain mask into a per-instance bias vector.
std::vector<tech::BiasState> BiasVectorFor(const ImplementedDesign& design,
                                           tech::DomainMask mask);

/// Leakage of a mask as the exhaustive sweep computes it: the
/// ndom-term DomainLeakageW sum folded in ascending-domain order.
/// Shared with the frontier engine so both produce bit-identical
/// leakage (and therefore bit-identical best points and bounds).
double MaskLeakageW(const power::PowerModel& pmodel,
                    const std::vector<double>& dom_weight, int ndom,
                    double vdd, tech::DomainMask mask);

/// Canonical persistent-store key of an implemented design: the full
/// byte encoding of everything an STA verdict depends on — netlist
/// structure (cell kinds, pin nets, drive strengths), extracted
/// per-net loads, the cell->domain map and the implementation clock —
/// plus its 64-bit FNV-1a digest. The store verifies the full
/// encoding on every hash hit, so a digest collision degrades to a
/// miss, never to a wrong verdict.
store::StoreKey ExploreStoreKey(const ImplementedDesign& design);

}  // namespace adq::core
