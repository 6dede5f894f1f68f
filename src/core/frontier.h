#pragma once
/// \file frontier.h
/// \brief Best-first branch-and-bound over the FBB-mask dominance
/// lattice — exploration beyond the exhaustive 2^NMAX ceiling.
///
/// The exhaustive engine (core/explore.h) enumerates every mask; past
/// kMaxExhaustiveDomains that is hopeless (2^36 points for a 6x6
/// grid). FrontierExplore searches the same lattice with the same two
/// exact monotonicity facts the exhaustive pruner uses, but as
/// *bounds* instead of filters:
///
///   * feasibility is antitone in the FBB mask (forward bias only
///     lowers delay): a node's subtree — all masks between its
///     decided mask and decided|undecided-tail — is entirely
///     infeasible when its maximal mask fails STA, and its minimal
///     mask is the subtree's exact leakage optimum when it passes;
///   * leakage is monotone non-decreasing in the mask (FBB raises
///     leakage), and the fold order of the leakage sum is fixed, so
///     dyn + leak(minimal mask) is a sound lower bound on every
///     point in the subtree — in the very double-precision
///     expressions the exhaustive merge evaluates.
///
/// Branching follows per-domain accuracy criticality (core/
/// band_optimizer.h): the domains that carry critical paths at the
/// smallest bitwidths are decided first, which settles feasibility
/// high in the tree. Each expansion costs at most two fresh STA
/// verdicts (children share the other two with their parent).
///
/// Outcome per accuracy mode: either a *certificate* — the open
/// frontier was exhausted, so the returned point is exactly the
/// point the exhaustive sweep would have selected (bit-identical
/// power/wns, identical tie-breaking; pinned by tests/test_frontier)
/// — or, when the node budget ran out first, the incumbent plus a
/// proved optimality gap (incumbent power minus the smallest open
/// lower bound).
///
/// Determinism: results are bit-identical at every worker count.
/// Expansion proceeds in waves of a fixed (option-controlled, never
/// thread-derived) width; the wave's verdict demands are deduplicated
/// (the first demand of a point claims its verdict slot) and evaluated
/// into those slots on the pool, and all search-state mutation —
/// incumbent updates, child generation, store write-back — happens
/// serially in wave order.
///
/// The persistent exploration store (store/exploration_store.h) warm-
/// starts the search: verdicts are keyed exactly like the exhaustive
/// engine's (core::ExploreStoreKey), so the two engines and any fleet
/// of worker processes sharing a store directory trade sta_runs for
/// store_hits with bit-identical results.

#include <cstdint>
#include <vector>

#include "core/explore.h"
#include "core/flow.h"
#include "store/exploration_store.h"

namespace adq::core {

struct FrontierOptions {
  /// Supply range, as in ExploreOptions.
  std::vector<double> vdds = {1.0, 0.9, 0.8, 0.7, 0.6};
  /// Accuracy modes (active bits); empty = 1 .. data_width.
  std::vector<int> bitwidths;
  int activity_cycles = 1024;
  std::uint64_t seed = 7;
  sim::StimulusKind stimulus = sim::StimulusKind::kCorrelated;
  /// Nodes expanded per wave. Fixed by this option — never derived
  /// from the worker count — so the search trajectory (and therefore
  /// the result, stats included) is bit-identical at any num_threads.
  int wave_width = 64;
  /// Expansion budget per accuracy mode; <= 0 means unlimited (run to
  /// certificate). When the budget stops a mode early, its result
  /// carries certified = false and the proved gap_w.
  long node_budget = 0;
  /// Branch-order criticality probe: the slack window handed to
  /// core::AccuracyCriticality. 0 disables the probe (domains are
  /// decided in index order) — results stay identical, only the
  /// search trajectory (and node count) changes.
  double criticality_slack_window_ns = 0.05;
  /// Worker threads evaluating each wave's STA batch; same contract
  /// as ExploreOptions::num_threads (0 = hardware concurrency), and
  /// like there every setting yields a bit-identical result.
  int num_threads = 0;
  /// Optional persistent exploration store; same contract as
  /// ExploreOptions::store (bit-identical, trades sta_runs for
  /// store_hits). The caller owns the store and its Flush().
  store::ExplorationStore* store = nullptr;
  /// Signoff lint gate (core::SignoffLint), as in ExploreOptions: the
  /// frontier engine vets the implemented netlist with exactly the
  /// gate the exhaustive Flow path uses. kOff by default.
  lint::LintGate lint = lint::LintGate::kOff;
};

/// Outcome of one accuracy mode's lattice search.
struct FrontierModeResult {
  int bitwidth = 0;
  bool has_solution = false;
  ExploredPoint best;
  double switched_energy_fj = 0.0;
  /// True when the open frontier was exhausted: `best` is proved
  /// optimal (exactly the exhaustive sweep's selection).
  bool certified = false;
  /// Proved optimality gap [W] when not certified: best.power minus
  /// the smallest lower bound still open. 0 when certified or when
  /// every open bound already exceeds the incumbent.
  double gap_w = 0.0;
  long nodes_expanded = 0;
  /// Always false, as ModeResult::statically_pruned: kept only
  /// because the end-to-end benchmark (perfbench/e2e.cpp) still reads
  /// it, and deleted with that benchmark's next change.
  bool statically_pruned = false;
};

struct FrontierStats {
  long nodes_expanded = 0;
  long nodes_pruned_bound = 0;       ///< popped with lb >= incumbent
  long nodes_pruned_infeasible = 0;  ///< subtree killed by maxmask STA
  long nodes_closed = 0;             ///< subtree solved by minmask STA
  long sta_runs = 0;      ///< fresh STA verdicts (lattice points)
  long store_hits = 0;    ///< verdicts served by the persistent store
  long transfer_hits = 0; ///< infeasibility carried from a smaller
                          ///< bitwidth (monotone in bitwidth)
  long waves = 0;
  int certified_modes = 0;
};

struct FrontierResult {
  std::vector<FrontierModeResult> modes;  ///< one per requested bitwidth
  FrontierStats stats;

  const FrontierModeResult& Mode(int bitwidth) const;

  /// Adapts the result into the exhaustive engine's shape so existing
  /// consumers (RuntimeController, pareto::Frontier, the lint mode
  /// gate) run unchanged. Only sta_runs and store_hits carry over.
  /// `feasible` stays 0: it counts feasible lattice points, which the
  /// search never enumerates, and the frontier's own counts live in
  /// FrontierStats.
  ExplorationResult ToExplorationResult() const;
};

/// Searches the (VDD, FBB-mask) lattice of every requested accuracy
/// mode. Works for any domain count up to tech::kMaxDomains; for
/// grids within the exhaustive ceiling it returns certificates that
/// match ExploreDesignSpace bit-for-bit.
FrontierResult FrontierExplore(const ImplementedDesign& design,
                               const tech::CellLibrary& lib,
                               const FrontierOptions& opt = {});

}  // namespace adq::core
