#pragma once
/// \file activity.h
/// \brief Switching-activity extraction for power annotation.
///
/// Runs an operator netlist through the logic simulator under a
/// chosen stimulus and accuracy mode, and reports the per-net toggle
/// rate (transitions per clock cycle). This is the reproduction of
/// the paper's "importing of VCD traces" into PrimeTime: activity is
/// measured per accuracy mode, because zeroed LSBs kill toggling in
/// the disabled part of the operator — the dynamic-power half of the
/// accuracy knob.
///
/// Two engines produce the profiles:
///  - ExtractActivityScalar drives the scalar LogicSim, one run per
///    accuracy mode. It is the reference oracle.
///  - ExtractActivityBatch drives the bit-parallel PackedLogicSim,
///    packing up to 64 accuracy modes into the lanes of one run over
///    a shared base stimulus. Because every lane sees exactly the
///    stimulus the scalar run would (same Rng draw order, per-lane
///    LSB masking), the per-net toggle counts — and therefore the
///    profiles — are bit-identical to the scalar engine's.
///
/// ExtractActivity is the cached front door both core engines use: a
/// process-wide cache keyed by (operator structure, zeroed_lsbs,
/// cycles, seed, stimulus kind) makes repeated requests for the same
/// profile (the proposed sweep and both DVAS baselines sweep the same
/// operator) hit memory instead of re-simulating.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "sim/logic_sim.h"

namespace adq::sim {

enum class StimulusKind {
  kUniform,     ///< independent uniform operands (pessimistic activity)
  kCorrelated,  ///< lag-1 correlated DSP-like signal (realistic)
};

struct ActivityProfile {
  /// Transitions per cycle for every net (index = net id).
  std::vector<double> toggle_rate;
  std::uint64_t cycles = 0;

  double RateOf(netlist::NetId n) const { return toggle_rate[n.index()]; }
};

/// Simulates `cycles` cycles of the operator with `zeroed_lsbs` LSBs
/// clamped on every scalable bus. Non-scalable data buses receive
/// full-precision stimulus; a bus named "clr" receives a one-cycle
/// clear pulse every spec.accumulation_cycles cycles (accumulator
/// framing). Deterministic in `seed`. Serves as the process-wide
/// activity cache's front door; equal requests return the memoized
/// profile instead of re-simulating. Requires cycles >= 2: toggle
/// counting compares consecutive post-edge states, so a single tick
/// only establishes the baseline and would silently yield an all-zero
/// profile.
ActivityProfile ExtractActivity(const gen::Operator& op, int zeroed_lsbs,
                                int cycles, std::uint64_t seed,
                                StimulusKind kind = StimulusKind::kCorrelated);

/// Reference oracle: the scalar-LogicSim implementation behind the
/// same contract as ExtractActivity, uncached. Property tests pin the
/// packed engine against this bit-for-bit.
ActivityProfile ExtractActivityScalar(
    const gen::Operator& op, int zeroed_lsbs, int cycles,
    std::uint64_t seed, StimulusKind kind = StimulusKind::kCorrelated);

/// Extracts one profile per requested accuracy mode in a single
/// bit-parallel simulation (ExtractActivityPacked). Each returned
/// profile is bit-identical to ExtractActivityScalar(op,
/// zeroed_lsbs[i], cycles, seed, kind). Populates and consults the
/// process-wide cache; duplicate entries in `zeroed_lsbs` are
/// simulated once.
std::vector<ActivityProfile> ExtractActivityBatch(
    const gen::Operator& op, std::span<const int> zeroed_lsbs, int cycles,
    std::uint64_t seed, StimulusKind kind = StimulusKind::kCorrelated);

/// Uncached packed engine behind ExtractActivityBatch: one profile
/// per entry of `zeroed_lsbs` (duplicates get their own lanes), 64
/// modes per run, each run time-sliced and seam-checked as described
/// above. Every profile is bit-identical to ExtractActivityScalar.
/// `seam_fallbacks`, if given, receives the number of modes
/// re-simulated unsliced (also added to the counter
/// sim.activity_seam_fallbacks).
std::vector<ActivityProfile> ExtractActivityPacked(
    const gen::Operator& op, std::span<const int> zeroed_lsbs, int cycles,
    std::uint64_t seed, StimulusKind kind = StimulusKind::kCorrelated,
    int* seam_fallbacks = nullptr);

/// Time slices one packed run of `modes` (1..64) modes over `cycles`
/// (>= 2) cycles uses: min(64 / modes, cycles - 1), less any slice the
/// rounded-up slice length leaves empty.
int ActivitySlices(std::size_t modes, int cycles);

/// The case analysis of each accuracy mode `zeroed_lsbs[i]`
/// (gen::ForcedZeroLsbs), built once per operator structure and
/// shared. The activity cache holds them under the same full-key
/// structure as the profiles, so a resized copy of an operator (the
/// flat view, the DVAS runs) reuses the analyses of the original, a
/// structurally different netlist misses, and ClearActivityCache
/// drops them.
std::vector<std::shared_ptr<const netlist::CaseAnalysis>> ModeCaseAnalyses(
    const gen::Operator& op, std::span<const int> zeroed_lsbs);

/// Counters for the process-wide activity cache (plain values, always
/// maintained — independent of the obs metrics switch).
struct ActivityCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
};
ActivityCacheStats GetActivityCacheStats();

/// Empties the cache and zeroes its hit/miss statistics. Tests use
/// this to isolate cache behavior; production flows never need it.
void ClearActivityCache();

/// Test hook: while on, the structural digest is a constant, so every
/// operator collides in the cache's hash field. Lookups must still
/// return the right profile — the key carries the full canonical
/// structure encoding, and a digest collision is only allowed to cost
/// a map-compare, never to alias two operators. Production code must
/// never call this.
void ForceActivityHashCollisionsForTest(bool on);

}  // namespace adq::sim
