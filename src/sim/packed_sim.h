#pragma once
/// \file packed_sim.h
/// \brief Bit-parallel packed logic simulator: 64 lanes per word.
///
/// One std::uint64_t per net carries 64 independent Monte Carlo
/// simulation lanes; a cell evaluates for all lanes with one bitwise
/// op (tech::EvaluateWord). Lane semantics are exactly those of the
/// scalar LogicSim — same settle/tick model, same toggle-counting
/// contract (comparisons between consecutive post-edge steady states,
/// the first tick establishing the baseline) — so lane l of a packed
/// run is bit-identical to a scalar run fed lane l's stimulus. The
/// scalar LogicSim stays as the reference oracle; the property tests
/// in tests/test_sim_packed.cpp pin the equivalence across operators.
///
/// Per-lane toggle counts are accumulated with bit-sliced "vertical"
/// counters: each tick adds the 64-lane toggle word into
/// kCounterPlanes binary counter planes by ripple carry (amortized
/// ~2 word ops per net), and the planes are flushed into plain 64-bit
/// per-lane counters every 2^kCounterPlanes - 1 ticks — this is what
/// keeps counting from costing 64x the evaluation work. A per-tick
/// lane mask restricts which lanes count, so independent stimulus time
/// slices can share one run and each count only inside its own window
/// (the activity engine's slicing, sim/activity.cpp).
///
/// The pre-edge settle of Tick re-evaluates only the combinational
/// cells in the primary-input fan-out cone, computed once at
/// construction: every other combinational net depends only on
/// register outputs and ties, which have not changed since the
/// previous post-edge settle. The generated operators register every
/// input, so their cone is empty.

#include <cstdint>
#include <span>
#include <vector>

#include "gen/words.h"
#include "netlist/netlist.h"
#include "netlist/topo.h"

namespace adq::sim {

class PackedLogicSim {
 public:
  /// Lanes per net word. Fixed by the word width.
  static constexpr int kLanes = 64;

  explicit PackedLogicSim(const netlist::Netlist& nl);

  /// Sets a primary-input port for the current cycle in every lane at
  /// once: bit l of `lanes` is the port value in lane l.
  void SetInput(netlist::NetId port, std::uint64_t lanes);

  /// Sets an input bus from per-lane unsigned words (LSB-first bits):
  /// lane l of bus bit i becomes bit i of `lane_values[l]`. Accepts
  /// 1..64 values; lanes beyond the span replicate the last value.
  void SetBus(const netlist::Bus& bus,
              std::span<const std::uint64_t> lane_values);

  /// Propagates values through the combinational network (all lanes).
  void Settle();

  /// Clock edge: DFF Q <= D in every lane, then re-settles. Counts
  /// per-lane toggles exactly as LogicSim::Tick does per run, in the
  /// lanes set in `count_lanes`; the other lanes simulate but do not
  /// count this tick's transitions.
  void Tick(std::uint64_t count_lanes = ~0ULL);

  /// Resets all state registers to 0 in every lane and clears toggle
  /// statistics.
  void Reset();

  /// All 64 lanes of a net as one word.
  std::uint64_t LaneWord(netlist::NetId net) const {
    return values_[net.index()];
  }
  bool Value(netlist::NetId net, int lane) const {
    ADQ_DCHECK(lane >= 0 && lane < kLanes);
    return (values_[net.index()] >> lane) & 1ULL;
  }

  /// Reads a bus as an unsigned word (LSB-first) from one lane.
  std::uint64_t ReadBus(const netlist::Bus& bus, int lane) const;

  /// Number of value changes observed on `net` in `lane` at clock
  /// edges — identical to LogicSim::toggles()[net] for a scalar run
  /// over the same lane stimulus.
  std::uint64_t Toggles(netlist::NetId net, int lane) const {
    ADQ_DCHECK(lane >= 0 && lane < kLanes);
    if (pending_) FlushCounters();
    return lane_toggles_[net.index() * kLanes +
                         static_cast<std::size_t>(lane)];
  }

  /// Toggles summed across all 64 lanes (popcount accumulation).
  std::uint64_t TotalToggles(netlist::NetId net) const;

  /// Clocked cycles after the baseline tick, whatever the lane masks
  /// (with the default mask, every lane's counted cycles).
  std::uint64_t cycles() const { return cycles_; }

  /// Number of combinational cells the pre-edge settle re-evaluates
  /// (the primary-input fan-out cone).
  std::size_t pre_edge_cells() const { return pi_cone_.size(); }

 private:
  /// Bit-sliced counter depth: flush period is 2^kCounterPlanes - 1
  /// ticks, the largest count the planes can hold.
  static constexpr int kCounterPlanes = 16;
  static constexpr std::uint64_t kFlushPeriod =
      (1ULL << kCounterPlanes) - 1ULL;

  /// Drains the counter planes into lane_toggles_. Const because the
  /// accessors trigger it lazily; only mutates the mutable counters.
  void FlushCounters() const;

  /// Evaluates `cells` (a topologically ordered subset of order_).
  void Evaluate(std::span<const netlist::InstId> cells);

  const netlist::Netlist& nl_;
  std::vector<netlist::InstId> order_;     // topological, comb only
  std::vector<netlist::InstId> pi_cone_;   // order_ cells fed by a PI
  std::vector<std::uint64_t> values_;      // per net, 64 lanes
  std::vector<std::uint64_t> prev_values_; // per net, at last edge
  // Vertical counters: planes_[p * num_nets + n] holds bit p of every
  // lane's in-flight toggle count for net n.
  mutable std::vector<std::uint64_t> planes_;
  mutable std::vector<std::uint64_t> lane_toggles_;  // [net * 64 + lane]
  mutable std::uint64_t pending_ = 0;  // ticks accumulated in planes_
  std::uint64_t cycles_ = 0;
  bool have_prev_ = false;
};

}  // namespace adq::sim
