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
/// Combinational cells run from a netlist::CellTape: one branch-free
/// loop per (level, kind) group instead of a kind dispatch per cell.
///
/// Per-lane toggle counts are accumulated in byte-sliced counters:
/// counter word k of a net holds lanes k, k+8, ..., k+56, one byte
/// each, and a tick adds (toggles >> k) & 0x0101...01 to word k (two
/// simd::U64 shift/and/add steps per net at 4 lanes under AVX2, four
/// at the 2-lane width of every other target). The bytes drain
/// into plain 64-bit per-lane counters every 255 counted ticks and
/// whenever the counts are read. A per-tick lane mask restricts which
/// lanes count, so independent stimulus time slices can share one run
/// and each count only inside its own window (the activity engine's
/// slicing, sim/activity.cpp).
///
/// The pre-edge settle of Tick re-evaluates only the combinational
/// cells in the primary-input fan-out cone, computed once at
/// construction: every other combinational net depends only on
/// register outputs and ties, which have not changed since the
/// previous post-edge settle. The generated operators register every
/// input, so their cone is empty.

#include <cstdint>
#include <span>
#include <utility>
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

  /// Value changes observed on `net` at clock edges, one count per
  /// lane (index = lane): lane l equals LogicSim::toggles()[net] for a
  /// scalar run over lane l's stimulus.
  std::span<const std::uint64_t> LaneToggles(netlist::NetId net) const {
    if (pending_) FlushCounters();
    return {&lane_toggles_[net.index() * kLanes],
            static_cast<std::size_t>(kLanes)};
  }

  /// Toggles summed across all 64 lanes (popcount accumulation).
  std::uint64_t TotalToggles(netlist::NetId net) const;

  /// Clocked cycles after the baseline tick, whatever the lane masks
  /// (with the default mask, every lane's counted cycles).
  std::uint64_t cycles() const { return cycles_; }

  /// Number of combinational cells the pre-edge settle re-evaluates
  /// (the primary-input fan-out cone).
  std::size_t pre_edge_cells() const {
    return pi_cone_.groups.empty() ? 0 : pi_cone_.groups.back().end;
  }

 private:
  /// Counter words per net (lanes per byte slice) and the most ticks
  /// a byte holds before it must drain.
  static constexpr int kSlices = 8;
  static constexpr std::uint64_t kFlushPeriod = 255;

  /// Drains the byte counters into lane_toggles_. Const because the
  /// accessors trigger it lazily; only mutates the mutable counters.
  void FlushCounters() const;

  /// Runs every group of `tape` in order.
  void Evaluate(const netlist::CellTape& tape);

  const netlist::Netlist& nl_;
  netlist::CellTape tape_;     // every tie and combinational cell
  netlist::CellTape pi_cone_;  // tape_ cells fed by a PI
  std::vector<std::pair<std::uint32_t, std::uint32_t>> regs_;  // (D, Q)
  std::vector<std::uint64_t> values_;      // per net, 64 lanes
  std::vector<std::uint64_t> prev_values_; // per net, at last edge
  // Byte-sliced counters: bytes_[n * kSlices + k] holds lane k + 8j's
  // in-flight toggle count for net n in byte j.
  mutable std::vector<std::uint64_t> bytes_;
  mutable std::vector<std::uint64_t> lane_toggles_;  // [net * 64 + lane]
  mutable std::uint64_t pending_ = 0;  // ticks accumulated in bytes_
  std::uint64_t cycles_ = 0;
  bool have_prev_ = false;
};

}  // namespace adq::sim
