#include "sim/packed_sim.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"
#include "util/simd.h"

namespace adq::sim {

using netlist::InstId;
using netlist::NetId;

PackedLogicSim::PackedLogicSim(const netlist::Netlist& nl)
    : nl_(nl),
      values_(nl.num_nets(), 0),
      prev_values_(nl.num_nets(), 0),
      planes_(static_cast<std::size_t>(kCounterPlanes) * nl.num_nets(), 0),
      lane_toggles_(nl.num_nets() * kLanes, 0) {
  for (const InstId id : netlist::TopologicalOrder(nl)) {
    if (!nl.inst(id).is_sequential()) order_.push_back(id);
  }
  // Primary-input fan-out cone: one pass in topological order marks a
  // cell when any of its inputs is a PI or a marked cell's output.
  std::vector<bool> in_cone(nl.num_nets(), false);
  for (const NetId pi : nl.primary_inputs()) in_cone[pi.index()] = true;
  for (const InstId id : order_) {
    const netlist::Instance& inst = nl.inst(id);
    bool fed = false;
    for (int p = 0; p < inst.num_inputs(); ++p)
      fed = fed || in_cone[inst.in[p].index()];
    if (!fed) continue;
    pi_cone_.push_back(id);
    for (int o = 0; o < inst.num_outputs(); ++o)
      in_cone[inst.out[o].index()] = true;
  }
  Settle();
}

void PackedLogicSim::SetInput(NetId port, std::uint64_t lanes) {
  ADQ_DCHECK(nl_.net(port).is_primary_input);
  values_[port.index()] = lanes;
}

void PackedLogicSim::SetBus(const netlist::Bus& bus,
                            std::span<const std::uint64_t> lane_values) {
  ADQ_CHECK(!lane_values.empty() &&
            lane_values.size() <= static_cast<std::size_t>(kLanes));
  for (int i = 0; i < bus.width(); ++i) {
    std::uint64_t w = 0;
    for (std::size_t l = 0; l < static_cast<std::size_t>(kLanes); ++l) {
      const std::uint64_t v =
          lane_values[std::min(l, lane_values.size() - 1)];
      w |= ((v >> i) & 1ULL) << l;
    }
    SetInput(bus.bits[static_cast<std::size_t>(i)], w);
  }
}

void PackedLogicSim::Settle() { Evaluate(order_); }

void PackedLogicSim::Evaluate(std::span<const InstId> cells) {
  std::uint64_t in[tech::kMaxCellInputs];
  std::uint64_t out[tech::kMaxCellOutputs];
  for (const InstId id : cells) {
    const netlist::Instance& inst = nl_.inst(id);
    const int n_in = inst.num_inputs();
    ADQ_DCHECK(n_in <= tech::kMaxCellInputs);
    ADQ_DCHECK(inst.num_outputs() <= tech::kMaxCellOutputs);
    for (int p = 0; p < n_in; ++p) in[p] = values_[inst.in[p].index()];
    tech::EvaluateWord(inst.kind, in, out);
    for (int o = 0; o < inst.num_outputs(); ++o)
      values_[inst.out[o].index()] = out[o];
  }
}

void PackedLogicSim::Tick(std::uint64_t count_lanes) {
  static obs::Counter& ticks = obs::GetCounter("sim.packed_ticks");
  ticks.Add();
  // Mirror LogicSim::Tick: settle D pins, clock edge, settle anew.
  // Only the PI cone can be stale before the edge (see the header).
  Evaluate(pi_cone_);
  for (const netlist::Instance& inst : nl_.instances()) {
    if (!inst.is_sequential()) continue;
    values_[inst.out[0].index()] = values_[inst.in[0].index()];
  }
  Settle();

  // Per-lane cycle-based activity between consecutive post-edge
  // steady states, accumulated into the bit-sliced counter planes.
  if (have_prev_) {
    if (pending_ == kFlushPeriod) FlushCounters();
    const std::size_t n_nets = values_.size();
    // Ripple-carry the toggle words of U64::kWidth adjacent nets into
    // the counter planes at once; the carry chain dies as soon as no
    // net in the group still carries (integer ops, bit-exact).
    const simd::U64 count_mask = simd::U64::Broadcast(count_lanes);
    std::size_t n = 0;
    for (; n + simd::U64::kWidth <= n_nets; n += simd::U64::kWidth) {
      simd::U64 x = simd::And(simd::Xor(simd::U64::Load(&values_[n]),
                                        simd::U64::Load(&prev_values_[n])),
                              count_mask);
      for (std::size_t p = 0; simd::AnyNonZero(x); ++p) {
        ADQ_DCHECK(p < static_cast<std::size_t>(kCounterPlanes));
        std::uint64_t* w = &planes_[p * n_nets + n];
        const simd::U64 wv = simd::U64::Load(w);
        const simd::U64 carry = simd::And(wv, x);
        simd::Xor(wv, x).Store(w);
        x = carry;
      }
    }
    for (; n < n_nets; ++n) {
      std::uint64_t x = (values_[n] ^ prev_values_[n]) & count_lanes;
      for (std::size_t p = 0; x; ++p) {
        ADQ_DCHECK(p < static_cast<std::size_t>(kCounterPlanes));
        std::uint64_t& w = planes_[p * n_nets + n];
        const std::uint64_t carry = w & x;
        w ^= x;
        x = carry;
      }
    }
    ++pending_;
    ++cycles_;
  }
  prev_values_ = values_;
  have_prev_ = true;
}

void PackedLogicSim::Reset() {
  for (const netlist::Instance& inst : nl_.instances()) {
    if (inst.is_sequential()) values_[inst.out[0].index()] = 0;
  }
  std::fill(planes_.begin(), planes_.end(), 0);
  std::fill(lane_toggles_.begin(), lane_toggles_.end(), 0);
  pending_ = 0;
  cycles_ = 0;
  have_prev_ = false;
  Settle();
}

void PackedLogicSim::FlushCounters() const {
  if (pending_ == 0) return;
  const std::size_t n_nets = values_.size();
  for (std::size_t n = 0; n < n_nets; ++n) {
    std::uint64_t any = 0;
    for (int p = 0; p < kCounterPlanes; ++p)
      any |= planes_[static_cast<std::size_t>(p) * n_nets + n];
    if (!any) continue;
    // Vertical popcount reassembly, U64::kWidth lanes per step: each
    // plane word is broadcast and its group of lane bits gathered
    // with a per-lane variable shift, then OR-merged at bit p. Lanes
    // whose `any` bit is clear accumulate an exact zero, so skipping
    // is purely a fast-out for all-quiet groups.
    constexpr int kGroup = simd::U64::kWidth;
    const std::uint64_t group_bits =
        kGroup >= 64 ? ~0ull : ((1ull << kGroup) - 1ull);
    const simd::U64 one = simd::U64::Broadcast(1);
    int l = 0;
    for (; l + kGroup <= kLanes; l += kGroup) {
      if (!((any >> l) & group_bits)) continue;
      const simd::U64 shifts =
          simd::U64::Iota(static_cast<std::uint64_t>(l));
      simd::U64 cnt = simd::U64::Broadcast(0);
      for (int p = 0; p < kCounterPlanes; ++p) {
        const std::uint64_t word =
            planes_[static_cast<std::size_t>(p) * n_nets + n];
        if (!word) continue;
        const simd::U64 bits =
            simd::And(simd::ShrVar(simd::U64::Broadcast(word), shifts),
                      one);
        cnt = simd::Or(cnt, simd::Shl(bits, p));
      }
      std::uint64_t* t =
          &lane_toggles_[n * kLanes + static_cast<std::size_t>(l)];
      simd::Add(simd::U64::Load(t), cnt).Store(t);
    }
    for (; l < kLanes; ++l) {
      if (!((any >> l) & 1ULL)) continue;
      std::uint64_t c = 0;
      for (int p = 0; p < kCounterPlanes; ++p)
        c |= ((planes_[static_cast<std::size_t>(p) * n_nets + n] >> l) &
              1ULL)
             << p;
      lane_toggles_[n * kLanes + static_cast<std::size_t>(l)] += c;
    }
    for (int p = 0; p < kCounterPlanes; ++p)
      planes_[static_cast<std::size_t>(p) * n_nets + n] = 0;
  }
  pending_ = 0;
}

std::uint64_t PackedLogicSim::ReadBus(const netlist::Bus& bus,
                                      int lane) const {
  ADQ_DCHECK(lane >= 0 && lane < kLanes);
  std::uint64_t v = 0;
  for (int i = 0; i < bus.width(); ++i)
    if (Value(bus.bits[static_cast<std::size_t>(i)], lane))
      v |= 1ULL << i;
  return v;
}

std::uint64_t PackedLogicSim::TotalToggles(NetId net) const {
  FlushCounters();
  std::uint64_t total = 0;
  for (int l = 0; l < kLanes; ++l)
    total += lane_toggles_[net.index() * kLanes +
                           static_cast<std::size_t>(l)];
  return total;
}

}  // namespace adq::sim
