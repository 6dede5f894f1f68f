#include "sim/packed_sim.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/simd.h"

namespace adq::sim {

using netlist::NetId;

namespace {

/// Evaluates `n` cells of kind K for all 64 lanes of the net words `v`.
/// Flattening inlines EvaluateWord with the constant K, so its kind
/// switch folds away and the loop body is branch-free.
template <tech::CellKind K>
struct EvaluateGroup {
  [[gnu::flatten]] static void Run(std::uint32_t n, const std::uint32_t* in,
                                   const std::uint32_t* out,
                                   std::uint64_t* v) {
    const int n_in = tech::NumInputs(K);
    const int n_out = tech::NumOutputs(K);
    for (std::uint32_t c = 0; c < n; ++c, in += n_in, out += n_out) {
      std::uint64_t x[tech::kMaxCellInputs] = {};
      std::uint64_t y[tech::kMaxCellOutputs];
      for (int p = 0; p < n_in; ++p) x[p] = v[in[p]];
      tech::EvaluateWord(K, x, y);
      for (int o = 0; o < n_out; ++o) v[out[o]] = y[o];
    }
  }
};

}  // namespace

PackedLogicSim::PackedLogicSim(const netlist::Netlist& nl)
    : nl_(nl),
      tape_(netlist::CompileTape(nl)),
      values_(nl.num_nets(), 0),
      prev_values_(nl.num_nets(), 0),
      bytes_(static_cast<std::size_t>(kSlices) * nl.num_nets(), 0),
      lane_toggles_(nl.num_nets() * kLanes, 0) {
  for (const netlist::Instance& inst : nl.instances())
    if (inst.is_sequential()) regs_.emplace_back(inst.in[0].value,
                                                 inst.out[0].value);
  // Primary-input fan-out cone: one pass in tape (topological) order
  // keeps a cell when any of its inputs is a PI or a kept cell's output.
  std::vector<bool> in_cone(nl.num_nets(), false);
  for (const NetId pi : nl.primary_inputs()) in_cone[pi.index()] = true;
  netlist::CellTape& cone = pi_cone_;
  std::uint32_t cone_cells = 0;
  for (const netlist::CellTape::Group& g : tape_.groups) {
    const int n_in = tech::NumInputs(g.kind);
    const int n_out = tech::NumOutputs(g.kind);
    netlist::CellTape::Group kept{
        g.kind, cone_cells, cone_cells,
        static_cast<std::uint32_t>(cone.in.size()),
        static_cast<std::uint32_t>(cone.out.size())};
    const std::uint32_t* in = tape_.in.data() + g.in;
    const std::uint32_t* out = tape_.out.data() + g.out;
    for (std::uint32_t c = g.begin; c < g.end;
         ++c, in += n_in, out += n_out) {
      if (std::none_of(in, in + n_in,
                       [&](std::uint32_t n) { return in_cone[n]; }))
        continue;
      cone.in.insert(cone.in.end(), in, in + n_in);
      cone.out.insert(cone.out.end(), out, out + n_out);
      for (int o = 0; o < n_out; ++o) in_cone[out[o]] = true;
      cone_cells = ++kept.end;
    }
    if (kept.end > kept.begin) cone.groups.push_back(kept);
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

void PackedLogicSim::Settle() { Evaluate(tape_); }

void PackedLogicSim::Evaluate(const netlist::CellTape& tape) {
  netlist::RunTape<EvaluateGroup>(tape, values_.data());
}

void PackedLogicSim::Tick(std::uint64_t count_lanes) {
  static obs::Counter& ticks = obs::GetCounter("sim.packed_ticks");
  ticks.Add();
  // Mirror LogicSim::Tick: settle D pins, clock edge, settle anew.
  // Only the PI cone can be stale before the edge (see the header).
  // Registers transfer in instance order, reading Q nets already
  // clocked this edge exactly as LogicSim does.
  Evaluate(pi_cone_);
  for (const auto& [d, q] : regs_) values_[q] = values_[d];
  Settle();

  // Per-lane cycle-based activity between consecutive post-edge
  // steady states: byte j of counter word k counts lane k + 8j.
  if (have_prev_) {
    if (pending_ == kFlushPeriod) FlushCounters();
    static_assert(kSlices % simd::U64::kWidth == 0);
    const simd::U64 ones = simd::U64::Broadcast(0x0101010101010101ULL);
    simd::U64 shifts[kSlices / simd::U64::kWidth];
    for (int k = 0; k < kSlices; k += simd::U64::kWidth)
      shifts[k / simd::U64::kWidth] =
          simd::U64::Iota(static_cast<std::uint64_t>(k));
    const std::size_t n_nets = values_.size();
    for (std::size_t n = 0; n < n_nets; ++n) {
      const std::uint64_t x = (values_[n] ^ prev_values_[n]) & count_lanes;
      const simd::U64 xv = simd::U64::Broadcast(x);
      std::uint64_t* cnt = &bytes_[n * kSlices];
      for (int k = 0; k < kSlices; k += simd::U64::kWidth) {
        const simd::U64 add = simd::And(
            simd::ShrVar(xv, shifts[k / simd::U64::kWidth]), ones);
        simd::Add(simd::U64::Load(cnt + k), add).Store(cnt + k);
      }
    }
    ++pending_;
    ++cycles_;
  }
  prev_values_ = values_;
  have_prev_ = true;
}

void PackedLogicSim::Reset() {
  for (const auto& reg : regs_) values_[reg.second] = 0;
  // Counters only move on a tick after the baseline one; before it
  // they still hold the zeros of construction or of the last Reset.
  if (have_prev_) {
    std::fill(bytes_.begin(), bytes_.end(), 0);
    std::fill(lane_toggles_.begin(), lane_toggles_.end(), 0);
  }
  pending_ = 0;
  cycles_ = 0;
  have_prev_ = false;
  Settle();
}

void PackedLogicSim::FlushCounters() const {
  if (pending_ == 0) return;
  for (std::size_t w = 0; w < bytes_.size(); ++w) {
    std::uint64_t bytes = bytes_[w];
    if (!bytes) continue;
    bytes_[w] = 0;
    // Word w is slice k = w % 8 of net n = w / 8: byte j is lane k + 8j.
    std::uint64_t* lanes =
        &lane_toggles_[(w / kSlices) * kLanes + w % kSlices];
    for (int j = 0; bytes; ++j, bytes >>= 8)
      lanes[j * kSlices] += bytes & 0xffULL;
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
