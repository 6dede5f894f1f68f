#include "netlist/case_analysis.h"

#include <algorithm>

#include "netlist/topo.h"
#include "obs/metrics.h"

namespace adq::netlist {

namespace {

/// Dual-rail evaluation of `n` cells of kind K. Bit m of tt[o] is
/// output o of the kind on the inputs whose bit i is bit i of m, so an
/// output rail is the OR, over the minterms with that output value, of
/// the AND of the matching input rails. Flattening inlines EvaluateWord
/// with the constant K, which folds tt; the minterm loop is unrolled.
/// `changed` collects the lanes in which any output rail moved.
template <tech::CellKind K>
struct RailGroup {
  [[gnu::flatten]] static void Run(std::uint32_t n, const std::uint32_t* in,
                                   const std::uint32_t* out,
                                   std::uint64_t* can0, std::uint64_t* can1,
                                   std::uint64_t* changed) {
    const int n_in = tech::NumInputs(K);
    const int n_out = tech::NumOutputs(K);
    const std::uint64_t minterm_bits[tech::kMaxCellInputs] = {0xAA, 0xCC,
                                                              0xF0};
    std::uint64_t tt[tech::kMaxCellOutputs];
    tech::EvaluateWord(K, minterm_bits, tt);
    std::uint64_t moved = 0;
    for (std::uint32_t c = 0; c < n; ++c, in += n_in, out += n_out) {
      std::uint64_t z0[tech::kMaxCellOutputs] = {};
      std::uint64_t z1[tech::kMaxCellOutputs] = {};
#pragma GCC unroll 8
      for (unsigned m = 0; m < (1u << n_in); ++m) {
        std::uint64_t term = ~0ULL;
        for (int i = 0; i < n_in; ++i)
          term &= ((m >> i) & 1u) ? can1[in[i]] : can0[in[i]];
        for (int o = 0; o < n_out; ++o)
          ((tt[o] >> m) & 1u ? z1 : z0)[o] |= term;
      }
      for (int o = 0; o < n_out; ++o) {
        moved |= (can0[out[o]] ^ z0[o]) | (can1[out[o]] ^ z1[o]);
        can0[out[o]] = z0[o];
        can1[out[o]] = z1[o];
      }
    }
    *changed |= moved;
  }
};

}  // namespace

CaseAnalysis::CaseAnalysis(const Netlist& nl,
                           const std::vector<ForcedValue>& forced)
    : CaseAnalysis(std::move(CaseAnalyses(nl, {&forced, 1}).front())) {}

std::vector<CaseAnalysis> CaseAnalyses(
    const Netlist& nl, std::span<const std::vector<ForcedValue>> sets) {
  static obs::Counter& builds =
      obs::GetCounter("netlist.case_analysis_builds");
  constexpr std::size_t kLanes = 64;
  std::vector<CaseAnalysis> out;
  out.reserve(sets.size());
  if (sets.empty()) return out;
  const CellTape tape = CompileTape(nl);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> regs;  // (D, Q)
  for (const Instance& inst : nl.instances())
    if (inst.is_sequential()) regs.emplace_back(inst.in[0].value,
                                                inst.out[0].value);
  // Per net, lane l of set at + l: "can be 0" and "can be 1" rails.
  std::vector<std::uint64_t> can0(nl.num_nets());
  std::vector<std::uint64_t> can1(nl.num_nets());
  // Per register, the lanes demoted to "sticky X". Demotion guarantees
  // termination: each register lane moves at most X -> const -> X.
  std::vector<std::uint64_t> sticky(regs.size());

  for (std::size_t at = 0; at < sets.size(); at += kLanes) {
    const std::size_t lanes = std::min(kLanes, sets.size() - at);
    const std::uint64_t live =
        lanes == kLanes ? ~0ULL : (1ULL << lanes) - 1ULL;
    std::fill(can0.begin(), can0.end(), ~0ULL);
    std::fill(can1.begin(), can1.end(), ~0ULL);
    std::fill(sticky.begin(), sticky.end(), 0ULL);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint64_t bit = 1ULL << l;
      for (const ForcedValue& f : sets[at + l]) {
        ADQ_CHECK_MSG(nl.net(f.net).is_primary_input,
                      "case analysis can only force primary-input ports");
        const std::size_t n = f.net.index();
        can0[n] = (can0[n] & ~bit) | (f.value ? 0 : bit);
        can1[n] = (can1[n] & ~bit) | (f.value ? bit : 0);
      }
    }

    // Iterate comb propagation + register transfer until no live lane
    // changes. Each pass is a full topological sweep, so the comb part
    // is exact after one pass for the current register assumptions; a
    // converged lane is a fixpoint that further passes leave alone.
    int guard = 0;
    for (std::uint64_t changed = live; changed;) {
      ADQ_CHECK_MSG(++guard <= 64, "case analysis failed to converge");
      changed = 0;
      RunTape<RailGroup>(tape, can0.data(), can1.data(), &changed);

      // Register transfer, in instance order (a register may read a Q
      // updated earlier in the same transfer): Q adopts D's constant
      // if provable, and a constant Q that its own fanin contradicts
      // is demoted to X permanently.
      for (std::size_t r = 0; r < regs.size(); ++r) {
        const auto [d, q] = regs[r];
        const std::uint64_t d0 = can0[d], d1 = can1[d];
        const std::uint64_t q0 = can0[q], q1 = can1[q];
        const std::uint64_t q_x = q0 & q1;
        const std::uint64_t adopt = ~sticky[r] & q_x & ~(d0 & d1);
        const std::uint64_t demote =
            ~sticky[r] & ~q_x & ((d0 ^ q0) | (d1 ^ q1));
        can0[q] = (q0 & ~adopt) | (d0 & adopt) | demote;
        can1[q] = (q1 & ~adopt) | (d1 & adopt) | demote;
        sticky[r] |= demote;
        changed |= adopt | demote;
      }
      changed &= live;
    }

    for (std::size_t l = 0; l < lanes; ++l) {
      CaseAnalysis& ca = out.emplace_back(CaseAnalysis());
      ca.values_.resize(nl.num_nets());
      ca.constant_bits_.assign((nl.num_nets() + 63) / 64, 0);
      // FNV-1a over the resolved per-net values. The object is
      // immutable after construction, so the digest is computed once
      // here; callers that cache derived state (sta::TimingAnalyzer)
      // compare digests instead of object addresses, which stack reuse
      // can alias.
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (std::size_t n = 0; n < can0.size(); ++n) {
        const bool c0 = (can0[n] >> l) & 1ULL;
        const bool c1 = (can1[n] >> l) & 1ULL;
        const LogicV v = c0 && c1 ? LogicV::kX : FromBool(c1);
        ca.values_[n] = v;
        if (v != LogicV::kX) {
          ++ca.num_constant_;
          ca.constant_bits_[n / 64] |= 1ULL << (n % 64);
        }
        h ^= static_cast<std::uint8_t>(v);
        h *= 0x100000001b3ULL;
      }
      ca.fingerprint_ = h ^ ca.values_.size();
    }
  }
  builds.Add(sets.size());
  return out;
}

}  // namespace adq::netlist
