#include "netlist/case_analysis.h"

#include <array>

#include "netlist/topo.h"

namespace adq::netlist {

namespace {

/// Per-kind ternary truth table: entry `idx` = sum of in[i] * 3^i
/// (kZero = 0, kOne = 1, kX = 2) over the kind's inputs holds output
/// k in bits 2k..2k+1.
using TernaryTable = std::array<std::uint8_t, 27>;

/// Built once from tech::Evaluate by enumerating the boolean
/// completions of the X inputs (a cube of at most 2^3): an output is
/// constant only if every completion agrees.
TernaryTable BuildTernaryTable(tech::CellKind kind) {
  const int n_in = tech::NumInputs(kind);
  const int n_out = tech::NumOutputs(kind);
  int entries = 1;
  for (int i = 0; i < n_in; ++i) entries *= 3;
  TernaryTable table{};
  for (int idx = 0; idx < entries; ++idx) {
    int x_pos[3];
    int n_x = 0;
    bool base[3] = {false, false, false};
    for (int i = 0, rem = idx; i < n_in; ++i, rem /= 3) {
      if (rem % 3 == static_cast<int>(LogicV::kX))
        x_pos[n_x++] = i;
      else
        base[i] = rem % 3 == static_cast<int>(LogicV::kOne);
    }
    bool first = true;
    bool agreed[2] = {false, false};
    bool agree_ok[2] = {true, true};
    for (unsigned m = 0; m < (1u << n_x); ++m) {
      bool ins[3] = {base[0], base[1], base[2]};
      for (int j = 0; j < n_x; ++j) ins[x_pos[j]] = (m >> j) & 1u;
      bool o[2] = {false, false};
      tech::Evaluate(kind, ins, o);
      for (int k = 0; k < n_out; ++k) {
        if (first)
          agreed[k] = o[k];
        else if (o[k] != agreed[k])
          agree_ok[k] = false;
      }
      first = false;
    }
    std::uint8_t packed = 0;
    for (int k = 0; k < n_out; ++k) {
      const LogicV v = agree_ok[k] ? FromBool(agreed[k]) : LogicV::kX;
      packed = static_cast<std::uint8_t>(
          packed | (static_cast<unsigned>(v) << (2 * k)));
    }
    table[static_cast<std::size_t>(idx)] = packed;
  }
  return table;
}

const std::array<TernaryTable, tech::kNumCellKinds>& TernaryTables() {
  static const std::array<TernaryTable, tech::kNumCellKinds> tables = [] {
    std::array<TernaryTable, tech::kNumCellKinds> t{};
    for (int k = 0; k < tech::kNumCellKinds; ++k)
      t[static_cast<std::size_t>(k)] =
          BuildTernaryTable(static_cast<tech::CellKind>(k));
    return t;
  }();
  return tables;
}

/// Packed table outputs of `kind` for the inputs `in(0..n_in-1)`.
template <typename Input>
std::uint8_t LookUp(const std::array<TernaryTable, tech::kNumCellKinds>& t,
                    tech::CellKind kind, Input in) {
  int idx = 0;
  for (int i = tech::NumInputs(kind) - 1; i >= 0; --i)
    idx = idx * 3 + static_cast<int>(in(i));
  return t[static_cast<std::size_t>(kind)][static_cast<std::size_t>(idx)];
}

LogicV Output(std::uint8_t packed, int k) {
  return static_cast<LogicV>((packed >> (2 * k)) & 3u);
}

}  // namespace

void Evaluate3(tech::CellKind kind, const LogicV* in, LogicV* out) {
  const std::uint8_t packed =
      LookUp(TernaryTables(), kind, [in](int i) { return in[i]; });
  for (int k = 0; k < tech::NumOutputs(kind); ++k) out[k] = Output(packed, k);
}

CaseAnalysis::CaseAnalysis(const Netlist& nl,
                           const std::vector<ForcedValue>& forced)
    : values_(nl.num_nets(), LogicV::kX) {
  for (const ForcedValue& f : forced) {
    ADQ_CHECK_MSG(nl.net(f.net).is_primary_input,
                  "case analysis can only force primary-input ports");
    values_[f.net.index()] = FromBool(f.value);
  }

  const std::vector<InstId> order = TopologicalOrder(nl);
  const auto& tables = TernaryTables();

  // DFF Q values: X initially. Demotion to "sticky X" guarantees
  // termination: each register moves at most X -> const -> sticky X.
  std::vector<bool> sticky(nl.num_instances(), false);

  // Iterate comb propagation + register transfer to a fixpoint.
  // Each pass is a full topological sweep, so the comb part is exact
  // after one pass for the current register assumptions.
  bool changed = true;
  int guard = 0;
  while (changed) {
    changed = false;
    ADQ_CHECK_MSG(++guard <= 64, "case analysis failed to converge");

    for (const InstId id : order) {
      const Instance& inst = nl.inst(id);
      if (inst.is_sequential()) continue;  // handled below
      const std::uint8_t packed =
          LookUp(tables, inst.kind, [&](int p) {
            return values_[inst.in[static_cast<std::size_t>(p)].index()];
          });
      for (int o = 0; o < inst.num_outputs(); ++o) {
        LogicV& slot = values_[inst.out[o].index()];
        if (slot != Output(packed, o)) {
          slot = Output(packed, o);
          changed = true;
        }
      }
    }

    // Register transfer: Q adopts D's constant if provable and stable.
    for (std::size_t i = 0; i < nl.num_instances(); ++i) {
      const Instance& inst = nl.instances()[i];
      if (!inst.is_sequential() || sticky[i]) continue;
      const LogicV d = values_[inst.in[0].index()];
      LogicV& q = values_[inst.out[0].index()];
      if (q == LogicV::kX) {
        if (d != LogicV::kX) {
          q = d;
          changed = true;
        }
      } else if (d != q) {
        // The assumed register constant was inconsistent with its own
        // fanin once propagated — demote to X permanently.
        q = LogicV::kX;
        sticky[i] = true;
        changed = true;
      }
    }
  }

  for (const LogicV v : values_)
    if (v != LogicV::kX) ++num_constant_;

  // FNV-1a over the resolved per-net values. The object is immutable
  // after construction, so the digest is computed once here; callers
  // that cache derived state (sta::IncrementalSta) compare digests
  // instead of object addresses, which stack reuse can alias.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const LogicV v : values_) {
    h ^= static_cast<std::uint8_t>(v);
    h *= 0x100000001b3ULL;
  }
  fingerprint_ = h ^ values_.size();
}

}  // namespace adq::netlist
