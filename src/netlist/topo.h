#pragma once
/// \file topo.h
/// \brief Topological ordering and levelization of the combinational
/// part of a netlist.
///
/// Registers cut the graph: DFF output (Q) nets are sources like
/// primary inputs, DFF input (D) pins are sinks like primary outputs.
/// Feedback loops through registers (e.g. a MAC accumulator) are
/// therefore legal; purely combinational loops are a structural error.

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.h"

namespace adq::netlist {

/// Returns every instance exactly once, with tie cells and DFFs first
/// and every combinational instance after the combinational drivers of
/// all of its inputs. Throws CheckError on a combinational loop.
std::vector<InstId> TopologicalOrder(const Netlist& nl);

/// Logic level of each instance (index = instance id): ties/DFFs/PIs
/// are level 0 sources; a combinational cell is 1 + max(level of
/// driving cells). Useful for depth statistics.
std::vector<int> Levelize(const Netlist& nl);

/// Maximum combinational logic depth (levels) of the design.
int LogicDepth(const Netlist& nl);

/// The tie and combinational cells of a netlist compiled for
/// word-parallel sweeps (the packed simulator, case analysis): cells
/// grouped by (Levelize level, kind), levels ascending, with flat net
/// index arrays. Ties sit at level 0; DFFs are excluded. Running the
/// groups in order is a topological sweep, and every cell of a group
/// runs the same code. Any topological order writes the same words,
/// because each net is written once per sweep from its inputs' final
/// values.
struct CellTape {
  struct Group {
    tech::CellKind kind = tech::CellKind::kBuf;
    std::uint32_t begin = 0;  // cells [begin, end) of the tape
    std::uint32_t end = 0;
    std::uint32_t in = 0;   // first input of cell `begin` in `in`
    std::uint32_t out = 0;  // first output of cell `begin` in `out`
  };
  std::vector<Group> groups;
  std::vector<std::uint32_t> in;   // NumInputs(kind) net indices per cell
  std::vector<std::uint32_t> out;  // NumOutputs(kind) net indices per cell
};

/// Compiles `nl`. Throws CheckError on a combinational loop.
CellTape CompileTape(const Netlist& nl);

/// Runs the groups of `tape` in order: a group of n cells of kind K
/// calls Kernel<K>::Run(n, in, out, args...), where `in` and `out`
/// point at its first cell's net indices. Each kernel sees its kind as
/// a constant, so its loop compiles without a per-cell kind branch.
template <template <tech::CellKind> class Kernel, typename... Args>
void RunTape(const CellTape& tape, Args... args) {
  using Fn = void (*)(std::uint32_t, const std::uint32_t*,
                      const std::uint32_t*, Args...);
  static constexpr auto kKernels =
      []<std::size_t... K>(std::index_sequence<K...>) {
        return std::array<Fn, sizeof...(K)>{
            &Kernel<static_cast<tech::CellKind>(K)>::Run...};
      }(std::make_index_sequence<tech::kNumCellKinds>{});
  for (const CellTape::Group& g : tape.groups)
    kKernels[static_cast<std::size_t>(g.kind)](
        g.end - g.begin, tape.in.data() + g.in, tape.out.data() + g.out,
        args...);
}

}  // namespace adq::netlist
