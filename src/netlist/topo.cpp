#include "netlist/topo.h"

#include <algorithm>
#include <deque>
#include <numeric>

namespace adq::netlist {

namespace {

/// True if this instance participates in combinational ordering
/// (ties and DFFs are graph sources, not ordered nodes).
bool IsComb(const Instance& inst) {
  return !inst.is_sequential() && !tech::IsTie(inst.kind);
}

}  // namespace

std::vector<InstId> TopologicalOrder(const Netlist& nl) {
  const std::size_t n = nl.num_instances();
  std::vector<int> pending(n, 0);  // unresolved combinational fanins
  std::vector<InstId> order;
  order.reserve(n);
  std::deque<InstId> ready;

  // Sources first: ties, then DFFs (stable, id order).
  for (std::size_t i = 0; i < n; ++i) {
    const Instance& inst = nl.instances()[i];
    if (tech::IsTie(inst.kind)) order.push_back(InstId((std::uint32_t)i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Instance& inst = nl.instances()[i];
    if (inst.is_sequential()) order.push_back(InstId((std::uint32_t)i));
  }

  for (std::size_t i = 0; i < n; ++i) {
    const Instance& inst = nl.instances()[i];
    if (!IsComb(inst)) continue;
    int deps = 0;
    for (int p = 0; p < inst.num_inputs(); ++p) {
      const Net& net = nl.net(inst.in[p]);
      if (net.driver.valid() && IsComb(nl.inst(net.driver.inst))) ++deps;
    }
    pending[i] = deps;
    if (deps == 0) ready.push_back(InstId((std::uint32_t)i));
  }

  std::size_t comb_count = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (IsComb(nl.instances()[i])) ++comb_count;

  std::size_t emitted = 0;
  while (!ready.empty()) {
    const InstId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    ++emitted;
    const Instance& inst = nl.inst(id);
    for (int o = 0; o < inst.num_outputs(); ++o) {
      for (const PinRef& sink : nl.net(inst.out[o]).sinks) {
        if (!IsComb(nl.inst(sink.inst))) continue;
        if (--pending[sink.inst.index()] == 0) ready.push_back(sink.inst);
      }
    }
  }
  ADQ_CHECK_MSG(emitted == comb_count,
                "combinational loop: ordered " << emitted << " of "
                                               << comb_count << " cells");
  return order;
}

std::vector<int> Levelize(const Netlist& nl) {
  std::vector<int> level(nl.num_instances(), 0);
  for (const InstId id : TopologicalOrder(nl)) {
    const Instance& inst = nl.inst(id);
    if (!IsComb(inst)) continue;
    int lv = 0;
    for (int p = 0; p < inst.num_inputs(); ++p) {
      const Net& net = nl.net(inst.in[p]);
      if (!net.driver.valid()) continue;
      const Instance& drv = nl.inst(net.driver.inst);
      if (IsComb(drv)) lv = std::max(lv, level[net.driver.inst.index()]);
    }
    level[id.index()] = lv + 1;
  }
  return level;
}

int LogicDepth(const Netlist& nl) {
  const auto levels = Levelize(nl);
  return levels.empty() ? 0 : *std::max_element(levels.begin(), levels.end());
}

CellTape CompileTape(const Netlist& nl) {
  const std::vector<int> level = Levelize(nl);
  const auto key = [&](std::size_t i) {
    return static_cast<std::size_t>(level[i]) * tech::kNumCellKinds +
           static_cast<std::size_t>(nl.instances()[i].kind);
  };
  // Counting sort of the non-DFF cells by (level, kind), stable in
  // instance order.
  const int depth =
      level.empty() ? 0 : *std::max_element(level.begin(), level.end());
  std::vector<std::uint32_t> at(
      (static_cast<std::size_t>(depth) + 1) * tech::kNumCellKinds + 1, 0);
  for (std::size_t i = 0; i < level.size(); ++i)
    if (!nl.instances()[i].is_sequential()) ++at[key(i) + 1];
  std::partial_sum(at.begin(), at.end(), at.begin());
  std::vector<std::uint32_t> cells(at.back());
  for (std::size_t i = 0; i < level.size(); ++i)
    if (!nl.instances()[i].is_sequential())
      cells[at[key(i)]++] = static_cast<std::uint32_t>(i);
  CellTape tape;
  tape.in.reserve(cells.size() * tech::kMaxCellInputs);
  tape.out.reserve(cells.size() * tech::kMaxCellOutputs);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Instance& inst = nl.instances()[cells[c]];
    if (c == 0 || key(cells[c]) != key(cells[c - 1]))
      tape.groups.push_back({inst.kind, static_cast<std::uint32_t>(c), 0,
                             static_cast<std::uint32_t>(tape.in.size()),
                             static_cast<std::uint32_t>(tape.out.size())});
    tape.groups.back().end = static_cast<std::uint32_t>(c + 1);
    for (int p = 0; p < inst.num_inputs(); ++p)
      tape.in.push_back(inst.in[static_cast<std::size_t>(p)].value);
    for (int o = 0; o < inst.num_outputs(); ++o)
      tape.out.push_back(inst.out[static_cast<std::size_t>(o)].value);
  }
  return tape;
}

}  // namespace adq::netlist
