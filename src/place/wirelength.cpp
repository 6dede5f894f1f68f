#include "place/wirelength.h"

namespace adq::place {

using netlist::NetId;
using netlist::Netlist;

namespace {

/// Sum of sink input-pin capacitances of a net.
double PinCap(const Netlist& nl, const tech::CellLibrary& lib, NetId id) {
  double cap = 0.0;
  for (const netlist::PinRef& s : nl.net(id).sinks) {
    const netlist::Instance& inst = nl.inst(s.inst);
    cap += lib.Variant(inst.kind, inst.drive).cap_in_ff;
  }
  return cap;
}

}  // namespace

NetWires PlacedWires(const Netlist& nl, const Placement& pl) {
  NetWires w;
  w.length_um.resize(nl.num_nets());
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n)
    w.length_um[n] = NetHpwl(nl, pl, NetId(n));
  return w;
}

NetWires FanoutWires(const Netlist& nl) {
  NetWires w;
  w.length_um.resize(nl.num_nets());
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
    const std::size_t fanout = nl.net(NetId(n)).sinks.size();
    // 28nm-scale short nets.
    w.length_um[n] =
        fanout == 0 ? 0.0 : 4.0 + 2.5 * static_cast<double>(fanout - 1);
  }
  return w;
}

void UpdateNetLoad(const Netlist& nl, const tech::CellLibrary& lib,
                   const NetWires& wires, NetId id, NetLoads* loads) {
  const std::size_t n = id.index();
  const double len = wires.length_um[n];
  const double cap = len * lib.wire_cap_ff_per_um() + PinCap(nl, lib, id);
  loads->cap_ff[n] = cap;
  loads->wire_delay_ns[n] = lib.wire_delay_ns_per_um_ff() * len * cap;
}

NetLoads ComputeLoads(const Netlist& nl, const tech::CellLibrary& lib,
                      const NetWires& wires) {
  ADQ_CHECK(wires.length_um.size() == nl.num_nets());
  NetLoads loads;
  loads.cap_ff.resize(nl.num_nets());
  loads.wire_delay_ns.resize(nl.num_nets());
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n)
    UpdateNetLoad(nl, lib, wires, NetId(n), &loads);
  return loads;
}

NetLoads ExtractLoads(const Netlist& nl, const tech::CellLibrary& lib,
                      const Placement& pl) {
  return ComputeLoads(nl, lib, PlacedWires(nl, pl));
}

NetLoads EstimateLoadsByFanout(const Netlist& nl,
                               const tech::CellLibrary& lib) {
  return ComputeLoads(nl, lib, FanoutWires(nl));
}

}  // namespace adq::place
