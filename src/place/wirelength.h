#pragma once
/// \file wirelength.h
/// \brief Net parasitics estimation from placement (the flow's
/// ".spef" stand-in).
///
/// Each net's route is estimated by its half-perimeter wirelength;
/// wire capacitance is HPWL * cap-per-um and the resistive wire delay
/// is a lumped Elmore-style term. Before placement exists (during the
/// synthesis-like sizing pass), fanout-based "wireload model"
/// estimates are used instead — exactly the practice of a wireload-
/// model synthesis followed by post-layout extraction.

#include <vector>

#include "netlist/netlist.h"
#include "place/placer.h"
#include "tech/cell_library.h"

namespace adq::place {

/// Per-net electrical loads (index = net id).
struct NetLoads {
  /// Total load seen by the net's driver: wire cap + sink pin caps [fF].
  std::vector<double> cap_ff;
  /// Additional fixed wire delay of the net [ns] at the reference
  /// operating point (scaled with drive like cell delay — an
  /// approximation that keeps per-condition STA cheap).
  std::vector<double> wire_delay_ns;
};

/// What a net's load depends on besides its sink pin caps, which is
/// all that sizing changes: the route length.
struct NetWires {
  /// Per net [um]: HPWL after placement, wireload estimate before.
  std::vector<double> length_um;
};

/// Each net's HPWL.
NetWires PlacedWires(const netlist::Netlist& nl, const Placement& pl);
/// Wireload model: 4 um for the first sink, +2.5 um per further sink.
NetWires FanoutWires(const netlist::Netlist& nl);

/// Per net: wire cap (length * cap-per-um) plus sink pin caps, and
/// the lumped wire delay.
NetLoads ComputeLoads(const netlist::Netlist& nl,
                      const tech::CellLibrary& lib, const NetWires& wires);
/// ComputeLoads for one net, in place (after resizing a sink).
void UpdateNetLoad(const netlist::Netlist& nl, const tech::CellLibrary& lib,
                   const NetWires& wires, netlist::NetId id,
                   NetLoads* loads);

/// Placement-based extraction: ComputeLoads over PlacedWires.
NetLoads ExtractLoads(const netlist::Netlist& nl,
                      const tech::CellLibrary& lib, const Placement& pl);

/// Pre-placement loads: ComputeLoads over FanoutWires.
NetLoads EstimateLoadsByFanout(const netlist::Netlist& nl,
                               const tech::CellLibrary& lib);

/// Half-perimeter wirelength of one net [um].
double NetHpwl(const netlist::Netlist& nl, const Placement& pl,
               netlist::NetId id);

}  // namespace adq::place
