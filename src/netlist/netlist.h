#pragma once
/// \file netlist.h
/// \brief Gate-level structural netlist IR.
///
/// A Netlist is a technology-mapped circuit: instances of library
/// cells connected by single-driver nets, plus named primary ports.
/// Ports are additionally grouped into *buses* (e.g. operand "a",
/// bits 0..15) because the accuracy knob of the methodology zeroes
/// LSBs of specific operand buses at runtime.
///
/// Register discipline: the generators produce registered operators —
/// input DFFs on every operand bit, output DFFs on every result bit —
/// so timing startpoints are input-register Q pins and endpoints are
/// output-register D pins, exactly the endpoint population whose slack
/// histogram the paper's Fig. 1 shows.

#include <array>
#include <string>
#include <vector>

#include "netlist/ids.h"
#include "tech/cell.h"
#include "util/check.h"

namespace adq::netlist {

/// One placed-library-cell instance. Input/output pin nets are stored
/// inline, sized by the library-wide pin ceilings (tech::
/// kMaxCellInputs / kMaxCellOutputs) so a future wider cell fails the
/// evaluator DCHECKs instead of silently overrunning these arrays.
struct Instance {
  tech::CellKind kind = tech::CellKind::kInv;
  tech::DriveStrength drive = tech::DriveStrength::kX1;
  std::array<NetId, tech::kMaxCellInputs> in{};
  std::array<NetId, tech::kMaxCellOutputs> out{};

  int num_inputs() const { return tech::NumInputs(kind); }
  int num_outputs() const { return tech::NumOutputs(kind); }
  bool is_sequential() const { return tech::IsSequential(kind); }
};

/// A single-driver net. The driver is either a cell output pin or a
/// primary input port (driver.valid() == false in that case).
struct Net {
  PinRef driver;                 ///< driving cell pin; invalid for PIs
  std::vector<PinRef> sinks;     ///< cell input pins reading this net
  bool is_primary_input = false;
  bool is_primary_output = false;
};

/// A named, ordered group of port nets (bit 0 = LSB).
struct Bus {
  std::string name;
  std::vector<NetId> bits;
  int width() const { return static_cast<int>(bits.size()); }
};

class Netlist {
 public:
  explicit Netlist(std::string name = "design") : name_(std::move(name)) {}

  // --- construction -----------------------------------------------------

  /// Creates a floating net (no driver yet).
  NetId NewNet();

  /// Adds a cell whose output nets are freshly created and returned.
  /// `ins` must have exactly NumInputs(kind) entries, all valid.
  /// Returns the output nets (1 or 2 of them are meaningful).
  std::array<NetId, 2> AddCell(tech::CellKind kind, tech::DriveStrength drive,
                               const std::vector<NetId>& ins);

  /// Single-output convenience wrapper around AddCell.
  NetId AddGate(tech::CellKind kind, const std::vector<NetId>& ins,
                tech::DriveStrength drive = tech::DriveStrength::kX1);

  /// Adds a cell driving pre-created (floating) nets instead of fresh
  /// ones. Needed for feedback through registers: create the Q net
  /// first, build the logic that reads it, then instantiate the DFF.
  /// `outs` must have exactly NumOutputs(kind) driverless nets.
  void AddCellWithOutputs(tech::CellKind kind, tech::DriveStrength drive,
                          const std::vector<NetId>& ins,
                          const std::vector<NetId>& outs);

  /// Declares a primary-input port net (returned net has no driver).
  NetId AddInputPort(const std::string& name);
  /// Declares `net` as a primary output with the given port name.
  void AddOutputPort(const std::string& name, NetId net);

  /// Registers a named input/output bus over already-declared ports.
  void AddInputBus(const std::string& name, std::vector<NetId> bits);
  void AddOutputBus(const std::string& name, std::vector<NetId> bits);

  /// Constant nets: lazily instantiated tie cells, one per polarity.
  NetId ConstNet(bool value);

  /// Changes the drive strength of an instance (used by the sizing
  /// optimizer; electrical data is looked up from the library so the
  /// netlist itself stays purely structural).
  void SetDrive(InstId inst, tech::DriveStrength d);

  /// Moves one sink pin from its current net onto `new_net` (used by
  /// buffer-tree insertion). The pin must currently be connected.
  void RewireSink(PinRef sink, NetId new_net);

  // --- access -----------------------------------------------------------

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t num_instances() const { return instances_.size(); }
  std::size_t num_nets() const { return nets_.size(); }

  const Instance& inst(InstId id) const {
    ADQ_DCHECK(id.index() < instances_.size());
    return instances_[id.index()];
  }
  const Net& net(NetId id) const {
    ADQ_DCHECK(id.index() < nets_.size());
    return nets_[id.index()];
  }

  const std::vector<Instance>& instances() const { return instances_; }
  const std::vector<Net>& nets() const { return nets_; }

  const std::vector<NetId>& primary_inputs() const { return primary_inputs_; }
  const std::vector<NetId>& primary_outputs() const {
    return primary_outputs_;
  }
  const std::vector<Bus>& input_buses() const { return input_buses_; }
  const std::vector<Bus>& output_buses() const { return output_buses_; }

  /// Looks up an input bus by name; checks it exists.
  const Bus& InputBus(const std::string& name) const;
  const Bus& OutputBus(const std::string& name) const;

  /// Port name of a primary input/output net ("" if not a port).
  const std::string& PortName(NetId id) const;

  /// Verifies structural invariants: every net has a driver (cell pin,
  /// PI, or tie), pin nets are valid, sink lists are consistent.
  /// Throws CheckError on violation.
  void Validate() const;

  /// Test-only backdoor used by lint fixtures to corrupt a netlist in
  /// ways the construction API (correctly) refuses — stale driver
  /// back-references, duplicate sinks, unflagged bus bits. Production
  /// code must never use it.
  friend struct RawAccess;

 private:
  InstId AddInstance(tech::CellKind kind, tech::DriveStrength drive,
                     const std::vector<NetId>& ins);

  std::string name_;
  std::vector<Instance> instances_;
  std::vector<Net> nets_;
  std::vector<std::string> net_port_names_;  // parallel to nets_
  std::vector<NetId> primary_inputs_;
  std::vector<NetId> primary_outputs_;
  std::vector<Bus> input_buses_;
  std::vector<Bus> output_buses_;
  NetId const_net_[2];  // lazily created TIELO / TIEHI outputs
};

/// Mutable access to a Netlist's internals, for tests that need to
/// construct deliberately broken netlists (lint rule fixtures).
struct RawAccess {
  explicit RawAccess(Netlist& nl) : nl_(nl) {}

  Net& net(NetId id) { return nl_.nets_[id.index()]; }
  Instance& inst(InstId id) { return nl_.instances_[id.index()]; }
  std::vector<Bus>& input_buses() { return nl_.input_buses_; }
  std::vector<Bus>& output_buses() { return nl_.output_buses_; }
  std::vector<NetId>& primary_inputs() { return nl_.primary_inputs_; }
  std::vector<NetId>& primary_outputs() { return nl_.primary_outputs_; }
  std::vector<std::string>& port_names() { return nl_.net_port_names_; }

 private:
  Netlist& nl_;
};

}  // namespace adq::netlist
