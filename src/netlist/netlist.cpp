#include "netlist/netlist.h"

#include <algorithm>

namespace adq::netlist {

NetId Netlist::NewNet() {
  nets_.emplace_back();
  net_port_names_.emplace_back();
  return NetId(static_cast<std::uint32_t>(nets_.size() - 1));
}

InstId Netlist::AddInstance(tech::CellKind kind, tech::DriveStrength drive,
                            const std::vector<NetId>& ins) {
  ADQ_CHECK_MSG(static_cast<int>(ins.size()) == tech::NumInputs(kind),
                "cell " << tech::ToString(kind) << " wants "
                        << tech::NumInputs(kind) << " inputs, got "
                        << ins.size());
  Instance inst;
  inst.kind = kind;
  inst.drive = drive;
  const InstId id(static_cast<std::uint32_t>(instances_.size()));
  for (std::size_t i = 0; i < ins.size(); ++i) {
    ADQ_CHECK(ins[i].valid() && ins[i].index() < nets_.size());
    inst.in[i] = ins[i];
    nets_[ins[i].index()].sinks.push_back(
        PinRef{id, static_cast<std::uint8_t>(i)});
  }
  instances_.push_back(inst);
  return id;
}

std::array<NetId, 2> Netlist::AddCell(tech::CellKind kind,
                                      tech::DriveStrength drive,
                                      const std::vector<NetId>& ins) {
  const InstId id = AddInstance(kind, drive, ins);
  std::array<NetId, 2> outs{};
  const int n_out = tech::NumOutputs(kind);
  for (int o = 0; o < n_out; ++o) {
    const NetId out = NewNet();
    nets_[out.index()].driver = PinRef{id, static_cast<std::uint8_t>(o)};
    instances_[id.index()].out[o] = out;
    outs[o] = out;
  }
  return outs;
}

void Netlist::AddCellWithOutputs(tech::CellKind kind,
                                 tech::DriveStrength drive,
                                 const std::vector<NetId>& ins,
                                 const std::vector<NetId>& outs) {
  ADQ_CHECK_MSG(static_cast<int>(outs.size()) == tech::NumOutputs(kind),
                "cell " << tech::ToString(kind) << " has "
                        << tech::NumOutputs(kind) << " outputs, got "
                        << outs.size());
  const InstId id = AddInstance(kind, drive, ins);
  for (std::size_t o = 0; o < outs.size(); ++o) {
    ADQ_CHECK(outs[o].valid() && outs[o].index() < nets_.size());
    Net& net = nets_[outs[o].index()];
    ADQ_CHECK_MSG(!net.driver.valid() && !net.is_primary_input,
                  "output net already driven");
    net.driver = PinRef{id, static_cast<std::uint8_t>(o)};
    instances_[id.index()].out[o] = outs[o];
  }
}

NetId Netlist::AddGate(tech::CellKind kind, const std::vector<NetId>& ins,
                       tech::DriveStrength drive) {
  ADQ_CHECK(tech::NumOutputs(kind) == 1);
  return AddCell(kind, drive, ins)[0];
}

NetId Netlist::AddInputPort(const std::string& name) {
  const NetId id = NewNet();
  nets_[id.index()].is_primary_input = true;
  net_port_names_[id.index()] = name;
  primary_inputs_.push_back(id);
  return id;
}

void Netlist::AddOutputPort(const std::string& name, NetId net) {
  ADQ_CHECK(net.valid() && net.index() < nets_.size());
  ADQ_CHECK_MSG(!nets_[net.index()].is_primary_output,
                "net already declared as output port");
  nets_[net.index()].is_primary_output = true;
  net_port_names_[net.index()] = name;
  primary_outputs_.push_back(net);
}

void Netlist::AddInputBus(const std::string& name, std::vector<NetId> bits) {
  for (NetId b : bits) ADQ_CHECK(net(b).is_primary_input);
  input_buses_.push_back(Bus{name, std::move(bits)});
}

void Netlist::AddOutputBus(const std::string& name, std::vector<NetId> bits) {
  for (NetId b : bits) ADQ_CHECK(net(b).is_primary_output);
  output_buses_.push_back(Bus{name, std::move(bits)});
}

NetId Netlist::ConstNet(bool value) {
  NetId& cached = const_net_[value ? 1 : 0];
  if (!cached.valid()) {
    cached = AddCell(value ? tech::CellKind::kTieHi : tech::CellKind::kTieLo,
                     tech::DriveStrength::kX1, {})[0];
  }
  return cached;
}

void Netlist::SetDrive(InstId inst, tech::DriveStrength d) {
  ADQ_CHECK(inst.index() < instances_.size());
  instances_[inst.index()].drive = d;
}

void Netlist::RewireSink(PinRef sink, NetId new_net) {
  ADQ_CHECK(sink.valid() && sink.inst.index() < instances_.size());
  ADQ_CHECK(new_net.valid() && new_net.index() < nets_.size());
  Instance& inst = instances_[sink.inst.index()];
  ADQ_CHECK(sink.pin < inst.num_inputs());
  const NetId old_net = inst.in[sink.pin];
  ADQ_CHECK(old_net.valid());
  auto& old_sinks = nets_[old_net.index()].sinks;
  const auto it = std::find(old_sinks.begin(), old_sinks.end(), sink);
  ADQ_CHECK_MSG(it != old_sinks.end(), "sink not found on its net");
  old_sinks.erase(it);
  inst.in[sink.pin] = new_net;
  nets_[new_net.index()].sinks.push_back(sink);
}

const Bus& Netlist::InputBus(const std::string& name) const {
  auto it = std::find_if(input_buses_.begin(), input_buses_.end(),
                         [&](const Bus& b) { return b.name == name; });
  ADQ_CHECK_MSG(it != input_buses_.end(), "no input bus named " << name);
  return *it;
}

const Bus& Netlist::OutputBus(const std::string& name) const {
  auto it = std::find_if(output_buses_.begin(), output_buses_.end(),
                         [&](const Bus& b) { return b.name == name; });
  ADQ_CHECK_MSG(it != output_buses_.end(), "no output bus named " << name);
  return *it;
}

const std::string& Netlist::PortName(NetId id) const {
  ADQ_DCHECK(id.index() < net_port_names_.size());
  return net_port_names_[id.index()];
}

void Netlist::Validate() const {
  for (std::size_t n = 0; n < nets_.size(); ++n) {
    const Net& net = nets_[n];
    const bool has_cell_driver = net.driver.valid();
    ADQ_CHECK_MSG(has_cell_driver || net.is_primary_input,
                  "net " << n << " has no driver and is not a PI");
    if (has_cell_driver) {
      ADQ_CHECK(!net.is_primary_input);
      const Instance& d = inst(net.driver.inst);
      ADQ_CHECK(net.driver.pin < d.num_outputs());
      ADQ_CHECK(d.out[net.driver.pin] == NetId(static_cast<std::uint32_t>(n)));
    }
    for (const PinRef& s : net.sinks) {
      const Instance& si = inst(s.inst);
      ADQ_CHECK(s.pin < si.num_inputs());
      ADQ_CHECK(si.in[s.pin] == NetId(static_cast<std::uint32_t>(n)));
    }
  }
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Instance& in = instances_[i];
    for (int p = 0; p < in.num_inputs(); ++p)
      ADQ_CHECK_MSG(in.in[p].valid(),
                    "instance " << i << " input pin " << p << " unconnected");
    for (int o = 0; o < in.num_outputs(); ++o)
      ADQ_CHECK_MSG(in.out[o].valid(),
                    "instance " << i << " output pin " << o << " unconnected");
  }
}

}  // namespace adq::netlist
