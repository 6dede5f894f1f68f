#include "gen/operator.h"

#include <algorithm>

#include "gen/adders.h"
#include "gen/array_mult.h"
#include "gen/booth.h"
#include "gen/wallace.h"

namespace adq::gen {

std::vector<netlist::ForcedValue> ForcedZeroLsbs(const Operator& op,
                                                 int zeroed_lsbs) {
  std::vector<netlist::ForcedValue> forced;
  for (const std::string& bus_name : op.spec.scalable_buses) {
    const netlist::Bus& bus = op.nl.InputBus(bus_name);
    const int z = std::min(zeroed_lsbs, bus.width());
    for (int i = 0; i < z; ++i)
      forced.push_back(
          netlist::ForcedValue{bus.bits[static_cast<std::size_t>(i)], false});
  }
  return forced;
}

using netlist::NetId;
using netlist::Netlist;
using tech::CellKind;
using tech::DriveStrength;

Word RegisteredInputBus(Netlist& nl, const std::string& name, int width) {
  ADQ_CHECK(width >= 1);
  Word q;
  std::vector<NetId> ports;
  q.reserve(width);
  ports.reserve(width);
  for (int i = 0; i < width; ++i) {
    const NetId port =
        nl.AddInputPort(name + "[" + std::to_string(i) + "]");
    ports.push_back(port);
    q.push_back(nl.AddGate(CellKind::kDff, {port}));
  }
  nl.AddInputBus(name, std::move(ports));
  return q;
}

void RegisteredOutputBus(Netlist& nl, const std::string& name,
                         const Word& w) {
  std::vector<NetId> ports;
  ports.reserve(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const NetId qn = nl.AddGate(CellKind::kDff, {w[i]});
    nl.AddOutputPort(name + "[" + std::to_string(i) + "]", qn);
    ports.push_back(qn);
  }
  nl.AddOutputBus(name, std::move(ports));
}

Word StateRegisterOutputs(Netlist& nl, int width) {
  Word q;
  q.reserve(width);
  for (int i = 0; i < width; ++i) q.push_back(nl.NewNet());
  return q;
}

void ConnectStateRegisters(Netlist& nl, const Word& q, const Word& d) {
  ADQ_CHECK(q.size() == d.size());
  for (std::size_t i = 0; i < q.size(); ++i)
    nl.AddCellWithOutputs(CellKind::kDff, DriveStrength::kX1, {d[i]},
                          {q[i]});
}

Operator BuildBoothOperator(int width) {
  ADQ_CHECK(width >= 4 && width % 2 == 0);
  Operator op;
  op.nl.set_name("booth_mult" + std::to_string(width));
  op.spec = OperatorSpec{op.nl.name(), {"a", "b"}, width,
                         /*target_clock_ns=*/0.8};

  const Word a = RegisteredInputBus(op.nl, "a", width);
  const Word b = RegisteredInputBus(op.nl, "b", width);
  const Word p = BoothMultiplySigned(op.nl, a, b);
  RegisteredOutputBus(op.nl, "p", p);
  op.nl.Validate();
  return op;
}

Operator BuildButterflyOperator(int width) {
  ADQ_CHECK(width >= 4 && width % 2 == 0);
  Operator op;
  op.nl.set_name("butterfly" + std::to_string(width));
  op.spec = OperatorSpec{op.nl.name(),
                         {"br", "bi", "wr", "wi"},
                         width,
                         /*target_clock_ns=*/1.0};
  Netlist& nl = op.nl;

  const Word ar = RegisteredInputBus(nl, "ar", width);
  const Word ai = RegisteredInputBus(nl, "ai", width);
  const Word br = RegisteredInputBus(nl, "br", width);
  const Word bi = RegisteredInputBus(nl, "bi", width);
  const Word wr = RegisteredInputBus(nl, "wr", width);
  const Word wi = RegisteredInputBus(nl, "wi", width);

  // Three-multiplier complex product B*W (Karatsuba-style):
  //   k1 = wr * (br + bi)
  //   k2 = br * (wi - wr)
  //   k3 = bi * (wr + wi)
  //   Re(B*W) = k1 - k3,   Im(B*W) = k1 + k2
  const int we = width + 1;        // pre-adder result width
  const Word s1 = AddSigned(nl, br, bi, we);
  const Word s2 = SubSigned(nl, wi, wr, we);
  const Word s3 = AddSigned(nl, wr, wi, we);
  const Word k1 = BoothMultiplySigned(nl, s1, wr);  // we + width bits
  const Word k2 = BoothMultiplySigned(nl, s2, br);
  const Word k3 = BoothMultiplySigned(nl, s3, bi);

  // Twiddles are Q(width-1) unit-magnitude values; products are
  // scaled down by 2^(width-1). The output adders are fused into one
  // carry-save stage per output using the exact identity
  //   a + (s >> k)  ==  ((a << k) + s) >> k   (arithmetic shift),
  // which removes one full carry-propagate adder from the critical
  // path — the kind of restructuring a synthesis tool performs.
  const int shift = width - 1;
  const int pw = we + width + 1;  // 34 bits for width 16
  const int ow = width + 2;       // 18 bits for width 16
  const netlist::NetId one = nl.ConstNet(true);

  // Builds (a << shift) + sum(terms) via Wallace reduction + one
  // Kogge-Stone CPA, then slices the scaled output window.
  struct Term {
    const Word* w;
    bool negate;
  };
  auto fused_output = [&](const Word& addend,
                          std::initializer_list<Term> terms) {
    BitMatrix m;
    AddRow(m, SignExtend(addend, pw - shift), shift);
    for (const Term& t : terms) {
      if (t.negate) {
        AddRow(m, Not(nl, SignExtend(*t.w, pw)), 0);
        AddBit(m, one, 0);
      } else {
        AddRow(m, SignExtend(*t.w, pw), 0);
      }
    }
    if (m.size() > static_cast<std::size_t>(pw)) m.resize(pw);
    TwoRows rows = ReduceToTwo(nl, std::move(m));
    const Word sa = ZeroExtend(nl, rows.a, pw);
    const Word sb = ZeroExtend(nl, rows.b, pw);
    Word sum = KoggeStoneAdder(nl, sa, sb, nl.ConstNet(false)).sum;
    Word out(sum.begin() + shift, sum.end());
    out.resize(ow);
    return out;
  };

  // Re(B*W) = k1 - k3, Im(B*W) = k1 + k2.
  const Word xr = fused_output(ar, {{&k1, false}, {&k3, true}});
  const Word xi = fused_output(ai, {{&k1, false}, {&k2, false}});
  const Word yr = fused_output(ar, {{&k1, true}, {&k3, false}});
  const Word yi = fused_output(ai, {{&k1, true}, {&k2, true}});

  RegisteredOutputBus(nl, "xr", xr);
  RegisteredOutputBus(nl, "xi", xi);
  RegisteredOutputBus(nl, "yr", yr);
  RegisteredOutputBus(nl, "yi", yi);
  nl.Validate();
  return op;
}

Operator BuildFirMacOperator(int width) {
  ADQ_CHECK(width >= 4 && width % 2 == 0);
  Operator op;
  op.nl.set_name("fir_mac" + std::to_string(width));
  op.spec = OperatorSpec{
      op.nl.name(),
      {"x0", "x1", "x2", "x3", "c0", "c1", "c2", "c3"},
      width,
      /*target_clock_ns=*/4.0 / 3.0};
  op.spec.accumulation_cycles =
      (kFirTaps + kFirMacsPerCycle - 1) / kFirMacsPerCycle;
  Netlist& nl = op.nl;

  // Quad-MAC slice: four sample/coefficient pairs per cycle; a 30-tap
  // filter completes in ceil(30/4) = 8 cycles (trailing coefficients
  // padded with zero).
  Word x[4], c[4], p[4];
  for (int k = 0; k < 4; ++k) {
    x[k] = RegisteredInputBus(nl, "x" + std::to_string(k), width);
    c[k] = RegisteredInputBus(nl, "c" + std::to_string(k), width);
  }
  const Word clr = RegisteredInputBus(nl, "clr", 1);
  for (int k = 0; k < 4; ++k) p[k] = BoothMultiplySigned(nl, x[k], c[k]);

  // Accumulator: products and the accumulator feedback are fused in
  // one carry-save reduction followed by a single group-CLA adder —
  // the carry chain is the bitwidth-sensitive part of the path.
  // Width: 2w products + log2(4 * 8 cycles) headroom.
  const int aw = 2 * width + 8;
  const Word acc_q = StateRegisterOutputs(nl, aw);
  BitMatrix m;
  for (int k = 0; k < 4; ++k) AddRow(m, SignExtend(p[k], aw), 0);
  AddRow(m, acc_q, 0);
  if (m.size() > static_cast<std::size_t>(aw)) m.resize(aw);
  TwoRows rows = ReduceToTwo(nl, std::move(m));
  const Word sa = ZeroExtend(nl, rows.a, aw);
  const Word sb = ZeroExtend(nl, rows.b, aw);
  Word acc_sum = CarryLookaheadAdder(nl, sa, sb, nl.ConstNet(false)).sum;
  acc_sum.resize(aw);

  // Synchronous clear gates the accumulator input.
  const NetId nclr = nl.AddGate(CellKind::kInv, {clr[0]});
  const Word acc_d = AndAll(nl, acc_sum, nclr);
  ConnectStateRegisters(nl, acc_q, acc_d);

  RegisteredOutputBus(nl, "y", acc_q);
  nl.Validate();
  return op;
}

Operator BuildMacOperator(int width) {
  ADQ_CHECK(width >= 4 && width % 2 == 0);
  Operator op;
  op.nl.set_name("mac" + std::to_string(width));
  op.spec = OperatorSpec{op.nl.name(), {"a", "b"}, width,
                         /*target_clock_ns=*/1.0};
  // Generic MAC meta-function: frame length of a 16-sample dot
  // product, the reference workload for the accumulator headroom.
  op.spec.accumulation_cycles = 16;
  Netlist& nl = op.nl;

  const Word a = RegisteredInputBus(nl, "a", width);
  const Word b = RegisteredInputBus(nl, "b", width);
  const Word clr = RegisteredInputBus(nl, "clr", 1);
  const Word p = BoothMultiplySigned(nl, a, b);

  const int aw = 2 * width + 8;
  const Word acc_q = StateRegisterOutputs(nl, aw);
  // Fused accumulate: product rows + feedback through one carry-save
  // stage and a single group-CLA adder (as in the FIR slice).
  BitMatrix m;
  AddRow(m, SignExtend(p, aw), 0);
  AddRow(m, acc_q, 0);
  if (m.size() > static_cast<std::size_t>(aw)) m.resize(aw);
  TwoRows rows = ReduceToTwo(nl, std::move(m));
  Word acc_sum = CarryLookaheadAdder(nl, ZeroExtend(nl, rows.a, aw),
                                     ZeroExtend(nl, rows.b, aw),
                                     nl.ConstNet(false))
                     .sum;
  acc_sum.resize(aw);
  const NetId nclr = nl.AddGate(CellKind::kInv, {clr[0]});
  ConnectStateRegisters(nl, acc_q, AndAll(nl, acc_sum, nclr));

  RegisteredOutputBus(nl, "acc", acc_q);
  nl.Validate();
  return op;
}

Operator BuildArrayMultOperator(int width) {
  ADQ_CHECK(width >= 4 && width % 2 == 0);
  Operator op;
  op.nl.set_name("array_mult" + std::to_string(width));
  op.spec = OperatorSpec{op.nl.name(), {"a", "b"}, width,
                         /*target_clock_ns=*/0.8};
  const Word a = RegisteredInputBus(op.nl, "a", width);
  const Word b = RegisteredInputBus(op.nl, "b", width);
  RegisteredOutputBus(op.nl, "p",
                      BaughWooleyMultiplySigned(op.nl, a, b));
  op.nl.Validate();
  return op;
}

}  // namespace adq::gen
