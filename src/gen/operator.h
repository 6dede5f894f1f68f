#pragma once
/// \file operator.h
/// \brief Registered "adequate operator" factories — the paper's
/// three benchmark designs plus generic building helpers.
///
/// An Operator is a netlist with the register discipline the
/// methodology assumes (input DFFs on operand bits, output DFFs on
/// result bits) plus metadata: which input buses the runtime accuracy
/// knob scales (their LSBs get clamped to zero) and the nominal
/// synthesis clock (paper Table I: Booth 1.25 GHz, butterfly 1.0 GHz,
/// FIR 0.75 GHz).

#include <string>
#include <vector>

#include "gen/words.h"
#include "netlist/case_analysis.h"

namespace adq::gen {

struct OperatorSpec {
  std::string name;
  /// Input buses whose LSBs are zeroed when accuracy is reduced.
  std::vector<std::string> scalable_buses;
  /// Full-accuracy operand width (bits of each scalable bus).
  int data_width = 16;
  /// Nominal clock period used for implementation [ns].
  double target_clock_ns = 1.0;
  /// Accumulator framing period in cycles: every accumulation_cycles
  /// cycles the "clr" bus is pulsed for one cycle during activity
  /// extraction (an operator without a clr bus leaves this 0). For the
  /// folded FIR this is the output-sample cadence ceil(taps/MACs).
  int accumulation_cycles = 0;
};

struct Operator {
  netlist::Netlist nl;
  OperatorSpec spec;
};

/// Case-analysis constants of the accuracy mode that clamps the
/// `zeroed_lsbs` least significant bits of every scalable input bus
/// to zero (bus by bus in spec order, bit 0 first).
std::vector<netlist::ForcedValue> ForcedZeroLsbs(const Operator& op,
                                                 int zeroed_lsbs);

/// Creates primary-input ports name[0..width-1], registers each
/// through a DFF, declares the bus, and returns the register outputs
/// (the nets the datapath reads).
Word RegisteredInputBus(netlist::Netlist& nl, const std::string& name,
                        int width);

/// Registers each bit of `w` through a DFF and exposes the register
/// outputs as primary-output ports name[0..], declaring the bus.
void RegisteredOutputBus(netlist::Netlist& nl, const std::string& name,
                         const Word& w);

/// Creates a bank of internal state registers: returns the Q nets
/// immediately (usable in feedback logic); call with the computed D
/// word later via ConnectStateRegisters.
Word StateRegisterOutputs(netlist::Netlist& nl, int width);
void ConnectStateRegisters(netlist::Netlist& nl, const Word& q,
                           const Word& d);

/// 16x16 Booth/Wallace multiplier operator. Buses: in a, b; out p
/// (32 bits). Scalable: a, b. Nominal clock 0.8 ns (1.25 GHz).
Operator BuildBoothOperator(int width = 16);

/// FFT butterfly operator (radix-2 DIT): X = A + B*W, Y = A - B*W with
/// a 3-multiplier complex multiply and Q15 twiddle scaling. Buses:
/// in ar, ai, br, bi, wr, wi; out xr, xi, yr, yi (18 bits each).
/// Scalable: br, bi, wr, wi. Nominal clock 1.0 ns (1 GHz).
Operator BuildButterflyOperator(int width = 16);

/// Folded 30-tap FIR datapath: a quad-MAC slice (four multipliers
/// fused into a carry-save accumulator with synchronous clear) that
/// computes one output sample in ceil(30/4) = 8 cycles. Buses: in
/// x0..x3, c0..c3, clr; out y (40 bits). Scalable: all x and c buses.
/// Nominal clock 1.3333 ns (0.75 GHz).
Operator BuildFirMacOperator(int width = 16);

/// Number of FIR taps the folded datapath implements (4 per cycle).
inline constexpr int kFirTaps = 30;
inline constexpr int kFirMacsPerCycle = 4;

/// Multiply-accumulate operator (the "meta-function" style unit of the
/// paper's ref [12]): p = a * b accumulated into a clearable register.
/// Buses: in a, b, clr; out acc (2*width + 8 bits). Scalable: a, b.
/// Nominal clock 1.0 ns.
Operator BuildMacOperator(int width = 16);

/// Baugh-Wooley array multiplier operator — the architecture targeted
/// by the approximate-multiplier works the paper compares against
/// ([10], [13] are specific to array multipliers). Same interface as
/// the Booth operator; useful for architecture ablations.
Operator BuildArrayMultOperator(int width = 16);

}  // namespace adq::gen
