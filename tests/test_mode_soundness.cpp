/// Soundness of the accuracy modes over the full 75-configuration
/// matrix (5 operators x even widths 4..32), checked against
/// sim::PackedLogicSim under randomized stimulus:
///
///  - case analysis: every net that netlist::CaseAnalysis resolves to
///    a constant under core::ForcedZeros of mode m holds that constant
///    in the mode-m lane at every post-edge steady state. STA disables
///    the timing arcs of those nets and power::QuiescedLeakageW prices
///    their cells as quiesced, so a constant that toggles would make
///    both optimistic;
///  - full precision is error-free;
///  - for the pure multiplier templates (Booth, array) the worst
///    |exact - mode| never exceeds the closed form
///    core::MultTruncationErrorBound.
///
/// One packed run per configuration: lane 0 carries full-precision
/// inputs, lane m the same inputs with the mode-m LSB prefix zeroed
/// on every scalable bus (<= 33 lanes at width 32). Output buses wider
/// than 64 bits (MAC/FIR accumulators) are assembled bit-wise via
/// PackedLogicSim::Value, and differences are exact 128-bit integers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/accuracy.h"
#include "core/error_metrics.h"
#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "sim/packed_sim.h"

namespace adq {
namespace {

using Wide = __int128;

std::uint64_t Lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 17;
}

/// Signed value of `bus` in lane `lane`, assembled bit-wise (works
/// for any width up to 120 bits).
Wide ReadBusSigned(const sim::PackedLogicSim& sim,
                   const netlist::Bus& bus, int lane) {
  Wide v = 0;
  for (int i = 0; i < bus.width(); ++i)
    if (sim.Value(bus.bits[static_cast<std::size_t>(i)], lane))
      v |= Wide(1) << i;
  const Wide sign = Wide(1) << (bus.width() - 1);
  if (v & sign) v -= Wide(1) << bus.width();
  return v;
}

/// The nets case analysis proves constant under one mode, with their
/// values.
struct ModeConstants {
  std::vector<netlist::NetId> nets;
  std::vector<bool> values;
};

void CheckSoundness(const gen::Operator& op, bool expect_closed_form) {
  const int w = op.spec.data_width;
  ASSERT_LE(w + 1, 64);

  // lane 0 = full precision; lane m = accuracy mode bitwidth m.
  const int lanes = w + 1;
  std::vector<ModeConstants> constants(static_cast<std::size_t>(lanes));
  for (int m = 1; m < lanes; ++m) {
    const netlist::CaseAnalysis ca(op.nl, core::ForcedZeros(op, m));
    ModeConstants& mc = constants[static_cast<std::size_t>(m)];
    for (std::size_t n = 0; n < op.nl.num_nets(); ++n) {
      const netlist::NetId id(static_cast<std::uint32_t>(n));
      if (!ca.IsConstant(id)) continue;
      mc.nets.push_back(id);
      mc.values.push_back(ca.Value(id) == netlist::LogicV::kOne);
    }
  }

  sim::PackedLogicSim sim(op.nl);
  sim.Reset();

  const int frame = op.spec.accumulation_cycles;
  const int steps = frame > 0 ? 3 * frame : 32;
  std::uint64_t seed = 0x2545F4914F6CDD1DULL ^
                       (static_cast<std::uint64_t>(w) << 32) ^
                       std::hash<std::string>{}(op.spec.name);

  const std::uint64_t full = (w == 64) ? ~0ULL : ((1ULL << w) - 1);
  std::vector<Wide> max_err(static_cast<std::size_t>(lanes), 0);
  std::vector<std::uint64_t> lane_vals(static_cast<std::size_t>(lanes));
  std::vector<std::int64_t> const_violations(
      static_cast<std::size_t>(lanes), 0);

  for (int t = 0; t < steps; ++t) {
    for (const netlist::Bus& bus : op.nl.input_buses()) {
      if (bus.name == "clr") {
        // The accumulator framing contract: clr pulses one cycle at
        // the top of every frame, identically in every lane.
        const std::uint64_t v =
            (frame > 0 && t % frame == 0) ? ~0ULL : 0ULL;
        for (netlist::NetId bit : bus.bits) sim.SetInput(bit, v);
        continue;
      }
      const bool scalable =
          std::find(op.spec.scalable_buses.begin(),
                    op.spec.scalable_buses.end(),
                    bus.name) != op.spec.scalable_buses.end();
      const std::uint64_t raw = Lcg(seed) & full;
      for (int m = 0; m < lanes; ++m) {
        const int z = (scalable && m > 0) ? w - m : 0;
        lane_vals[static_cast<std::size_t>(m)] =
            raw & (z > 0 ? (full << z) & full : full);
      }
      sim.SetBus(bus, lane_vals);
    }
    sim.Tick();
    for (const netlist::Bus& bus : op.nl.output_buses()) {
      const Wide exact = ReadBusSigned(sim, bus, 0);
      for (int m = 1; m < lanes; ++m) {
        Wide diff = ReadBusSigned(sim, bus, m) - exact;
        if (diff < 0) diff = -diff;
        if (diff > max_err[static_cast<std::size_t>(m)])
          max_err[static_cast<std::size_t>(m)] = diff;
      }
    }
    for (int m = 1; m < lanes; ++m) {
      const ModeConstants& mc = constants[static_cast<std::size_t>(m)];
      for (std::size_t i = 0; i < mc.nets.size(); ++i)
        if (sim.Value(mc.nets[i], m) != mc.values[i])
          ++const_violations[static_cast<std::size_t>(m)];
    }
  }

  for (int m = 1; m <= w; ++m) {
    EXPECT_EQ(const_violations[static_cast<std::size_t>(m)], 0)
        << op.spec.name << " width " << w << " bitwidth " << m;
    if (expect_closed_form) {
      // The closed form is an exact integer in double (< 2^64 here).
      const double bound = core::MultTruncationErrorBound(w, w - m);
      EXPECT_LE(max_err[static_cast<std::size_t>(m)],
                static_cast<Wide>(bound))
          << op.spec.name << " width " << w << " bitwidth " << m;
    }
  }
  // Full precision is error-free by construction.
  EXPECT_EQ(max_err[static_cast<std::size_t>(w)], 0)
      << op.spec.name << " width " << w;
}

class SoundnessMatrix : public ::testing::TestWithParam<int> {};

TEST_P(SoundnessMatrix, Booth) {
  CheckSoundness(gen::BuildBoothOperator(GetParam()), true);
}
TEST_P(SoundnessMatrix, Array) {
  CheckSoundness(gen::BuildArrayMultOperator(GetParam()), true);
}
TEST_P(SoundnessMatrix, Mac) {
  CheckSoundness(gen::BuildMacOperator(GetParam()), false);
}
TEST_P(SoundnessMatrix, Fir) {
  CheckSoundness(gen::BuildFirMacOperator(GetParam()), false);
}
TEST_P(SoundnessMatrix, Butterfly) {
  CheckSoundness(gen::BuildButterflyOperator(GetParam()), false);
}

INSTANTIATE_TEST_SUITE_P(Widths, SoundnessMatrix,
                         ::testing::Values(4, 6, 8, 10, 12, 14, 16, 18,
                                           20, 22, 24, 26, 28, 30, 32));

}  // namespace
}  // namespace adq
