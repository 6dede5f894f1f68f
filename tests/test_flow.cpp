/// Tests for the implementation flow (paper Fig. 4, green phase) and
/// the accuracy / error-metric helpers.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/accuracy.h"
#include "core/error_metrics.h"
#include "core/flow.h"
#include "gen/operator.h"
#include "netlist/stats.h"
#include "obs/metrics.h"

namespace adq::core {
namespace {

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

TEST(Accuracy, ForcedZerosCountsAndTargets) {
  const gen::Operator op = gen::BuildBoothOperator(16);
  const auto forced = ForcedZeros(op, 10);  // 6 LSBs on a and b
  EXPECT_EQ(forced.size(), 12u);
  for (const auto& f : forced) {
    EXPECT_FALSE(f.value);
    EXPECT_TRUE(op.nl.net(f.net).is_primary_input);
  }
  EXPECT_TRUE(ForcedZeros(op, 16).empty());
  EXPECT_EQ(ForcedZeros(op, 0).size(), 32u);
  EXPECT_THROW(ForcedZeros(op, 17), CheckError);
}

TEST(Accuracy, ZeroedLsbsComplement) {
  const gen::Operator op = gen::BuildBoothOperator(16);
  EXPECT_EQ(ZeroedLsbs(op, 16), 0);
  EXPECT_EQ(ZeroedLsbs(op, 4), 12);
}

TEST(ErrorMetrics, ExactComparison) {
  const ErrorStats st = CompareStreams({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(st.mean_abs, 0.0);
  EXPECT_DOUBLE_EQ(st.max_abs, 0.0);
  EXPECT_GE(st.snr_db, 200.0);
}

TEST(ErrorMetrics, KnownError) {
  const ErrorStats st = CompareStreams({10.0, -10.0}, {11.0, -12.0});
  EXPECT_DOUBLE_EQ(st.mean_abs, 1.5);
  EXPECT_DOUBLE_EQ(st.max_abs, 2.0);
  EXPECT_DOUBLE_EQ(st.mean_sq, (1.0 + 4.0) / 2.0);
}

TEST(ErrorMetrics, ExpectedTruncation) {
  EXPECT_DOUBLE_EQ(ExpectedTruncationError(0), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedTruncationError(4), 7.5);
}

TEST(ErrorMetrics, MultTruncationErrorBoundClosedForm) {
  EXPECT_DOUBLE_EQ(MultTruncationErrorBound(8, 0), 0.0);
  // 2^8 * (2^4 - 1) = 3840 = 2^9 * ExpectedTruncationError(4).
  EXPECT_DOUBLE_EQ(MultTruncationErrorBound(8, 4), 3840.0);
  EXPECT_DOUBLE_EQ(MultTruncationErrorBound(8, 4),
                   std::ldexp(ExpectedTruncationError(4), 9));
}

TEST(Flow, BoothWidth8ClosesTiming) {
  FlowOptions fopt;
  fopt.grid = {2, 2};
  fopt.clock_ns = 0.8;
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  EXPECT_TRUE(d.timing_met);
  EXPECT_EQ(d.num_domains(), 4);
  EXPECT_GT(d.partition.area_overhead(), 0.0);
  EXPECT_EQ(d.loads.cap_ff.size(), d.op.nl.num_nets());
  EXPECT_EQ(d.partition.domain_of.size(), d.op.nl.num_instances());
}

TEST(Flow, DegenerateGridHasNoOverhead) {
  FlowOptions fopt;  // 1x1
  fopt.clock_ns = 0.8;
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  EXPECT_TRUE(d.timing_met);
  EXPECT_EQ(d.num_domains(), 1);
  EXPECT_NEAR(d.partition.area_overhead(), 0.0, 1e-12);
}

TEST(Flow, UsesOperatorNominalClockByDefault) {
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), {});
  EXPECT_NEAR(d.clock_ns, 0.8, 1e-12);  // Booth spec: 1.25 GHz
  EXPECT_NEAR(d.fclk_ghz(), 1.25, 1e-9);
}

TEST(Flow, DeterministicInSeed) {
  FlowOptions fopt;
  fopt.grid = {2, 2};
  const ImplementedDesign a =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  const ImplementedDesign b =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  EXPECT_EQ(a.partition.domain_of, b.partition.domain_of);
  EXPECT_DOUBLE_EQ(a.sizing.wns_ns, b.sizing.wns_ns);
}

TEST(Flow, GuardbandOverheadInPlausibleBand) {
  // Paper Table I: 15-17% for 2x2/3x3 grids on operators this size.
  FlowOptions fopt;
  fopt.grid = {2, 2};
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(16), Lib(), fopt);
  EXPECT_GT(d.partition.area_overhead(), 0.03);
  EXPECT_LT(d.partition.area_overhead(), 0.35);
}

// With metrics on, the flow reports the wirelength after placement and
// after the extract ECO, and the sizing and placer attribution
// counters; with them off, the gauges are never computed.
TEST(Flow, ReportsPhaseWirelengthAndAttributionCounters) {
  FlowOptions fopt;
  fopt.grid = {2, 2};
  obs::ResetMetrics();
  RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  EXPECT_EQ(obs::GetGauge("flow.place.hpwl_um").value(), 0.0);

  obs::EnableMetrics(true);
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  const double place_hpwl = obs::GetGauge("flow.place.hpwl_um").value();
  const double eco_hpwl = obs::GetGauge("flow.extract_eco.hpwl_um").value();
  const long passes = obs::GetCounter("opt.recovery_passes").value();
  const long reverts = obs::GetCounter("opt.recovery_reverts").value();
  const long fallbacks = obs::GetCounter("place.rank_fallbacks").value();
  obs::EnableMetrics(false);
  EXPECT_EQ(place_hpwl, place::TotalHpwl(d.op.nl, d.flat_placement));
  EXPECT_EQ(eco_hpwl, place::TotalHpwl(d.op.nl, d.placement));
  EXPECT_GT(eco_hpwl, 0.0);
  EXPECT_GT(passes, 0);
  EXPECT_LE(reverts, passes);
  EXPECT_EQ(fallbacks, 0);
}

// The flow lints once, at signoff: one netlist DRC report and one
// flow-artifact report, the same gate the explore engines call.
TEST(Flow, LintsOnceAtSignoff) {
  FlowOptions fopt;
  fopt.grid = {2, 2};
  obs::ResetMetrics();
  obs::EnableMetrics(true);
  const long before = obs::GetCounter("lint.reports").value();
  RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  const long reports = obs::GetCounter("lint.reports").value() - before;
  obs::EnableMetrics(false);
  EXPECT_EQ(reports, 2);
}

/// FNV-1a over the bit patterns of a flow run's outputs.
class FlowDigest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffULL;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  void Add(const std::vector<double>& v) {
    for (const double x : v) Add(x);
  }
  void Add(const std::vector<place::Point>& ps) {
    for (const place::Point& p : ps) {
      Add(p.x);
      Add(p.y);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Pins the whole Fig. 4 flow of the paper's three designs (Table I
// grids) bit for bit: flat and final placement, final drives, final
// extracted loads and signoff wns. Any change to placement, sizing or
// extraction that is meant to be a pure speedup must leave these
// digests alone.
TEST(FlowGolden, PaperDesignsBitIdentical) {
  struct Case {
    const char* name;
    gen::Operator (*build)(int);
    place::GridConfig grid;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"Booth16 2x2", &gen::BuildBoothOperator, {2, 2},
       0x8b577240a14c802bULL},
      {"Butterfly16 3x3", &gen::BuildButterflyOperator, {3, 3},
       0xc3bcf22b4b1a14ffULL},
      {"FIR16 3x3", &gen::BuildFirMacOperator, {3, 3},
       0x04aa82b1a98030fcULL},
  };
  for (const Case& c : cases) {
    FlowOptions fopt;
    fopt.grid = c.grid;
    const ImplementedDesign d =
        RunImplementationFlow(c.build(16), Lib(), fopt);
    FlowDigest h;
    h.Add(d.flat_placement.pos);
    h.Add(d.placement.pos);
    for (const netlist::Instance& inst : d.op.nl.instances())
      h.Add(static_cast<std::uint64_t>(inst.drive));
    h.Add(d.loads.cap_ff);
    h.Add(d.loads.wire_delay_ns);
    h.Add(d.sizing.wns_ns);
    EXPECT_EQ(h.value(), c.digest)
        << c.name << ": digest 0x" << std::hex << h.value();
  }
}

// With metrics on, every sizing phase leaves its QoR in gauges: the
// phase's wns and the cell area it ends on. They are computed outside
// the phase spans and never feed back into the flow: Booth16 2x2 keeps
// its FlowGolden digest with metrics on. The closure loop counts its
// rounds and upsizes and leaves the wns it ends on: Booth16 2x2 needs
// no round, Butterfly16 3x3 closes within two.
TEST(Flow, EmitsPhaseQorGauges) {
  const char* phases[] = {"sizing", "postplace_eco", "extract_eco"};
  FlowOptions fopt;
  fopt.grid = {2, 2};
  obs::ResetMetrics();
  RunImplementationFlow(gen::BuildBoothOperator(8), Lib(), fopt);
  for (const std::string phase : phases)
    EXPECT_EQ(obs::GetGauge("flow." + phase + ".cell_area_um2").value(), 0.0)
        << phase;

  obs::EnableMetrics(true);
  const ImplementedDesign d =
      RunImplementationFlow(gen::BuildBoothOperator(16), Lib(), fopt);
  double wns[3], area[3];
  for (int k = 0; k < 3; ++k) {
    const std::string phase = phases[k];
    wns[k] = obs::GetGauge("flow." + phase + ".wns_ns").value();
    area[k] = obs::GetGauge("flow." + phase + ".cell_area_um2").value();
  }
  EXPECT_EQ(obs::GetCounter("flow.closure_rounds").value(), 0);
  EXPECT_EQ(obs::GetCounter("flow.closure_upsizes").value(), 0);
  EXPECT_EQ(obs::GetGauge("flow.closure.wns_ns").value(), d.sizing.wns_ns);

  FlowOptions fopt33;
  fopt33.grid = {3, 3};
  const ImplementedDesign bfly =
      RunImplementationFlow(gen::BuildButterflyOperator(16), Lib(), fopt33);
  const long rounds = obs::GetCounter("flow.closure_rounds").value();
  const long upsizes = obs::GetCounter("flow.closure_upsizes").value();
  const double closure_wns = obs::GetGauge("flow.closure.wns_ns").value();
  obs::EnableMetrics(false);
  EXPECT_GE(rounds, 1);
  EXPECT_LE(rounds, 2);
  EXPECT_GT(upsizes, 0);
  EXPECT_LE(upsizes, bfly.sizing.upsize_moves);
  EXPECT_EQ(closure_wns, bfly.sizing.wns_ns);
  EXPECT_TRUE(bfly.timing_met);
  EXPECT_GE(closure_wns, 0.0);
  // Wireload sizing closes at 0.8x the clock; recovery keeps timing
  // met; the extract ECO's netlist is the final one.
  EXPECT_GE(wns[0], 0.0);
  EXPECT_GE(wns[1], 0.0);
  EXPECT_TRUE(std::isfinite(wns[2]));
  EXPECT_GT(area[0], 0.0);
  EXPECT_LT(area[1], area[0]) << "recovery downsizes";
  EXPECT_EQ(area[2], netlist::ComputeStats(d.op.nl, Lib()).cell_area_um2);

  FlowDigest h;
  h.Add(d.flat_placement.pos);
  h.Add(d.placement.pos);
  for (const netlist::Instance& inst : d.op.nl.instances())
    h.Add(static_cast<std::uint64_t>(inst.drive));
  h.Add(d.loads.cap_ff);
  h.Add(d.loads.wire_delay_ns);
  h.Add(d.sizing.wns_ns);
  EXPECT_EQ(h.value(), 0x8b577240a14c802bULL)
      << "digest 0x" << std::hex << h.value();
}

}  // namespace
}  // namespace adq::core
