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
       0xa2b5095a17d78eafULL},
      {"Butterfly16 3x3", &gen::BuildButterflyOperator, {3, 3},
       0x22a555f155cbf0edULL},
      {"FIR16 3x3", &gen::BuildFirMacOperator, {3, 3},
       0xb371c9ea0219aa80ULL},
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

}  // namespace
}  // namespace adq::core
