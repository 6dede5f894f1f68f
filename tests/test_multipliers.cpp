/// Tests for the Wallace reduction, the three multiplier generators
/// (radix-4 Booth, unsigned array, Baugh-Wooley signed), and the MAC
/// and array-multiplier operators built on them.

#include <gtest/gtest.h>

#include "gen/array_mult.h"
#include "gen/booth.h"
#include "gen/operator.h"
#include "gen/wallace.h"
#include "harness.h"
#include "util/fixed_point.h"
#include "util/rng.h"

namespace adq::gen {
namespace {

TEST(Wallace, ReducesSumPreserving) {
  // Random bit matrix: the two output rows must sum to the same total.
  netlist::Netlist nl;
  util::Rng rng(5);
  BitMatrix m;
  std::vector<std::pair<int, netlist::NetId>> entries;  // (weight, net)
  int port = 0;
  for (int col = 0; col < 6; ++col) {
    const int height = 1 + (int)(rng.Word() % 5);
    for (int h = 0; h < height; ++h) {
      const netlist::NetId bit =
          nl.AddInputPort("i" + std::to_string(port++));
      AddBit(m, bit, col);
      entries.push_back({col, bit});
    }
  }
  TwoRows rows = ReduceToTwo(nl, m);
  test::OutWord(nl, "ra", rows.a);
  test::OutWord(nl, "rb", rows.b);

  sim::LogicSim sim(nl);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint64_t expected = 0;
    for (const auto& [w, net] : entries) {
      const bool v = rng.Flip();
      sim.SetInput(net, v);
      if (v) expected += 1ULL << w;
    }
    sim.Settle();
    const std::uint64_t got = sim.ReadBus(nl.OutputBus("ra")) +
                              sim.ReadBus(nl.OutputBus("rb"));
    ASSERT_EQ(got, expected);
  }
}

TEST(Wallace, HeightTwoReachedLogarithmically) {
  netlist::Netlist nl;
  BitMatrix m;
  for (int h = 0; h < 64; ++h) AddBit(m, nl.AddInputPort("p" + std::to_string(h)), 0);
  EXPECT_EQ(MatrixHeight(m), 64);
  int stages = 0;
  while (MatrixHeight(m) > 2) {
    m = ReduceStage(nl, m);
    ++stages;
  }
  // 3:2 compression: ceil(log1.5(64/2)) ~ 9 stages max.
  EXPECT_LE(stages, 10);
}

struct MulCase {
  int wa;
  int wb;
};

class BoothTest : public ::testing::TestWithParam<MulCase> {};

TEST_P(BoothTest, MatchesSignedReference) {
  const auto [wa, wb] = GetParam();
  netlist::Netlist nl;
  const Word a = test::InWord(nl, "a", wa);
  const Word b = test::InWord(nl, "b", wb);
  test::OutWord(nl, "p", BoothMultiplySigned(nl, a, b));
  nl.Validate();
  sim::LogicSim sim(nl);
  util::Rng rng(wa * 100 + wb);
  const std::int64_t amin = -(1LL << (wa - 1)), amax = (1LL << (wa - 1)) - 1;
  const std::int64_t bmin = -(1LL << (wb - 1)), bmax = (1LL << (wb - 1)) - 1;
  // Corners plus random interior.
  std::vector<std::pair<std::int64_t, std::int64_t>> cases = {
      {0, 0},       {amin, bmin}, {amin, bmax}, {amax, bmin},
      {amax, bmax}, {-1, -1},     {1, -1},      {amin, -1}};
  for (int i = 0; i < 300; ++i)
    cases.push_back({rng.UniformInt(amin, amax), rng.UniformInt(bmin, bmax)});
  for (const auto& [av, bv] : cases) {
    sim.SetBus(nl.InputBus("a"), util::FromSigned(av, wa));
    sim.SetBus(nl.InputBus("b"), util::FromSigned(bv, wb));
    sim.Settle();
    ASSERT_EQ(util::ToSigned(sim.ReadBus(nl.OutputBus("p")), wa + wb),
              av * bv)
        << av << " * " << bv << " (w " << wa << "x" << wb << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BoothTest,
                         ::testing::Values(MulCase{4, 4}, MulCase{5, 4},
                                           MulCase{8, 8}, MulCase{7, 6},
                                           MulCase{16, 16},
                                           MulCase{17, 16}));

TEST(Booth, RejectsOddMultiplierWidth) {
  netlist::Netlist nl;
  const Word a = test::InWord(nl, "a", 8);
  const Word b = test::InWord(nl, "b", 7);
  EXPECT_THROW(BoothMultiplySigned(nl, a, b), CheckError);
}

class ArrayMulTest : public ::testing::TestWithParam<MulCase> {};

TEST_P(ArrayMulTest, UnsignedMatchesReference) {
  const auto [wa, wb] = GetParam();
  netlist::Netlist nl;
  const Word a = test::InWord(nl, "a", wa);
  const Word b = test::InWord(nl, "b", wb);
  test::OutWord(nl, "p", ArrayMultiplyUnsigned(nl, a, b));
  sim::LogicSim sim(nl);
  util::Rng rng(3 * wa + wb);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t av = rng.Word() & ((1ULL << wa) - 1);
    const std::uint64_t bv = rng.Word() & ((1ULL << wb) - 1);
    sim.SetBus(nl.InputBus("a"), av);
    sim.SetBus(nl.InputBus("b"), bv);
    sim.Settle();
    ASSERT_EQ(sim.ReadBus(nl.OutputBus("p")), av * bv);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ArrayMulTest,
                         ::testing::Values(MulCase{4, 4}, MulCase{8, 6},
                                           MulCase{12, 12}));

TEST(BaughWooley, SignedMatchesReferenceExhaustive4Bit) {
  netlist::Netlist nl;
  const Word a = test::InWord(nl, "a", 4);
  const Word b = test::InWord(nl, "b", 4);
  test::OutWord(nl, "p", BaughWooleyMultiplySigned(nl, a, b));
  sim::LogicSim sim(nl);
  for (std::int64_t av = -8; av <= 7; ++av) {
    for (std::int64_t bv = -8; bv <= 7; ++bv) {
      sim.SetBus(nl.InputBus("a"), util::FromSigned(av, 4));
      sim.SetBus(nl.InputBus("b"), util::FromSigned(bv, 4));
      sim.Settle();
      ASSERT_EQ(util::ToSigned(sim.ReadBus(nl.OutputBus("p")), 8), av * bv)
          << av << " * " << bv;
    }
  }
}

TEST(BaughWooley, Random16Bit) {
  netlist::Netlist nl;
  const Word a = test::InWord(nl, "a", 16);
  const Word b = test::InWord(nl, "b", 16);
  test::OutWord(nl, "p", BaughWooleyMultiplySigned(nl, a, b));
  sim::LogicSim sim(nl);
  util::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t av = rng.UniformInt(-32768, 32767);
    const std::int64_t bv = rng.UniformInt(-32768, 32767);
    sim.SetBus(nl.InputBus("a"), util::FromSigned(av, 16));
    sim.SetBus(nl.InputBus("b"), util::FromSigned(bv, 16));
    sim.Settle();
    ASSERT_EQ(util::ToSigned(sim.ReadBus(nl.OutputBus("p")), 32), av * bv);
  }
}

TEST(Multipliers, BoothSmallerThanArrayAtSameWidth) {
  // Radix-4 halves the partial-product count; at 16x16 the Booth
  // netlist should not be larger than the Baugh-Wooley array.
  netlist::Netlist nl_booth, nl_bw;
  {
    const Word a = test::InWord(nl_booth, "a", 16);
    const Word b = test::InWord(nl_booth, "b", 16);
    test::OutWord(nl_booth, "p", BoothMultiplySigned(nl_booth, a, b));
  }
  {
    const Word a = test::InWord(nl_bw, "a", 16);
    const Word b = test::InWord(nl_bw, "b", 16);
    test::OutWord(nl_bw, "p", BaughWooleyMultiplySigned(nl_bw, a, b));
  }
  EXPECT_LT(nl_booth.num_instances(), nl_bw.num_instances() * 1.2);
}

// ---------------- sequential operators ----------------

TEST(MacOperator, AccumulatesProducts) {
  const gen::Operator op = gen::BuildMacOperator(8);
  sim::LogicSim sim(op.nl);
  sim.Reset();
  util::Rng rng(5);
  long long expect = 0;
  const int kOps = 6;
  std::vector<std::pair<std::int64_t, std::int64_t>> ab(kOps);
  for (auto& [a, b] : ab) {
    a = rng.UniformInt(-128, 127);
    b = rng.UniformInt(-128, 127);
  }
  for (int t = 0; t <= kOps + 1; ++t) {
    const bool on = t >= 1 && t <= kOps;
    sim.SetBus(op.nl.InputBus("a"),
               util::FromSigned(on ? ab[(std::size_t)t - 1].first : 0, 8));
    sim.SetBus(op.nl.InputBus("b"),
               util::FromSigned(on ? ab[(std::size_t)t - 1].second : 0, 8));
    sim.SetBus(op.nl.InputBus("clr"), t == 0 ? 1 : 0);
    sim.Tick();
  }
  sim.Tick();
  for (const auto& [a, b] : ab) expect += a * b;
  EXPECT_EQ(util::ToSigned(sim.ReadBus(op.nl.OutputBus("acc")), 24),
            expect);
}

TEST(ArrayMultOperator, MatchesReference) {
  const gen::Operator op = gen::BuildArrayMultOperator(8);
  sim::LogicSim sim(op.nl);
  util::Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    const std::int64_t a = rng.UniformInt(-128, 127);
    const std::int64_t b = rng.UniformInt(-128, 127);
    sim.SetBus(op.nl.InputBus("a"), util::FromSigned(a, 8));
    sim.SetBus(op.nl.InputBus("b"), util::FromSigned(b, 8));
    sim.Tick();
    sim.Tick();
    ASSERT_EQ(util::ToSigned(sim.ReadBus(op.nl.OutputBus("p")), 16), a * b);
  }
}

}  // namespace
}  // namespace adq::gen
