/// Tests for three-valued constant propagation (STA case analysis) —
/// the machinery that detects the paper's "disabled paths" (Fig. 2
/// set (1)) when input LSBs are clamped.

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <vector>

#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "netlist/netlist.h"

namespace adq::netlist {
namespace {

using tech::CellKind;
using tech::DriveStrength;

TEST(CaseAnalysisBatch, DualRailCellsMatchExhaustiveEnumeration) {
  // For every kind, one cell fed by primary inputs, and one forced set
  // per assignment of {0, 1, X} to its inputs (X = not forced), all in
  // one batch. An output must be constant exactly when all boolean
  // completions of the X inputs agree, enumerated here by brute force.
  for (int k = 0; k < tech::kNumCellKinds; ++k) {
    const auto kind = static_cast<CellKind>(k);
    const int n_in = tech::NumInputs(kind);
    const int n_out = tech::NumOutputs(kind);
    Netlist nl;
    std::vector<NetId> ins;
    for (int i = 0; i < n_in; ++i)
      ins.push_back(nl.AddInputPort("i" + std::to_string(i)));
    const std::array<NetId, 2> outs =
        nl.AddCell(kind, DriveStrength::kX1, ins);
    int total = 1;
    for (int i = 0; i < n_in; ++i) total *= 3;
    std::vector<std::vector<ForcedValue>> sets(static_cast<std::size_t>(total));
    for (int t = 0; t < total; ++t)
      for (int i = 0, rem = t; i < n_in; ++i, rem /= 3)
        if (rem % 3 != static_cast<int>(LogicV::kX))
          sets[static_cast<std::size_t>(t)].push_back(
              {ins[static_cast<std::size_t>(i)], rem % 3 == 1});
    const std::vector<CaseAnalysis> batch = CaseAnalyses(nl, sets);

    for (int t = 0; t < total; ++t) {
      LogicV in3[3] = {LogicV::kZero, LogicV::kZero, LogicV::kZero};
      for (int i = 0, rem = t; i < n_in; ++i, rem /= 3)
        in3[i] = static_cast<LogicV>(rem % 3);
      // Reference: enumerate completions.
      bool first = true;
      bool ref[2] = {false, false};
      bool agree[2] = {true, true};
      int x_pos[3], n_x = 0;
      bool base[3] = {false, false, false};
      for (int i = 0; i < n_in; ++i) {
        if (in3[i] == LogicV::kX)
          x_pos[n_x++] = i;
        else
          base[i] = in3[i] == LogicV::kOne;
      }
      for (unsigned m = 0; m < (1u << n_x); ++m) {
        bool ins_b[3] = {base[0], base[1], base[2]};
        for (int j = 0; j < n_x; ++j) ins_b[x_pos[j]] = (m >> j) & 1;
        bool o[2];
        tech::Evaluate(kind, ins_b, o);
        for (int q = 0; q < n_out; ++q) {
          if (first)
            ref[q] = o[q];
          else if (o[q] != ref[q])
            agree[q] = false;
        }
        first = false;
      }
      for (int q = 0; q < n_out; ++q)
        EXPECT_EQ(batch[static_cast<std::size_t>(t)].Value(
                      outs[static_cast<std::size_t>(q)]),
                  agree[q] ? FromBool(ref[q]) : LogicV::kX)
            << tech::ToString(kind) << " assignment " << t << " out " << q;
    }
  }
}

struct Pinned {
  std::uint64_t fingerprint;
  std::size_t num_constant;
};

// fingerprint() and num_constant() of CaseAnalysis(op.nl,
// gen::ForcedZeroLsbs(op, zs)) for zs = 0, 1, ..., as the scalar
// ternary-table sweep computed them before the dual-rail batch.
constexpr Pinned kBooth16[] = {
    {0xd42f150b2d430d12ULL, 32},   {0xae3e1dfe2828f542ULL, 80},
    {0x8cf3f460f9ad8626ULL, 179},  {0x967a9b2d00f2192aULL, 222},
    {0xa61547a427faec5aULL, 344},  {0xf5f43439eebafa02ULL, 382},
    {0x21f1b2cc5758f5eeULL, 509},  {0x9564279cf319c2eaULL, 542},
    {0xb4e02a003b826ef2ULL, 624},  {0xa804ed5713debf52ULL, 652},
    {0xb2f21fb1a91dbdecULL, 778},  {0xe818253ce3afade0ULL, 801},
    {0xe8eaa74b6a67d582ULL, 928},  {0x1ecf05dacaeec79aULL, 946},
    {0x5f58a10f4edd0d16ULL, 1111}, {0x5de2a95811cb4902ULL, 1124}};
constexpr Pinned kButterfly16[] = {
    {0x12b911f6c84a4235ULL, 289},  {0x6c37d5daeaf9088eULL, 493},
    {0x8b4ebf6b146daff1ULL, 1049}, {0x55d9361eb3e80e5aULL, 1217},
    {0x4d85a80425d00333ULL, 1741}, {0xc23b3b797b874235ULL, 1898},
    {0xef0705969c7edd6dULL, 2459}, {0x1928cdddc28389dbULL, 2601},
    {0x5616d99edd94bb3fULL, 3025}, {0x817c9c8a0a37037aULL, 3156},
    {0xc2745d5a56579ae3ULL, 3738}, {0x2e2f0eed7a209ac0ULL, 3849},
    {0xb905870aff0f97c3ULL, 4435}, {0x13b0c339913283a0ULL, 4531},
    {0x511b34a58a68047bULL, 5234}, {0x8821043b8ffdf45aULL, 5310}};
constexpr Pinned kFir16[] = {
    {0x00e6e2ce272c8f25ULL, 136},  {0x0d66d52512dadef5ULL, 328},
    {0x08c5e5d3ce57948fULL, 731},  {0xb3e40c806c6cf957ULL, 903},
    {0xcc6ec613affde6bfULL, 1405}, {0x49361cd5ba3f6c8fULL, 1557},
    {0x7d600c874cc1b3a7ULL, 2077}, {0xa35fd23eb9bb632fULL, 2209},
    {0xd01e7ce919a09587ULL, 2551}, {0xeac699ad76485fd7ULL, 2663},
    {0xd3517ef94bc163d7ULL, 3179}, {0xa85368d3f36cee07ULL, 3271},
    {0xcbadd1a16688909fULL, 3793}, {0xdef4dc636b10716fULL, 3865},
    {0xe8097196278c93c7ULL, 4537}, {0xcd7dbbeb0d008acfULL, 4589}};
// MAC8: accumulator feedback, modes zs = 0..8.
constexpr Pinned kMac8[] = {
    {0x9c6840264dc4d403ULL, 26},  {0x3be83c320b0f55e3ULL, 54},
    {0x0c8b021e205f5be7ULL, 123}, {0x1ff39003e3f2f5c3ULL, 146},
    {0xe6ffbdcbefa640dbULL, 222}, {0xa59e9614c53f1853ULL, 240},
    {0x169580c44659951fULL, 341}, {0xbae7230a2a9a2813ULL, 354},
    {0x9ebcde5c65510241ULL, 521}};

void ExpectPinned(const gen::Operator& op, std::span<const Pinned> pinned) {
  std::vector<std::vector<ForcedValue>> sets;
  for (std::size_t zs = 0; zs < pinned.size(); ++zs)
    sets.push_back(gen::ForcedZeroLsbs(op, static_cast<int>(zs)));
  const std::vector<CaseAnalysis> batch = CaseAnalyses(op.nl, sets);
  ASSERT_EQ(batch.size(), pinned.size());
  for (std::size_t zs = 0; zs < pinned.size(); ++zs) {
    const CaseAnalysis one(op.nl, sets[zs]);
    for (const CaseAnalysis* ca : {&batch[zs], &one}) {
      EXPECT_EQ(ca->fingerprint(), pinned[zs].fingerprint)
          << op.spec.name << " zs " << zs
          << (ca == &one ? " (one set)" : " (batch)");
      EXPECT_EQ(ca->num_constant(), pinned[zs].num_constant)
          << op.spec.name << " zs " << zs;
    }
  }
}

TEST(CaseAnalysisBatch, ReproducesPinnedScalarAnalyses) {
  ExpectPinned(gen::BuildBoothOperator(16), kBooth16);
  ExpectPinned(gen::BuildButterflyOperator(16), kButterfly16);
  ExpectPinned(gen::BuildFirMacOperator(16), kFir16);
  ExpectPinned(gen::BuildMacOperator(8), kMac8);
}

TEST(CaseAnalysisBatch, LanesConvergeIndependently) {
  // Chain c: in_c -> DFF -> INV -> DFF -> ... (c + 1 registers), so a
  // constant on in_c needs c + 1 sweeps to reach the chain's end. Set
  // c forces only in_c, so the lanes converge after different sweep
  // counts. Set 3 also forces `stuck`, a register output flagged as a
  // primary input, to 1 while its D is 0: the register must demote to
  // sticky X in that lane only.
  Netlist nl;
  std::vector<NetId> ins, ends;
  for (int c = 0; c < 3; ++c) {
    ins.push_back(nl.AddInputPort("in" + std::to_string(c)));
    NetId n = nl.AddGate(CellKind::kDff, {ins.back()});
    for (int r = 0; r < c; ++r)
      n = nl.AddGate(CellKind::kDff, {nl.AddGate(CellKind::kInv, {n})});
    nl.AddOutputPort("out" + std::to_string(c), n);
    ends.push_back(n);
  }
  const NetId stuck = nl.AddGate(CellKind::kDff, {nl.ConstNet(false)});
  const NetId after = nl.AddGate(CellKind::kBuf, {stuck});
  nl.AddOutputPort("after", after);
  RawAccess(nl).net(stuck).is_primary_input = true;

  const std::vector<std::vector<ForcedValue>> sets = {
      {{ins[0], true}}, {{ins[1], true}}, {{ins[2], true}},
      {{ins[0], false}, {stuck, true}}};
  const std::vector<CaseAnalysis> batch = CaseAnalyses(nl, sets);
  ASSERT_EQ(batch.size(), sets.size());
  // Chain c inverts c times.
  EXPECT_EQ(batch[0].Value(ends[0]), LogicV::kOne);
  EXPECT_EQ(batch[1].Value(ends[1]), LogicV::kZero);
  EXPECT_EQ(batch[2].Value(ends[2]), LogicV::kOne);
  EXPECT_EQ(batch[3].Value(ends[0]), LogicV::kZero);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(batch[static_cast<std::size_t>(c)].Value(ends[(c + 1) % 3]),
              LogicV::kX);
    // Unforced, `stuck` adopts its tied D.
    EXPECT_EQ(batch[static_cast<std::size_t>(c)].Value(stuck), LogicV::kZero);
  }
  EXPECT_EQ(batch[3].Value(stuck), LogicV::kX);
  EXPECT_EQ(batch[3].Value(after), LogicV::kX);
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const CaseAnalysis one(nl, sets[s]);
    EXPECT_EQ(one.fingerprint(), batch[s].fingerprint()) << "set " << s;
    EXPECT_EQ(one.num_constant(), batch[s].num_constant()) << "set " << s;
  }
}

TEST(CaseAnalysisBatch, RegisterTransferFollowsInstanceOrder) {
  // 100 registers in a direct chain, created in chain order: each one
  // reads the Q its predecessor adopted earlier in the same transfer,
  // so the constant crosses the chain in one sweep, well inside the
  // 64-sweep guard (one register per sweep would trip it).
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  NetId n = a;
  for (int i = 0; i < 100; ++i) n = nl.AddGate(CellKind::kDff, {n});
  nl.AddOutputPort("y", n);
  const std::vector<std::vector<ForcedValue>> sets = {{{a, true}}, {}};
  const std::vector<CaseAnalysis> batch = CaseAnalyses(nl, sets);
  EXPECT_EQ(batch[0].Value(n), LogicV::kOne);
  EXPECT_EQ(batch[1].Value(n), LogicV::kX);
}

TEST(CaseAnalysisBatch, MoreThanSixtyFourSets) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId y = nl.AddGate(CellKind::kAnd2, {a, b});
  nl.AddOutputPort("y", y);
  std::vector<std::vector<ForcedValue>> sets(70);
  for (std::size_t s = 0; s < sets.size(); ++s)
    if (s % 3 == 0) sets[s] = {{a, false}};
  const std::vector<CaseAnalysis> batch = CaseAnalyses(nl, sets);
  ASSERT_EQ(batch.size(), sets.size());
  for (std::size_t s = 0; s < sets.size(); ++s)
    EXPECT_EQ(batch[s].Value(y), s % 3 == 0 ? LogicV::kZero : LogicV::kX)
        << "set " << s;
}

TEST(CaseAnalysis, ControllingConstantPropagates) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId y = nl.AddGate(CellKind::kAnd2, {a, b});
  nl.AddOutputPort("y", y);
  // a = 0 controls the AND regardless of b.
  const CaseAnalysis ca(nl, {{a, false}});
  EXPECT_EQ(ca.Value(y), LogicV::kZero);
  EXPECT_FALSE(ca.IsConstant(b));
}

TEST(CaseAnalysis, NonControllingConstantDoesNot) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId y = nl.AddGate(CellKind::kAnd2, {a, b});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {{a, true}});  // AND with 1: transparent
  EXPECT_EQ(ca.Value(y), LogicV::kX);
}

TEST(CaseAnalysis, TieCellsAreConstant) {
  Netlist nl;
  const NetId zero = nl.ConstNet(false);
  const NetId one = nl.ConstNet(true);
  const NetId y = nl.AddGate(CellKind::kXor2, {zero, one});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {});
  EXPECT_EQ(ca.Value(zero), LogicV::kZero);
  EXPECT_EQ(ca.Value(one), LogicV::kOne);
  EXPECT_EQ(ca.Value(y), LogicV::kOne);
}

TEST(CaseAnalysis, PropagatesThroughRegisters) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId q = nl.AddGate(CellKind::kDff, {a});
  const NetId y = nl.AddGate(CellKind::kInv, {q});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {{a, false}});
  EXPECT_EQ(ca.Value(q), LogicV::kZero);
  EXPECT_EQ(ca.Value(y), LogicV::kOne);
}

TEST(CaseAnalysis, AccumulatorFeedbackStaysUnknown) {
  // acc <= acc + in with in = 0: the register output is NOT provably
  // constant (it holds whatever it held), so timing through the
  // accumulator must stay active — the conservative answer.
  Netlist nl;
  const NetId in = nl.AddInputPort("in");
  const NetId q = nl.NewNet();
  const NetId d = nl.AddGate(CellKind::kXor2, {q, in});
  nl.AddCellWithOutputs(CellKind::kDff, DriveStrength::kX1, {d}, {q});
  nl.AddOutputPort("y", q);
  const CaseAnalysis ca(nl, {{in, false}});
  EXPECT_EQ(ca.Value(q), LogicV::kX);
  EXPECT_EQ(ca.Value(d), LogicV::kX);
}

TEST(CaseAnalysis, RegisterChainOfConstants) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  NetId n = a;
  for (int i = 0; i < 5; ++i) n = nl.AddGate(CellKind::kDff, {n});
  nl.AddOutputPort("y", n);
  const CaseAnalysis ca(nl, {{a, true}});
  EXPECT_EQ(ca.Value(n), LogicV::kOne) << "constant must cross 5 registers";
}

TEST(CaseAnalysis, NumConstantCountsForcedAndDerived) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId y = nl.AddGate(CellKind::kOr2, {a, b});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {{a, true}});  // OR with 1 -> y = 1
  EXPECT_EQ(ca.num_constant(), 2u);        // a and y
}

TEST(CaseAnalysis, OnlyPortsMayBeForced) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId y = nl.AddGate(CellKind::kBuf, {a});
  nl.AddOutputPort("y", y);
  EXPECT_THROW(CaseAnalysis(nl, {{y, false}}), CheckError);
}

TEST(CaseAnalysis, XorChainKillsExactlyForcedCone) {
  // y = (a ^ b) ^ c with a,b forced: a^b constant, but y still X.
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId c = nl.AddInputPort("c");
  const NetId ab = nl.AddGate(CellKind::kXor2, {a, b});
  const NetId y = nl.AddGate(CellKind::kXor2, {ab, c});
  nl.AddOutputPort("y", y);
  const CaseAnalysis ca(nl, {{a, false}, {b, true}});
  EXPECT_EQ(ca.Value(ab), LogicV::kOne);
  EXPECT_EQ(ca.Value(y), LogicV::kX);
}

}  // namespace
}  // namespace adq::netlist
