/// Tests for three-valued constant propagation (STA case analysis) —
/// the machinery that detects the paper's "disabled paths" (Fig. 2
/// set (1)) when input LSBs are clamped.

#include <gtest/gtest.h>

#include "netlist/case_analysis.h"
#include "netlist/netlist.h"

namespace adq::netlist {
namespace {

using tech::CellKind;
using tech::DriveStrength;

TEST(Evaluate3, MatchesExhaustiveEnumeration) {
  // For every kind and every 3-valued input assignment, Evaluate3's
  // table lookup must equal the agreement of all boolean completions,
  // enumerated here by brute force.
  for (int k = 0; k < tech::kNumCellKinds; ++k) {
    const auto kind = static_cast<CellKind>(k);
    const int n_in = tech::NumInputs(kind);
    const int n_out = tech::NumOutputs(kind);
    int assign[3] = {0, 0, 0};
    const int total = 1 * (n_in >= 1 ? 3 : 1) * (n_in >= 2 ? 3 : 1) *
                      (n_in >= 3 ? 3 : 1);
    for (int t = 0; t < total; ++t) {
      int rem = t;
      LogicV in3[3];
      for (int i = 0; i < n_in; ++i) {
        assign[i] = rem % 3;
        rem /= 3;
        in3[i] = static_cast<LogicV>(assign[i]);
      }
      LogicV out3[2];
      Evaluate3(kind, in3, out3);

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
        bool ins[3] = {base[0], base[1], base[2]};
        for (int j = 0; j < n_x; ++j) ins[x_pos[j]] = (m >> j) & 1;
        bool o[2];
        tech::Evaluate(kind, ins, o);
        for (int q = 0; q < n_out; ++q) {
          if (first)
            ref[q] = o[q];
          else if (o[q] != ref[q])
            agree[q] = false;
        }
        first = false;
      }
      for (int q = 0; q < n_out; ++q) {
        const LogicV expect =
            agree[q] ? FromBool(ref[q]) : LogicV::kX;
        EXPECT_EQ(out3[q], expect)
            << tech::ToString(kind) << " inputs " << assign[0] << ","
            << assign[1] << "," << assign[2] << " out " << q;
      }
    }
  }
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
