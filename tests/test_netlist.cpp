/// Tests for src/netlist: IR construction, invariants, rewiring,
/// topological ordering and levelization.

#include <gtest/gtest.h>

#include <sstream>

#include "netlist/netlist.h"
#include "netlist/stats.h"
#include "netlist/topo.h"
#include "tech/cell_library.h"

namespace adq::netlist {
namespace {

using tech::CellKind;
using tech::DriveStrength;

Netlist SmallAndTree() {
  Netlist nl("and_tree");
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId c = nl.AddInputPort("c");
  const NetId ab = nl.AddGate(CellKind::kAnd2, {a, b});
  const NetId abc = nl.AddGate(CellKind::kAnd2, {ab, c});
  nl.AddOutputPort("y", abc);
  return nl;
}

TEST(Netlist, ConstructionBasics) {
  const Netlist nl = SmallAndTree();
  EXPECT_EQ(nl.num_instances(), 2u);
  EXPECT_EQ(nl.num_nets(), 5u);
  EXPECT_EQ(nl.primary_inputs().size(), 3u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_NO_THROW(nl.Validate());
}

TEST(Netlist, DriverAndSinksConsistent) {
  const Netlist nl = SmallAndTree();
  const NetId a = nl.primary_inputs()[0];
  EXPECT_FALSE(nl.net(a).driver.valid());
  EXPECT_EQ(nl.net(a).sinks.size(), 1u);
  const NetId y = nl.primary_outputs()[0];
  EXPECT_TRUE(nl.net(y).driver.valid());
}

TEST(Netlist, WrongInputCountRejected) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  EXPECT_THROW(nl.AddGate(CellKind::kAnd2, {a}), CheckError);
}

TEST(Netlist, ConstNetsAreCached) {
  Netlist nl;
  EXPECT_EQ(nl.ConstNet(false), nl.ConstNet(false));
  EXPECT_EQ(nl.ConstNet(true), nl.ConstNet(true));
  EXPECT_NE(nl.ConstNet(false), nl.ConstNet(true));
}

TEST(Netlist, BusLookup) {
  Netlist nl;
  const NetId a0 = nl.AddInputPort("a[0]");
  const NetId a1 = nl.AddInputPort("a[1]");
  nl.AddInputBus("a", {a0, a1});
  EXPECT_EQ(nl.InputBus("a").width(), 2);
  EXPECT_THROW(nl.InputBus("nonexistent"), CheckError);
}

TEST(Netlist, RewireSinkMovesPin) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId b = nl.AddInputPort("b");
  const NetId y = nl.AddGate(CellKind::kBuf, {a});
  (void)y;
  const PinRef sink = nl.net(a).sinks[0];
  nl.RewireSink(sink, b);
  EXPECT_TRUE(nl.net(a).sinks.empty());
  EXPECT_EQ(nl.net(b).sinks.size(), 1u);
  EXPECT_NO_THROW(nl.Validate());
}

TEST(Netlist, AddCellWithOutputsConnectsFeedback) {
  Netlist nl;
  const NetId q = nl.NewNet();
  const NetId d = nl.AddGate(CellKind::kInv, {q});  // feedback loop
  nl.AddCellWithOutputs(CellKind::kDff, DriveStrength::kX1, {d}, {q});
  EXPECT_NO_THROW(nl.Validate());
  // The loop crosses a register, so topological ordering must succeed.
  EXPECT_EQ(TopologicalOrder(nl).size(), nl.num_instances());
}

TEST(Netlist, DoubleDriveRejected) {
  Netlist nl;
  const NetId a = nl.AddInputPort("a");
  const NetId y = nl.AddGate(CellKind::kBuf, {a});
  EXPECT_THROW(
      nl.AddCellWithOutputs(CellKind::kBuf, DriveStrength::kX1, {a}, {y}),
      CheckError);
}

TEST(Topo, OrderRespectsDependencies) {
  const Netlist nl = SmallAndTree();
  const auto order = TopologicalOrder(nl);
  ASSERT_EQ(order.size(), 2u);
  // The first AND drives the second.
  EXPECT_EQ(order[0].value, 0u);
  EXPECT_EQ(order[1].value, 1u);
}

TEST(Topo, CombinationalLoopDetected) {
  Netlist nl;
  const NetId fake = nl.NewNet();
  const NetId y = nl.AddGate(CellKind::kInv, {fake});
  // Close the loop without a register.
  const NetId z = nl.AddGate(CellKind::kInv, {y});
  nl.RewireSink(nl.net(fake).sinks[0], z);
  EXPECT_THROW(TopologicalOrder(nl), CheckError);
}

TEST(Topo, Levelize) {
  const Netlist nl = SmallAndTree();
  const auto levels = Levelize(nl);
  EXPECT_EQ(levels[0], 1);
  EXPECT_EQ(levels[1], 2);
  EXPECT_EQ(LogicDepth(nl), 2);
}

TEST(Stats, CountsAndArea) {
  const tech::CellLibrary lib;
  const Netlist nl = SmallAndTree();
  const NetlistStats st = ComputeStats(nl, lib);
  EXPECT_EQ(st.num_instances, 2u);
  EXPECT_EQ(st.num_comb, 2u);
  EXPECT_EQ(st.num_dffs, 0u);
  EXPECT_EQ(st.count_by_kind[static_cast<int>(CellKind::kAnd2)], 2u);
  EXPECT_NEAR(st.cell_area_um2,
              2 * lib.AreaUm2(CellKind::kAnd2, DriveStrength::kX1), 1e-9);
}

}  // namespace
}  // namespace adq::netlist
