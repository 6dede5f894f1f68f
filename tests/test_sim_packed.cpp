/// Tests for the bit-parallel packed logic simulator and the
/// process-wide activity cache: word-wise cell evaluation against the
/// scalar truth tables, 64-lane functional simulation, bit-identity
/// of per-net toggle counts between PackedLogicSim-based batch
/// extraction and the scalar LogicSim oracle across operators /
/// stimulus kinds / accuracy modes, byte-counter drains at their
/// 255-tick boundaries and on long runs, the time-sliced engine
/// (bit-identity over mode counts and run lengths, the seam fallback
/// on state that never converges),
/// the primary-input pre-edge cone, cache hit/miss accounting, and a
/// determinism pin for cached exploration at several thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/explore.h"
#include "gen/operator.h"
#include "obs/obs.h"
#include "sim/activity.h"
#include "sim/logic_sim.h"
#include "sim/packed_sim.h"
#include "util/fixed_point.h"
#include "util/rng.h"

namespace adq::sim {
namespace {

using tech::CellKind;

TEST(EvaluateWord, MatchesScalarEvaluateForEveryKindAndInput) {
  for (int k = 0; k < tech::kNumCellKinds; ++k) {
    const CellKind kind = static_cast<CellKind>(k);
    const int n_in = tech::NumInputs(kind);
    const int n_out = tech::NumOutputs(kind);
    const int combos = 1 << n_in;
    // Lane c carries input combination c; lanes past the last combo
    // repeat combination 0.
    std::uint64_t in_w[tech::kMaxCellInputs] = {0, 0, 0};
    for (int c = 0; c < combos; ++c)
      for (int p = 0; p < n_in; ++p)
        if ((c >> p) & 1) in_w[p] |= 1ULL << c;
    std::uint64_t out_w[tech::kMaxCellOutputs] = {0, 0};
    tech::EvaluateWord(kind, in_w, out_w);
    for (int c = 0; c < combos; ++c) {
      bool in_b[tech::kMaxCellInputs] = {false, false, false};
      bool out_b[tech::kMaxCellOutputs] = {false, false};
      for (int p = 0; p < n_in; ++p) in_b[p] = (c >> p) & 1;
      tech::Evaluate(kind, in_b, out_b);
      for (int o = 0; o < n_out; ++o)
        EXPECT_EQ(((out_w[o] >> c) & 1ULL) != 0, out_b[o])
            << tech::ToString(kind) << " combo " << c << " out " << o;
    }
  }
}

TEST(PackedLogicSim, SixtyFourLaneMultiplyMatchesArithmetic) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  PackedLogicSim sim(op.nl);
  sim.Reset();
  std::vector<std::uint64_t> a(PackedLogicSim::kLanes);
  std::vector<std::uint64_t> b(PackedLogicSim::kLanes);
  for (int l = 0; l < PackedLogicSim::kLanes; ++l) {
    a[static_cast<std::size_t>(l)] =
        util::FromSigned(l * 3 - 90, 8);  // mixes signs across lanes
    b[static_cast<std::size_t>(l)] = util::FromSigned(47 - l, 8);
  }
  sim.SetBus(op.nl.InputBus("a"), a);
  sim.SetBus(op.nl.InputBus("b"), b);
  sim.Tick();  // operands into the input registers
  sim.Tick();  // product into the output registers
  for (int l = 0; l < PackedLogicSim::kLanes; ++l) {
    const std::int64_t expect =
        util::ToSigned(a[static_cast<std::size_t>(l)], 8) *
        util::ToSigned(b[static_cast<std::size_t>(l)], 8);
    EXPECT_EQ(util::ToSigned(sim.ReadBus(op.nl.OutputBus("p"), l), 16),
              expect)
        << "lane " << l;
  }
}

TEST(PackedLogicSim, ShortSpanReplicatesLastValueAndEmptyRejected) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  PackedLogicSim sim(op.nl);
  sim.Reset();
  const std::vector<std::uint64_t> a = {util::FromSigned(-5, 8)};
  const std::vector<std::uint64_t> b = {util::FromSigned(11, 8),
                                        util::FromSigned(-7, 8)};
  sim.SetBus(op.nl.InputBus("a"), a);
  sim.SetBus(op.nl.InputBus("b"), b);
  sim.Tick();
  sim.Tick();
  EXPECT_EQ(util::ToSigned(sim.ReadBus(op.nl.OutputBus("p"), 0), 16), -55);
  for (int l = 1; l < PackedLogicSim::kLanes; ++l)
    EXPECT_EQ(util::ToSigned(sim.ReadBus(op.nl.OutputBus("p"), l), 16), 35)
        << "lane " << l;
  EXPECT_THROW(sim.SetBus(op.nl.InputBus("a"), {}), CheckError);
}

TEST(PackedLogicSim, MatchesScalarLogicSimTickForTick) {
  // Drive both engines with identical lane-0 stimulus and compare the
  // full per-net state and toggle counters after every tick.
  const gen::Operator op = gen::BuildMacOperator(8);
  LogicSim ref(op.nl);
  PackedLogicSim packed(op.nl);
  ref.Reset();
  packed.Reset();
  util::Rng rng(99);
  for (int t = 0; t < 40; ++t) {
    for (const netlist::Bus& bus : op.nl.input_buses()) {
      const std::uint64_t v = rng.Word() & ((1ULL << bus.width()) - 1ULL);
      ref.SetBus(bus, v);
      const std::vector<std::uint64_t> lanes = {v};
      packed.SetBus(bus, lanes);
    }
    ref.Tick();
    packed.Tick();
  }
  ASSERT_EQ(ref.cycles(), packed.cycles());
  for (std::uint32_t n = 0; n < op.nl.num_nets(); ++n) {
    const netlist::NetId id(n);
    EXPECT_EQ(ref.Value(id), packed.Value(id, 0)) << "net " << n;
    EXPECT_EQ(ref.toggles()[n], packed.LaneToggles(id)[0]) << "net " << n;
  }
}

TEST(PackedLogicSim, PreEdgeConeMatchesScalarTickForTick) {
  // Unregistered primary inputs feed logic into registers (a
  // non-empty pre-edge cone) next to register-only logic outside it.
  // Four lanes with distinct stimulus each match their own scalar run.
  netlist::Netlist nl;
  const auto a = nl.AddInputPort("a");
  const auto b = nl.AddInputPort("b");
  const auto c = nl.AddInputPort("c");
  const auto q0 = nl.NewNet();
  const auto q1 = nl.NewNet();
  const auto n1 = nl.AddGate(CellKind::kAnd2, {a, q0});
  const auto n2 = nl.AddGate(CellKind::kXor2, {n1, b});
  const auto n3 = nl.AddGate(CellKind::kMux2, {n2, q1, c});
  const auto n4 = nl.AddGate(CellKind::kXor2, {q0, q1});  // outside cone
  const auto n5 = nl.AddGate(CellKind::kInv, {n4});       // outside cone
  nl.AddCellWithOutputs(CellKind::kDff, tech::DriveStrength::kX1, {n3},
                        {q0});
  nl.AddCellWithOutputs(CellKind::kDff, tech::DriveStrength::kX1, {n5},
                        {q1});
  nl.AddOutputPort("y", nl.AddGate(CellKind::kDff, {n3}));
  nl.Validate();

  PackedLogicSim packed(nl);
  EXPECT_EQ(packed.pre_edge_cells(), 3u);
  constexpr int kRuns = 4;
  std::vector<LogicSim> ref(kRuns, LogicSim(nl));
  packed.Reset();
  for (LogicSim& r : ref) r.Reset();
  util::Rng rng(5);
  for (int t = 0; t < 64; ++t) {
    for (const netlist::NetId pi : {a, b, c}) {
      const std::uint64_t w = rng.Word() & 0xFULL;
      packed.SetInput(pi, w);
      for (int l = 0; l < kRuns; ++l)
        ref[static_cast<std::size_t>(l)].SetInput(pi, (w >> l) & 1ULL);
    }
    packed.Tick();
    for (LogicSim& r : ref) r.Tick();
    for (int l = 0; l < kRuns; ++l)
      for (std::uint32_t n = 0; n < nl.num_nets(); ++n)
        ASSERT_EQ(ref[static_cast<std::size_t>(l)].Value(netlist::NetId(n)),
                  packed.Value(netlist::NetId(n), l))
            << "tick " << t << " lane " << l << " net " << n;
  }
  for (int l = 0; l < kRuns; ++l)
    for (std::uint32_t n = 0; n < nl.num_nets(); ++n)
      EXPECT_EQ(ref[static_cast<std::size_t>(l)].toggles()[n],
                packed.LaneToggles(netlist::NetId(n))[l])
          << "lane " << l << " net " << n;
}

TEST(PackedLogicSim, GeneratedOperatorsHaveEmptyPreEdgeCone) {
  // Every generator registers its inputs, so Tick's pre-edge settle
  // evaluates nothing on them.
  for (const gen::Operator& op :
       {gen::BuildBoothOperator(8), gen::BuildArrayMultOperator(8),
        gen::BuildMacOperator(8), gen::BuildFirMacOperator(8),
        gen::BuildButterflyOperator(8)})
    EXPECT_EQ(PackedLogicSim(op.nl).pre_edge_cells(), 0u) << op.spec.name;
}

TEST(PackedLogicSim, CountMaskLimitsCountingToSelectedLanes) {
  netlist::Netlist nl;
  const auto d = nl.AddInputPort("d");
  const auto q = nl.AddGate(CellKind::kDff, {d});
  nl.AddOutputPort("q", q);
  PackedLogicSim sim(nl);
  sim.Reset();
  for (int t = 0; t < 10; ++t) {
    sim.SetInput(d, (t % 2) ? ~0ULL : 0ULL);
    sim.Tick(t < 5 ? 0x1ULL : 0x2ULL);  // lane 0 first, then lane 1
  }
  EXPECT_EQ(sim.LaneToggles(q)[0], 4u);  // ticks 1..4 (tick 0 is baseline)
  EXPECT_EQ(sim.LaneToggles(q)[1], 5u);  // ticks 5..9
  EXPECT_EQ(sim.LaneToggles(q)[2], 0u);
  EXPECT_EQ(sim.cycles(), 9u);
}

TEST(PackedLogicSim, ByteCountersDrainAt255And510) {
  // Byte counters hold 255 ticks. Counted tick t (tick 0 is the
  // baseline) uses all lanes up to t = 255, the even lanes up to 510,
  // then all lanes again, so a lane's byte is full exactly at the first
  // drain and the mask changes across it. `read` is queried at
  // t = 254, 255 and 256 (each read drains early); `quiet` is only
  // read at the end and drains on its own at 255 and 510.
  netlist::Netlist nl;
  const auto d = nl.AddInputPort("d");
  const auto q = nl.AddGate(CellKind::kDff, {d});
  nl.AddOutputPort("q", q);
  PackedLogicSim read(nl), quiet(nl);
  read.Reset();
  quiet.Reset();
  const std::uint64_t toggling = 0xF0F0F0F0F0F0F0F0ULL;
  const std::uint64_t even = 0x5555555555555555ULL;
  const auto mask = [&](int t) {
    return t > 255 && t <= 510 ? even : ~0ULL;
  };
  std::vector<std::uint64_t> expect(PackedLogicSim::kLanes, 0);
  const auto check = [&](const PackedLogicSim& sim, int t) {
    for (int l = 0; l < PackedLogicSim::kLanes; ++l)
      EXPECT_EQ(sim.LaneToggles(q)[static_cast<std::size_t>(l)],
                expect[static_cast<std::size_t>(l)])
          << "lane " << l << " after tick " << t;
  };
  const int kTicks = 600;
  for (int t = 0; t < kTicks; ++t) {
    const std::uint64_t word = (t % 2) ? toggling : 0;
    read.SetInput(d, word);
    quiet.SetInput(d, word);
    read.Tick(mask(t));
    quiet.Tick(mask(t));
    if (t > 0)
      for (int l = 0; l < PackedLogicSim::kLanes; ++l)
        expect[static_cast<std::size_t>(l)] +=
            (toggling & mask(t)) >> l & 1ULL;
    if (t >= 254 && t <= 256) check(read, t);
  }
  EXPECT_EQ(expect[4], static_cast<std::uint64_t>(kTicks - 1));
  EXPECT_EQ(expect[5], static_cast<std::uint64_t>(kTicks - 1 - 255));
  check(read, kTicks - 1);
  check(quiet, kTicks - 1);
}

TEST(PackedLogicSim, CountersSurviveLongRuns) {
  // 70000 ticks drain the byte counters hundreds of times; lane-
  // dependent stimulus checks the drains keep lanes separate.
  netlist::Netlist nl;
  const auto d = nl.AddInputPort("d");
  const auto q = nl.AddGate(CellKind::kDff, {d});
  nl.AddOutputPort("q", q);
  PackedLogicSim sim(nl);
  sim.Reset();
  const std::uint64_t odd_lanes = 0xAAAAAAAAAAAAAAAAULL;
  const int kTicks = 70000;
  for (int t = 0; t < kTicks; ++t) {
    sim.SetInput(d, (t % 2) ? odd_lanes : 0);
    sim.Tick();
    if (t == 40000) {
      // Mid-run query: lazy flush must not disturb later counting.
      EXPECT_EQ(sim.LaneToggles(q)[1], static_cast<std::uint64_t>(t));
    }
  }
  EXPECT_EQ(sim.cycles(), static_cast<std::uint64_t>(kTicks - 1));
  for (int l = 0; l < PackedLogicSim::kLanes; ++l) {
    const bool toggling = (odd_lanes >> l) & 1ULL;
    EXPECT_EQ(sim.LaneToggles(q)[l],
              toggling ? static_cast<std::uint64_t>(kTicks - 1) : 0u)
        << "lane " << l;
  }
  EXPECT_EQ(sim.TotalToggles(q),
            32ULL * static_cast<std::uint64_t>(kTicks - 1));
  sim.Reset();
  EXPECT_EQ(sim.TotalToggles(q), 0u);
  EXPECT_EQ(sim.cycles(), 0u);
}

// The tentpole contract: for every operator, stimulus kind and
// accuracy mode, the packed batch extraction reproduces the scalar
// oracle's per-net toggle profile bit-for-bit.
TEST(ActivityBatch, BitIdenticalToScalarOracleAcrossOperators) {
  const gen::Operator ops[] = {
      gen::BuildBoothOperator(8), gen::BuildArrayMultOperator(8),
      gen::BuildMacOperator(8), gen::BuildFirMacOperator(8)};
  const int kCycles = 96;
  const std::uint64_t kSeed = 21;
  for (const gen::Operator& op : ops) {
    for (const StimulusKind kind :
         {StimulusKind::kUniform, StimulusKind::kCorrelated}) {
      const std::vector<int> zs = {0, 3, op.spec.data_width};
      ClearActivityCache();
      const std::vector<ActivityProfile> batch =
          ExtractActivityBatch(op, zs, kCycles, kSeed, kind);
      ASSERT_EQ(batch.size(), zs.size());
      for (std::size_t i = 0; i < zs.size(); ++i) {
        const ActivityProfile scalar =
            ExtractActivityScalar(op, zs[i], kCycles, kSeed, kind);
        SCOPED_TRACE(op.spec.name + " kind=" +
                     std::to_string(static_cast<int>(kind)) +
                     " zs=" + std::to_string(zs[i]));
        EXPECT_EQ(batch[i].cycles, scalar.cycles);
        EXPECT_EQ(batch[i].toggle_rate, scalar.toggle_rate);
      }
    }
  }
}

// The sliced engine against the scalar oracle for every lane layout
// that matters: one slice (33, 64 modes), several slices with unused
// lanes left over (3, 5, 17, 21), exact fits (1, 2, 16, 32), and runs
// too short for the slices to warm up (2, 3, 17 cycles). Modes repeat
// across lanes (an 8-bit operator has 9), which the uncached engine
// simulates lane by lane.
TEST(ActivitySliced, BitIdenticalToScalarOracleAcrossLayouts) {
  const gen::Operator ops[] = {
      gen::BuildBoothOperator(8), gen::BuildArrayMultOperator(8),
      gen::BuildMacOperator(8), gen::BuildFirMacOperator(8)};
  const std::uint64_t kSeed = 17;
  for (const gen::Operator& op : ops) {
    for (const StimulusKind kind :
         {StimulusKind::kUniform, StimulusKind::kCorrelated}) {
      for (const int cycles : {2, 3, 17, 1024}) {
        std::map<int, ActivityProfile> scalar;
        for (int z = 0; z <= op.spec.data_width; ++z)
          scalar[z] = ExtractActivityScalar(op, z, cycles, kSeed, kind);
        for (const int modes : {1, 2, 3, 5, 16, 17, 21, 32, 33, 64}) {
          std::vector<int> zs(static_cast<std::size_t>(modes));
          for (int j = 0; j < modes; ++j)
            zs[static_cast<std::size_t>(j)] =
                (7 * j + modes) % (op.spec.data_width + 1);
          SCOPED_TRACE(op.spec.name + " kind=" +
                       std::to_string(static_cast<int>(kind)) +
                       " cycles=" + std::to_string(cycles) +
                       " modes=" + std::to_string(modes));
          int fallbacks = -1;
          const std::vector<ActivityProfile> packed =
              ExtractActivityPacked(op, zs, cycles, kSeed, kind, &fallbacks);
          // The derived warm-up converges on every generator.
          EXPECT_EQ(fallbacks, 0);
          ASSERT_EQ(packed.size(), zs.size());
          for (std::size_t j = 0; j < zs.size(); ++j) {
            EXPECT_EQ(packed[j].cycles, scalar.at(zs[j]).cycles);
            ASSERT_EQ(packed[j].toggle_rate, scalar.at(zs[j]).toggle_rate)
                << "lane mode " << j << " zs=" << zs[j];
          }
        }
      }
    }
  }
}

TEST(ActivitySliced, SliceCounts) {
  EXPECT_EQ(ActivitySlices(16, 1024), 4);  // the explorers' schedule
  EXPECT_EQ(ActivitySlices(17, 2048), 3);
  EXPECT_EQ(ActivitySlices(1, 1024), 64);
  EXPECT_EQ(ActivitySlices(33, 1024), 1);
  EXPECT_EQ(ActivitySlices(64, 1024), 1);
  EXPECT_EQ(ActivitySlices(1, 2), 1);
  EXPECT_EQ(ActivitySlices(2, 17), 16);
  // 5 transitions over 4 slices round to 2 each: the fourth is empty.
  EXPECT_EQ(ActivitySlices(16, 6), 3);
  EXPECT_THROW(ActivitySlices(0, 1024), CheckError);
  EXPECT_THROW(ActivitySlices(65, 1024), CheckError);
}

/// Registered 4-bit input a, state q' = q ^ a: q holds the parity of
/// every past input, so a slice started from reset never converges to
/// the unsliced state unless the skipped prefix happens to be even.
gen::Operator ParityOperator() {
  gen::Operator op;
  op.spec.name = "parity4";
  op.spec.scalable_buses = {"a"};
  op.spec.data_width = 4;
  const gen::Word a = gen::RegisteredInputBus(op.nl, "a", 4);
  const gen::Word q = gen::StateRegisterOutputs(op.nl, 4);
  gen::Word d;
  for (std::size_t i = 0; i < q.size(); ++i)
    d.push_back(op.nl.AddGate(CellKind::kXor2, {q[i], a[i]}));
  gen::ConnectStateRegisters(op.nl, q, d);
  gen::RegisteredOutputBus(op.nl, "q", q);
  return op;
}

TEST(ActivitySliced, SeamFallbackKeepsNonConvergingStateExact) {
  const gen::Operator op = ParityOperator();
  const std::vector<int> zs = {0, 1, 2, 3, 4};
  for (const StimulusKind kind :
       {StimulusKind::kUniform, StimulusKind::kCorrelated}) {
    SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)));
    obs::EnableMetrics(true);
    obs::ResetMetrics();
    int fallbacks = 0;
    const std::vector<ActivityProfile> packed =
        ExtractActivityPacked(op, zs, 1024, 3, kind, &fallbacks);
    const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
    obs::EnableMetrics(false);
    EXPECT_EQ(snap.counters.at("sim.activity_seam_fallbacks"),
              static_cast<std::uint64_t>(fallbacks));
    // Mode 4 zeroes every input bit: its parity stays 0 and converges.
    EXPECT_GT(fallbacks, 0);
    EXPECT_LT(fallbacks, 5);
    for (std::size_t j = 0; j < zs.size(); ++j)
      EXPECT_EQ(packed[j].toggle_rate,
                ExtractActivityScalar(op, zs[j], 1024, 3, kind).toggle_rate)
          << "zs=" << zs[j];
  }
}

TEST(ActivityCache, HitsMissesAndProfileEquality) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  ClearActivityCache();
  ActivityCacheStats s = GetActivityCacheStats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);

  const ActivityProfile first = ExtractActivity(op, 2, 64, 9);
  s = GetActivityCacheStats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 1u);

  const ActivityProfile again = ExtractActivity(op, 2, 64, 9);
  s = GetActivityCacheStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(again.toggle_rate, first.toggle_rate);
  EXPECT_EQ(again.cycles, first.cycles);

  // Any key component change is a distinct entry...
  ExtractActivity(op, 3, 64, 9);                          // zeroed_lsbs
  ExtractActivity(op, 2, 96, 9);                          // cycles
  ExtractActivity(op, 2, 64, 10);                         // seed
  ExtractActivity(op, 2, 64, 9, StimulusKind::kUniform);  // kind
  s = GetActivityCacheStats();
  EXPECT_EQ(s.misses, 5u);
  EXPECT_EQ(s.entries, 5u);

  // ...and a batch with duplicates simulates each mode once.
  const std::vector<int> zs = {4, 4, 2};
  ExtractActivityBatch(op, zs, 64, 9);
  s = GetActivityCacheStats();
  EXPECT_EQ(s.entries, 6u);   // only zs=4 is new
  EXPECT_EQ(s.misses, 6u);
  EXPECT_EQ(s.hits, 3u);      // duplicate zs=4 + cached zs=2, plus prior
  ClearActivityCache();
  EXPECT_EQ(GetActivityCacheStats().entries, 0u);
}

TEST(ActivityCache, SizingChangesShareEntriesStructuralChangesDoNot) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  ClearActivityCache();
  ExtractActivity(op, 1, 64, 13);
  ASSERT_EQ(GetActivityCacheStats().misses, 1u);

  // Drive strengths do not affect logic values, so a resized copy
  // (what another grid's implementation simulates) must hit.
  gen::Operator resized = op;
  for (std::uint32_t i = 0; i < resized.nl.num_instances(); ++i)
    resized.nl.SetDrive(netlist::InstId(i), tech::DriveStrength::kX4);
  ExtractActivity(resized, 1, 64, 13);
  ActivityCacheStats s = GetActivityCacheStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);

  // A structurally different operator of the same arity must miss.
  const gen::Operator other = gen::BuildArrayMultOperator(8);
  ExtractActivity(other, 1, 64, 13);
  s = GetActivityCacheStats();
  EXPECT_EQ(s.misses, 2u);
  ClearActivityCache();
}

TEST(ActivityCache, ObsSnapshotMirrorsCacheCounters) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  ClearActivityCache();
  obs::EnableMetrics(true);
  obs::ResetMetrics();
  ExtractActivity(op, 5, 64, 3);
  ExtractActivity(op, 5, 64, 3);
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  obs::EnableMetrics(false);
  ASSERT_TRUE(snap.counters.count("sim.activity_cache_hits"));
  ASSERT_TRUE(snap.counters.count("sim.activity_cache_misses"));
  EXPECT_EQ(snap.counters.at("sim.activity_cache_hits"), 1u);
  EXPECT_EQ(snap.counters.at("sim.activity_cache_misses"), 1u);
  EXPECT_EQ(snap.counters.at("sim.activity_extractions"), 2u);
  ClearActivityCache();
}

// Golden determinism with the cache in the loop: exploration results
// are identical whether profiles are simulated fresh or served from
// cache, at both the serial and sharded thread counts.
TEST(ActivityCache, ExplorationIdenticalColdAndWarmAcrossThreads) {
  const tech::CellLibrary lib;
  core::FlowOptions fopt;
  fopt.grid = {2, 2};
  fopt.clock_ns = 0.55;
  const core::ImplementedDesign design =
      core::RunImplementationFlow(gen::BuildBoothOperator(8), lib, fopt);
  auto run = [&](int nt) {
    core::ExploreOptions opt;
    opt.bitwidths = {2, 4, 6, 8};
    opt.activity_cycles = 128;
    opt.num_threads = nt;
    return core::ExploreDesignSpace(design, lib, opt);
  };
  ClearActivityCache();
  const core::ExplorationResult cold = run(1);
  EXPECT_GE(GetActivityCacheStats().misses, 4u);
  for (const int nt : {1, 8}) {
    SCOPED_TRACE("num_threads=" + std::to_string(nt));
    const std::uint64_t hits_before = GetActivityCacheStats().hits;
    const core::ExplorationResult warm = run(nt);
    EXPECT_GE(GetActivityCacheStats().hits, hits_before + 4)
        << "re-exploration must be served from the activity cache";
    EXPECT_EQ(warm.stats.sta_runs, cold.stats.sta_runs);
    EXPECT_EQ(warm.stats.pruned, cold.stats.pruned);
    EXPECT_EQ(warm.stats.feasible, cold.stats.feasible);
    ASSERT_EQ(warm.modes.size(), cold.modes.size());
    for (std::size_t i = 0; i < cold.modes.size(); ++i) {
      EXPECT_EQ(warm.modes[i].best.vdd, cold.modes[i].best.vdd);
      EXPECT_EQ(warm.modes[i].best.mask, cold.modes[i].best.mask);
      EXPECT_EQ(warm.modes[i].best.total_power_w(),
                cold.modes[i].best.total_power_w());
    }
  }
  ClearActivityCache();
}

}  // namespace
}  // namespace adq::sim
