/// Regression tests for the 64-bit DomainMask migration: every mask
/// shift that was silent UB (or a silent truncation) at 31/32+
/// domains when masks were std::uint32_t. Pins the tech mask helpers
/// at their boundaries, batched-vs-scalar STA equality on 32- and
/// 33-domain grids, explored-mask bits above 31 (tech::MaskHas), the
/// FL004 mask-width lint at >32 domains, and the activity cache's
/// full-key verification under forced digest collisions.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/explore.h"
#include "core/flow.h"
#include "lint/lint.h"
#include "sim/activity.h"
#include "sta/sta.h"
#include "tech/back_bias.h"

namespace adq {
namespace {

TEST(MaskWidth, HelpersAreDefinedAcrossTheFullWidth) {
  using tech::DomainMask;
  EXPECT_EQ(tech::FullMask(0), DomainMask{0});
  EXPECT_EQ(tech::FullMask(1), DomainMask{1});
  // The historic UB sites: (1u << 31) was implementation-defined as a
  // sign bit, (1u << 32) undefined, ((1u << 32) - 1) garbage.
  EXPECT_EQ(tech::FullMask(31), DomainMask{0x7fffffffu});
  EXPECT_EQ(tech::FullMask(32), DomainMask{0xffffffffu});
  EXPECT_EQ(tech::FullMask(33), DomainMask{0x1ffffffffull});
  EXPECT_EQ(tech::FullMask(tech::kMaxDomains), ~DomainMask{0});
  EXPECT_EQ(tech::MaskBit(31), DomainMask{1} << 31);
  EXPECT_EQ(tech::MaskBit(32), DomainMask{1} << 32);
  EXPECT_EQ(tech::MaskBit(tech::kMaxDomains - 1),
            DomainMask{0x8000000000000000ull});
  for (const int d : {0, 31, 32, 63}) {
    EXPECT_TRUE(tech::MaskHas(tech::MaskBit(d), d));
    EXPECT_FALSE(tech::MaskHas(~tech::MaskBit(d), d));
  }
}

// A point's per-domain bias is read with tech::MaskHas; bits above 31
// of an explored mask must decode.
TEST(MaskWidth, DomainStateReadsBitsAbove31) {
  core::ExploredPoint p;
  p.mask = tech::MaskBit(35) | tech::MaskBit(62);
  EXPECT_TRUE(tech::MaskHas(p.mask, 35));
  EXPECT_TRUE(tech::MaskHas(p.mask, 62));
  EXPECT_FALSE(tech::MaskHas(p.mask, 34));
  EXPECT_FALSE(tech::MaskHas(p.mask, 63));
  EXPECT_FALSE(tech::MaskHas(p.mask, 31));
}

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

core::ImplementedDesign WideDesign(int nx, int ny) {
  core::FlowOptions fopt;
  fopt.grid = {nx, ny};
  fopt.lint = lint::LintGate::kWarn;  // wide grids trade area for it
  return core::RunImplementationFlow(gen::BuildBoothOperator(16), Lib(),
                                     fopt);
}

/// Batched STA must agree lane-for-lane with the scalar engine on
/// masks whose construction was UB at 32-bit width. The scalar path
/// goes through BiasVectorFor (per-instance states, no mask
/// arithmetic), so it is an independent oracle for the mask handling.
void CheckBatchAgainstScalar(const core::ImplementedDesign& d,
                             const std::vector<tech::DomainMask>& lanes) {
  sta::TimingAnalyzer an(d.op.nl, Lib(), d.loads);
  for (const double vdd : {1.0, 0.7}) {
    const std::vector<sta::TimingReport> got =
        an.AnalyzeBatch(std::vector<double>(lanes.size(), vdd), d.clock_ns,
                        lanes, d.domain_of(), nullptr);
    ASSERT_EQ(got.size(), lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      SCOPED_TRACE("vdd=" + std::to_string(vdd) + " lane=" +
                   std::to_string(l));
      const sta::TimingReport want = an.Analyze(
          vdd, d.clock_ns, core::BiasVectorFor(d, lanes[l]), nullptr);
      EXPECT_EQ(got[l].wns_ns, want.wns_ns);
      EXPECT_EQ(got[l].num_violations, want.num_violations);
    }
  }
}

TEST(MaskWidth, BatchMatchesScalarAt32Domains) {
  const core::ImplementedDesign d = WideDesign(8, 4);
  ASSERT_EQ(d.num_domains(), 32);
  CheckBatchAgainstScalar(
      d, {tech::DomainMask{0}, tech::FullMask(32), tech::MaskBit(31),
          tech::FullMask(32) ^ tech::MaskBit(31), tech::MaskBit(31) | 1u,
          tech::DomainMask{0xdeadbeefu} & tech::FullMask(32)});
}

TEST(MaskWidth, BatchMatchesScalarAt33Domains) {
  const core::ImplementedDesign d = WideDesign(11, 3);
  ASSERT_EQ(d.num_domains(), 33);
  CheckBatchAgainstScalar(
      d, {tech::FullMask(33), tech::MaskBit(32),
          tech::FullMask(33) ^ tech::MaskBit(32),
          tech::MaskBit(32) | tech::MaskBit(5)});
}

TEST(MaskWidth, OversizeExhaustiveSweepIsRecoverable) {
  // A full-lattice request beyond kMaxExhaustiveDomains must raise a
  // recoverable ExploreError (satellite 1: previously an abort), and
  // the same request with a restricted mask list must still work.
  const core::ImplementedDesign d = WideDesign(11, 3);
  core::ExploreOptions opt;
  opt.bitwidths = {16};
  opt.activity_cycles = 16;
  EXPECT_THROW(core::ExploreDesignSpace(d, Lib(), opt),
               core::ExploreError);
  opt.masks = {tech::DomainMask{0}, tech::FullMask(33)};
  const core::ExplorationResult r = core::ExploreDesignSpace(d, Lib(), opt);
  EXPECT_EQ(r.stats.points_considered,
            static_cast<long>(opt.vdds.size()) * 2);
}

TEST(MaskWidth, Fl004LintsMasksBeyondBit31) {
  using lint::ModeEntry;
  // 40 domains: the rule's `mask >> num_domains` shift was UB here
  // when masks were 32-bit. A mask inside the domain count is clean;
  // one referencing domain 41 fires.
  const std::vector<ModeEntry> clean = {
      {8, 0.9, tech::MaskBit(35), 1e-3}};
  const lint::LintReport ok =
      lint::LintModeTable("fx", clean, /*num_domains=*/40,
                          /*data_width=*/16);
  EXPECT_EQ(ok.errors() + ok.warnings(), 0) << ok.Render();

  const std::vector<ModeEntry> bad = {
      {8, 0.9, tech::MaskBit(41), 1e-3}};
  const lint::LintReport rep =
      lint::LintModeTable("fx", bad, /*num_domains=*/40,
                          /*data_width=*/16);
  EXPECT_GE(rep.errors() + rep.warnings(), 1) << rep.Render();
}

TEST(MaskWidth, ActivityCacheSurvivesForcedDigestCollisions) {
  // Two structurally different operators under the same name: with
  // the digest forced constant, only the full canonical structure in
  // the key keeps them apart. The old hash-only key would alias them
  // (satellite 3: collision must degrade to a miss, never to the
  // wrong profile).
  gen::Operator a = gen::BuildBoothOperator(4);
  gen::Operator b = gen::BuildArrayMultOperator(4);
  a.spec.name = b.spec.name = "collide";

  sim::ForceActivityHashCollisionsForTest(true);
  sim::ClearActivityCache();
  const sim::ActivityProfile pa = sim::ExtractActivity(a, 0, 64, 7);
  const sim::ActivityProfile pb = sim::ExtractActivity(b, 0, 64, 7);
  EXPECT_EQ(sim::GetActivityCacheStats().misses, 2u);  // no false hit
  EXPECT_EQ(sim::GetActivityCacheStats().hits, 0u);
  // Both cached entries keep serving their own operator.
  const sim::ActivityProfile pa2 = sim::ExtractActivity(a, 0, 64, 7);
  const sim::ActivityProfile pb2 = sim::ExtractActivity(b, 0, 64, 7);
  EXPECT_EQ(sim::GetActivityCacheStats().hits, 2u);
  sim::ForceActivityHashCollisionsForTest(false);
  sim::ClearActivityCache();

  const sim::ActivityProfile oa = sim::ExtractActivityScalar(a, 0, 64, 7);
  const sim::ActivityProfile ob = sim::ExtractActivityScalar(b, 0, 64, 7);
  EXPECT_EQ(pa.toggle_rate, oa.toggle_rate);
  EXPECT_EQ(pa2.toggle_rate, oa.toggle_rate);
  EXPECT_EQ(pb.toggle_rate, ob.toggle_rate);
  EXPECT_EQ(pb2.toggle_rate, ob.toggle_rate);
}

}  // namespace
}  // namespace adq
