/// Tests for the adq_lint static analyzer (src/lint): rule registry
/// consistency, the generator-cleanliness property (every shipped
/// operator generator produces a lint-error-free netlist across
/// widths 4..32), one deliberately broken fixture per rule, flow-gate
/// integration, the mode-aware NL006 dead-cone check, obs metric
/// mirroring, JSON report well-formedness
/// (validated with a recursive-descent parse), and regression tests
/// for the post-ECO tile-protrusion defect the flow lint gate caught
/// in place::RelegalizeViolations.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/accuracy.h"
#include "core/controller.h"
#include "core/flow.h"
#include "gen/adders.h"
#include "gen/operator.h"
#include "lint/lint.h"
#include "netlist/case_analysis.h"
#include "netlist/netlist.h"
#include "obs/obs.h"
#include "place/grid_partition.h"
#include "tech/cell_library.h"
#include "util/check.h"

namespace adq::lint {
namespace {

using netlist::InstId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PinRef;
using netlist::RawAccess;
using tech::CellKind;
using tech::DriveStrength;

// ---------------------------------------------------------------
// Minimal JSON well-formedness checker (validates, does not build a
// DOM). Same grammar subset as the obs serializer tests.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+'))
      ++pos_;
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

int CountRule(const LintReport& rep, const char* id) {
  int n = 0;
  for (const Diagnostic& d : rep.diagnostics)
    if (d.rule == id) ++n;
  return n;
}

// ---------------------------------------------------------------
// Rule registry

TEST(LintRules, RegistryIsConsistent) {
  const std::vector<RuleInfo>& rules = AllRules();
  ASSERT_GE(rules.size(), 14u);
  std::set<std::string> ids, names;
  for (const RuleInfo& r : rules) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    EXPECT_TRUE(names.insert(r.name).second) << "duplicate name " << r.name;
    EXPECT_NE(r.description[0], '\0');
    EXPECT_EQ(FindRule(r.id), &r);
    EXPECT_EQ(FindRule(r.name), &r);
  }
  EXPECT_EQ(FindRule("NOPE"), nullptr);
  // Severity defaults are API: dead logic exists in shipped operators
  // (AddSigned drops the adder's carry cells), so NL003/NL006 must
  // stay warnings while structural corruption stays an error.
  EXPECT_EQ(FindRule(kRuleMultiDriver)->severity, Severity::kError);
  EXPECT_EQ(FindRule(kRuleCombLoop)->severity, Severity::kError);
  EXPECT_EQ(FindRule(kRuleDanglingOutput)->severity, Severity::kWarning);
  EXPECT_EQ(FindRule(kRuleDeadCone)->severity, Severity::kWarning);
  EXPECT_EQ(FindRule(kRuleFanoutCeiling)->severity, Severity::kWarning);
}

// ---------------------------------------------------------------
// Property: every shipped generator is lint-clean (zero errors; the
// known dead carry cones surface as warnings only) across widths.

TEST(LintClean, OperatorsAcrossWidths) {
  for (const int w : {4, 8, 12, 16, 24, 32}) {
    const gen::Operator ops[] = {
        gen::BuildBoothOperator(w), gen::BuildButterflyOperator(w),
        gen::BuildFirMacOperator(w), gen::BuildMacOperator(w),
        gen::BuildArrayMultOperator(w)};
    for (const gen::Operator& op : ops) {
      const LintReport rep = LintNetlist(op.nl);
      EXPECT_EQ(rep.errors(), 0)
          << op.spec.name << " width " << w << ":\n" << rep.Render();
    }
  }
}

TEST(LintClean, AddersAcrossWidthsViaRegisterHarness) {
  for (const gen::AdderStyle style :
       {gen::AdderStyle::kRipple, gen::AdderStyle::kCla,
        gen::AdderStyle::kKoggeStone}) {
    for (int w = 4; w <= 32; w += 4) {
      Netlist nl("adder_harness");
      const gen::Word a = gen::RegisteredInputBus(nl, "a", w);
      const gen::Word b = gen::RegisteredInputBus(nl, "b", w);
      const gen::AdderResult r =
          gen::MakeAdder(nl, a, b, nl.ConstNet(false), style);
      gen::Word sum = r.sum;
      sum.push_back(r.carry);
      gen::RegisteredOutputBus(nl, "s", sum);
      const LintReport rep = LintNetlist(nl);
      EXPECT_EQ(rep.errors(), 0)
          << "style " << static_cast<int>(style) << " width " << w << ":\n"
          << rep.Render();
      // The harness registers the carry too, so nothing is dead.
      EXPECT_EQ(CountRule(rep, kRuleDeadCone), 0);
    }
  }
}

TEST(LintClean, RegisteredOperatorPassesEndpointDiscipline) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  const tech::CellLibrary lib;
  FlowArtifacts art;
  art.clock_ns = op.spec.target_clock_ns;
  const LintReport rep = LintFlow(op.nl, lib, art);
  EXPECT_EQ(CountRule(rep, kRuleEndpointConstraint), 0) << rep.Render();
}

// ---------------------------------------------------------------
// One deliberately broken fixture per rule.

TEST(LintFixtures, NL001MultiDriverNet) {
  Netlist nl("fx");
  const NetId in = nl.AddInputPort("i");
  const NetId x = nl.AddGate(CellKind::kInv, {in});
  nl.AddGate(CellKind::kInv, {x});  // reader so x is not dangling
  const NetId y = nl.AddGate(CellKind::kBuf, {in});
  nl.AddOutputPort("o", y);
  // Second driver claims net x.
  RawAccess raw(nl);
  raw.inst(InstId(2)).out[0] = x;
  const LintReport rep = LintNetlist(nl);
  EXPECT_GE(CountRule(rep, kRuleMultiDriver), 1) << rep.Render();
  EXPECT_GT(rep.errors(), 0);
}

TEST(LintFixtures, NL001DrivenPrimaryInput) {
  Netlist nl("fx");
  const NetId in = nl.AddInputPort("i");
  const NetId x = nl.AddGate(CellKind::kInv, {in});
  nl.AddOutputPort("o", x);
  RawAccess raw(nl);
  raw.inst(InstId(0)).out[0] = in;  // INV now also drives the port net
  const LintReport rep = LintNetlist(nl);
  EXPECT_GE(CountRule(rep, kRuleMultiDriver), 1) << rep.Render();
}

TEST(LintFixtures, NL002UndrivenNet) {
  Netlist nl("fx");
  const NetId floating = nl.NewNet();  // never driven
  const NetId x = nl.AddGate(CellKind::kInv, {floating});
  nl.AddOutputPort("o", x);
  const LintReport rep = LintNetlist(nl);
  EXPECT_EQ(CountRule(rep, kRuleUndrivenNet), 1) << rep.Render();
  EXPECT_FALSE(rep.clean());
}

TEST(LintFixtures, NL003DanglingOutput) {
  Netlist nl("fx");
  const NetId in = nl.AddInputPort("i");
  nl.AddGate(CellKind::kInv, {in});  // output read by nobody, not a PO
  const LintReport rep = LintNetlist(nl);
  EXPECT_EQ(CountRule(rep, kRuleDanglingOutput), 1) << rep.Render();
  // Dangling output is a warning: the netlist stays analyzable.
  EXPECT_EQ(rep.errors(), 0);
}

TEST(LintFixtures, NL004CombinationalLoopWithCyclePrinted) {
  Netlist nl("fx");
  const NetId loop = nl.NewNet();
  const NetId mid = nl.AddGate(CellKind::kInv, {loop});
  nl.AddCellWithOutputs(CellKind::kInv, DriveStrength::kX1, {mid}, {loop});
  nl.AddOutputPort("o", mid);
  const LintReport rep = LintNetlist(nl);
  ASSERT_GE(CountRule(rep, kRuleCombLoop), 1) << rep.Render();
  // The finding names the cycle itself, INV#a -> INV#b -> INV#a.
  bool printed = false;
  for (const Diagnostic& d : rep.diagnostics)
    if (d.rule == kRuleCombLoop &&
        d.message.find("INV#0 -> INV#1 -> INV#0") != std::string::npos)
      printed = true;
  EXPECT_TRUE(printed) << rep.Render();
}

TEST(LintFixtures, NL004RegisterCutsTheLoop) {
  // Same topology but with a DFF in the cycle: a legal accumulator.
  Netlist nl("fx");
  const NetId q = nl.NewNet();
  const NetId d = nl.AddGate(CellKind::kInv, {q});
  nl.AddCellWithOutputs(CellKind::kDff, DriveStrength::kX1, {d}, {q});
  nl.AddOutputPort("o", d);
  const LintReport rep = LintNetlist(nl);
  EXPECT_EQ(CountRule(rep, kRuleCombLoop), 0) << rep.Render();
}

TEST(LintFixtures, NL005PinArityAndStaleBackrefs) {
  Netlist nl("fx");
  const NetId in = nl.AddInputPort("i");
  const NetId x = nl.AddGate(CellKind::kInv, {in});
  nl.AddOutputPort("o", x);
  RawAccess raw(nl);
  // Extra pin beyond the INV's 1-input definition.
  raw.inst(InstId(0)).in[1] = in;
  const LintReport extra = LintNetlist(nl);
  EXPECT_GE(CountRule(extra, kRulePinArity), 1) << extra.Render();
  raw.inst(InstId(0)).in[1] = NetId();
  // Stale sink back-reference: the net forgets its reader.
  raw.net(in).sinks.clear();
  const LintReport stale = LintNetlist(nl);
  EXPECT_GE(CountRule(stale, kRulePinArity), 1) << stale.Render();
}

TEST(LintFixtures, NL006DeadCone) {
  Netlist nl("fx");
  const NetId in = nl.AddInputPort("i");
  const NetId x = nl.AddGate(CellKind::kInv, {in});
  const NetId live = nl.AddGate(CellKind::kBuf, {in});
  nl.AddGate(CellKind::kInv, {x});  // dead pair: reaches no output
  nl.AddOutputPort("o", live);
  const LintReport rep = LintNetlist(nl);
  EXPECT_EQ(CountRule(rep, kRuleDeadCone), 2) << rep.Render();
  EXPECT_EQ(rep.errors(), 0);  // dead logic is a warning
}

TEST(LintFixtures, NL007FanoutCeiling) {
  Netlist nl("fx");
  const NetId in = nl.AddInputPort("i");
  const NetId x = nl.AddGate(CellKind::kBuf, {in});
  for (int k = 0; k < 9; ++k)
    nl.AddOutputPort("o" + std::to_string(k),
                     nl.AddGate(CellKind::kInv, {x}));
  LintOptions opt;
  opt.max_fanout = 8;
  const LintReport rep = LintNetlist(nl, opt);
  EXPECT_EQ(CountRule(rep, kRuleFanoutCeiling), 1) << rep.Render();
  // Without a ceiling the rule does not run.
  const LintReport off = LintNetlist(nl);
  EXPECT_EQ(CountRule(off, kRuleFanoutCeiling), 0);
}

TEST(LintFixtures, NL008BusBookkeeping) {
  Netlist nl("fx");
  const NetId a0 = nl.AddInputPort("a0");
  const NetId a1 = nl.AddInputPort("a1");
  nl.AddInputBus("a", {a0, a1});
  nl.AddOutputPort("o", nl.AddGate(CellKind::kAnd2, {a0, a1}));
  RawAccess raw(nl);
  // Duplicate bus name + a bit that is no longer flagged as a port.
  raw.input_buses().push_back(raw.input_buses()[0]);
  raw.net(a1).is_primary_input = false;
  const LintReport rep = LintNetlist(nl);
  EXPECT_GE(CountRule(rep, kRulePortBus), 2) << rep.Render();
  EXPECT_FALSE(rep.clean());
}

// Flow-artifact fixtures share one small implemented design.
struct FlowFixture {
  tech::CellLibrary lib;
  core::ImplementedDesign d;
  FlowFixture() {
    core::FlowOptions fopt;
    fopt.grid = place::GridConfig{2, 2};
    d = core::RunImplementationFlow(gen::BuildMacOperator(4), lib, fopt);
  }
};

FlowFixture& SharedFlow() {
  static FlowFixture* fx = new FlowFixture;
  return *fx;
}

TEST(LintFixtures, FlowArtifactsAreCleanByConstruction) {
  FlowFixture& fx = SharedFlow();
  FlowArtifacts art;
  art.placement = &fx.d.placement;
  art.partition = &fx.d.partition;
  art.clock_ns = fx.d.clock_ns;
  const LintReport rep = LintFlow(fx.d.op.nl, fx.lib, art);
  EXPECT_EQ(rep.errors(), 0) << rep.Render();
}

TEST(LintFixtures, FL001DomainCoverage) {
  FlowFixture& fx = SharedFlow();
  place::GridPartition part = fx.d.partition;
  part.domain_of[0] = 99;  // nonexistent domain
  part.domain_of[1] = -1;
  FlowArtifacts art;
  art.partition = &part;
  const LintReport rep = LintFlow(fx.d.op.nl, fx.lib, art);
  EXPECT_GE(CountRule(rep, kRuleDomainCoverage), 2) << rep.Render();

  part = fx.d.partition;
  part.domain_of.pop_back();  // a placed cell with no domain at all
  const LintReport uncovered = LintFlow(fx.d.op.nl, fx.lib, art);
  EXPECT_GE(CountRule(uncovered, kRuleDomainCoverage), 1)
      << uncovered.Render();
}

TEST(LintFixtures, FL002TileContainment) {
  FlowFixture& fx = SharedFlow();
  place::Placement pl = fx.d.placement;
  // Push one cell deep into the guardband between column tiles.
  pl.pos[0] = place::Point{-5.0, pl.pos[0].y};
  FlowArtifacts art;
  art.placement = &pl;
  art.partition = &fx.d.partition;
  const LintReport rep = LintFlow(fx.d.op.nl, fx.lib, art);
  EXPECT_GE(CountRule(rep, kRuleTileContainment), 1) << rep.Render();
}

TEST(LintFixtures, FL003GuardbandOverlap) {
  FlowFixture& fx = SharedFlow();
  place::GridPartition part = fx.d.partition;
  // Slide tile 1 left until it violates the guardband against tile 0.
  part.tiles[1].x_lo = part.tiles[0].x_hi + 0.1 * part.guardband_um;
  FlowArtifacts art;
  art.partition = &part;
  const LintReport gap = LintFlow(fx.d.op.nl, fx.lib, art);
  EXPECT_GE(CountRule(gap, kRuleGuardbandOverlap), 1) << gap.Render();
  // Slide it further until the wells overlap outright.
  part.tiles[1].x_lo = part.tiles[0].x_hi - 1.0;
  const LintReport overlap = LintFlow(fx.d.op.nl, fx.lib, art);
  EXPECT_GE(CountRule(overlap, kRuleGuardbandOverlap), 1)
      << overlap.Render();
}

TEST(LintFixtures, FL004MaskWidthAndST001Endpoints) {
  // Mode masks referencing domains beyond the count, and a domain
  // biased forward and reverse at once.
  const std::vector<ModeEntry> modes = {
      {8, 0.9, 0b100u, 0u, 1e-3},   // domain 2 of 2
      {16, 1.0, 0b01u, 0b01u, 2e-3},  // fbb & rbb overlap
  };
  const LintReport rep = LintModeTable("fx", modes, /*num_domains=*/2,
                                       /*data_width=*/16);
  EXPECT_GE(CountRule(rep, kRuleMaskWidth), 2) << rep.Render();

  // ST001: a port-to-port path no constraint covers.
  Netlist nl("fx");
  const NetId in = nl.AddInputPort("i");
  nl.AddOutputPort("o", nl.AddGate(CellKind::kInv, {in}));
  tech::CellLibrary lib;
  FlowArtifacts art;
  art.clock_ns = 1.0;
  const LintReport st = LintFlow(nl, lib, art);
  EXPECT_GE(CountRule(st, kRuleEndpointConstraint), 2) << st.Render();
}

TEST(LintFixtures, MD001ModeSchedule) {
  const std::vector<ModeEntry> modes = {
      {4, 0.7, 0u, 0u, 3e-3},   // more power than the 8-bit mode below
      {8, 0.8, 0u, 0u, 1e-3},   // -> monotonicity warning
      {8, 0.8, 0u, 0u, 1e-3},   // duplicate bitwidth -> error
      {99, 0.8, 0u, 0u, 2e-3},  // bitwidth beyond data width -> error
      {12, 9.9, 0u, 0u, 2e-3},  // absurd VDD -> warning
  };
  const LintReport rep =
      LintModeTable("fx", modes, /*num_domains=*/4, /*data_width=*/16);
  EXPECT_GE(CountRule(rep, kRuleModeSchedule), 4) << rep.Render();
  EXPECT_GT(rep.errors(), 0);
  EXPECT_GT(rep.warnings(), 0);
}

// ---------------------------------------------------------------
// Options, gates, report plumbing

TEST(LintOptions, DisabledRulesAreSkipped) {
  Netlist nl("fx");
  const NetId in = nl.AddInputPort("i");
  nl.AddGate(CellKind::kInv, {in});  // dangling + dead
  LintOptions opt;
  opt.disabled = {kRuleDanglingOutput, "dead-cone"};  // id and name forms
  const LintReport rep = LintNetlist(nl, opt);
  EXPECT_EQ(CountRule(rep, kRuleDanglingOutput), 0) << rep.Render();
  EXPECT_EQ(CountRule(rep, kRuleDeadCone), 0) << rep.Render();
}

TEST(LintOptions, PerRuleCapFoldsIntoSummary) {
  Netlist nl("fx");
  const NetId in = nl.AddInputPort("i");
  for (int k = 0; k < 40; ++k) nl.AddGate(CellKind::kInv, {in});
  LintOptions opt;
  opt.max_diags_per_rule = 4;
  const LintReport rep = LintNetlist(nl, opt);
  // 4 detailed findings + 1 trailing summary per affected rule.
  EXPECT_EQ(CountRule(rep, kRuleDanglingOutput), 5) << rep.Render();
  bool summarized = false;
  for (const Diagnostic& d : rep.diagnostics)
    if (d.location == "(summary)" &&
        d.message.find("36 further") != std::string::npos)
      summarized = true;
  EXPECT_TRUE(summarized) << rep.Render();
}

TEST(LintGates, EnforceGateSemantics) {
  LintReport rep;
  rep.subject = "fx";
  EXPECT_NO_THROW(EnforceGate(rep, LintGate::kError));
  rep.Add(Diagnostic{kRuleDeadCone, Severity::kWarning, "x", "m", ""});
  EXPECT_NO_THROW(EnforceGate(rep, LintGate::kError));  // warnings pass
  rep.Add(Diagnostic{kRuleMultiDriver, Severity::kError, "x", "m", ""});
  EXPECT_THROW(EnforceGate(rep, LintGate::kError), CheckError);
  EXPECT_NO_THROW(EnforceGate(rep, LintGate::kWarn));
  EXPECT_NO_THROW(EnforceGate(rep, LintGate::kOff));
}

TEST(LintReportTest, JsonIsWellFormedAndComplete) {
  Netlist nl("fx\"quoted");  // exercises string escaping
  const NetId in = nl.AddInputPort("i");
  nl.AddGate(CellKind::kInv, {in});
  LintReport rep = LintNetlist(nl);
  FlowArtifacts art;
  art.clock_ns = -1.0;  // force an ST001 error into the merged report
  tech::CellLibrary lib;
  rep.Merge(LintFlow(nl, lib, art));
  const std::string json = rep.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"subject\":\"fx\\\"quoted\""), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"NL003\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":"), std::string::npos);
  // Render() ends with the summary line.
  const std::string text = rep.Render();
  EXPECT_NE(text.find("error(s)"), std::string::npos);
  EXPECT_NE(text.find("[NL003]"), std::string::npos);
}

TEST(LintMetrics, TotalsMirroredIntoObsCounters) {
  obs::EnableMetrics(true);
  obs::Counter& reports = obs::GetCounter("lint.reports");
  obs::Counter& errors = obs::GetCounter("lint.errors");
  obs::Counter& warnings = obs::GetCounter("lint.warnings");
  const long r0 = reports.value(), e0 = errors.value(),
             w0 = warnings.value();
  Netlist nl("fx");
  const NetId floating = nl.NewNet();
  const NetId x = nl.AddGate(CellKind::kInv, {floating});  // NL002 error
  nl.AddOutputPort("o", x);
  const LintReport rep = LintNetlist(nl);
  EXPECT_EQ(reports.value(), r0 + 1);
  EXPECT_EQ(errors.value(), e0 + rep.errors());
  EXPECT_EQ(warnings.value(), w0 + rep.warnings());
  EXPECT_GT(rep.errors(), 0);
}

// ---------------------------------------------------------------
// Flow integration: the on-by-default gates, and the runtime
// controller's schedule check.

TEST(LintFlowGate, DefaultFlowPassesErrorGate) {
  // Would throw CheckError from a lint gate if any error were found.
  FlowFixture& fx = SharedFlow();
  EXPECT_TRUE(fx.d.placement.pos.size() == fx.d.op.nl.num_instances());
}

TEST(LintFlowGate, ControllerScheduleIsClean) {
  FlowFixture& fx = SharedFlow();
  core::ExploreOptions xopt;
  xopt.bitwidths = {2, 4};
  const core::ExplorationResult res =
      core::ExploreDesignSpace(fx.d, fx.lib, xopt);
  const core::RuntimeController ctl(res);
  const LintReport rep =
      ctl.Lint(fx.d.num_domains(), fx.d.op.spec.data_width);
  EXPECT_EQ(rep.errors(), 0) << rep.Render();
}

// ---------------------------------------------------------------
// Regression: post-ECO upsizing used to push boundary cells out of
// their domain tile (FL002) and could overflow a tile's row capacity
// outright. RelegalizeViolations repairs both.

TEST(LintRegression, RelegalizeRepairsUpsizedBoundaryCells) {
  FlowFixture& fx = SharedFlow();
  gen::Operator op = fx.d.op;  // copy: sized netlist
  place::GridPartition part = fx.d.partition;
  place::Placement pl = fx.d.placement;
  // Upsizing one domain's cells after legalization models an
  // aggressive localized ECO: boundary cells protrude into the
  // guardband, and the tile overflows its row capacity so the
  // shedding escape must move cells into the (still slack)
  // neighboring tiles.
  for (std::uint32_t i = 0; i < op.nl.num_instances(); ++i)
    if (part.domain_of[i] == 0) op.nl.SetDrive(InstId(i), DriveStrength::kX4);
  FlowArtifacts art;
  art.placement = &pl;
  art.partition = &part;
  const LintReport before = LintFlow(op.nl, fx.lib, art);
  ASSERT_GT(CountRule(before, kRuleTileContainment), 0)
      << "fixture no longer provokes the defect:\n" << before.Render();
  const int fixed =
      place::RelegalizeViolations(op.nl, fx.lib, &part, &pl);
  EXPECT_GT(fixed, 0);
  const LintReport after = LintFlow(op.nl, fx.lib, art);
  EXPECT_EQ(CountRule(after, kRuleTileContainment), 0) << after.Render();
  EXPECT_EQ(CountRule(after, kRuleDomainCoverage), 0) << after.Render();
}

TEST(LintRegression, FlowSurvivesCapacityOverflowConfig) {
  // butterfly/8 on a 4x3 grid is the configuration whose post-ECO
  // upsizing overflowed a tile's row capacity before the shedding
  // escape existed; with lint gates on (the default) this used to
  // abort. It must now implement cleanly.
  tech::CellLibrary lib;
  core::FlowOptions fopt;
  fopt.grid = place::GridConfig{4, 3};
  const core::ImplementedDesign d =
      core::RunImplementationFlow(gen::BuildButterflyOperator(8), lib, fopt);
  FlowArtifacts art;
  art.placement = &d.placement;
  art.partition = &d.partition;
  art.clock_ns = d.clock_ns;
  const LintReport rep = LintFlow(d.op.nl, lib, art);
  EXPECT_EQ(rep.errors(), 0) << rep.Render();
}

// ---------------------------------------------------------------
// Mode-aware NL006

TEST(ModeAwareDeadCones, ConstantNetsDoNotPropagateLiveness) {
  const gen::Operator op = gen::BuildBoothOperator(8);
  // The generator ships a handful of structurally-constant cones that
  // the plain rule already flags; the mode-aware run must find those
  // PLUS the cones that only die because mode-2 pins their inputs.
  lint::LintOptions opt;
  opt.max_diags_per_rule = 1 << 20;
  const lint::LintReport structural = lint::LintNetlist(op.nl, opt);
  const int base = CountRule(structural, lint::kRuleDeadCone);
  // Under a coarse accuracy mode the zeroed cone is mode-dead.
  const netlist::CaseAnalysis ca(op.nl, core::ForcedZeros(op, 2));
  opt.case_analysis = &ca;
  const lint::LintReport modal = lint::LintNetlist(op.nl, opt);
  EXPECT_GT(CountRule(modal, lint::kRuleDeadCone), base) << modal.Render();
  EXPECT_EQ(modal.errors(), structural.errors());
}

}  // namespace
}  // namespace adq::lint
