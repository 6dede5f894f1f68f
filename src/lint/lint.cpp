#include "lint/lint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"

namespace adq::lint {

namespace {

using netlist::InstId;
using netlist::Net;
using netlist::NetId;
using netlist::Netlist;
using netlist::PinRef;

std::string NetLoc(const Netlist& nl, NetId n) {
  std::ostringstream os;
  os << "net " << n.index();
  if (n.index() < nl.num_nets()) {
    const std::string& port = nl.PortName(n);
    if (!port.empty()) os << " (" << port << ")";
  }
  return os.str();
}

std::string InstLoc(const Netlist& nl, InstId i) {
  std::ostringstream os;
  os << "inst " << i.index();
  if (i.index() < nl.num_instances())
    os << " (" << tech::ToString(nl.inst(i).kind) << ")";
  return os.str();
}

/// Collects findings with per-rule capping: after
/// LintOptions::max_diags_per_rule findings of one rule the rest are
/// counted and folded into a single trailing summary diagnostic.
class Sink {
 public:
  Sink(LintReport* rep, const LintOptions& opt) : rep_(rep), opt_(opt) {}

  /// Reports one finding. `severity_override` of -1 keeps the rule's
  /// registry default; otherwise it is a Severity cast to int.
  void Report(const char* rule_id, std::string location,
              std::string message, std::string hint = {},
              int severity_override = -1) {
    const RuleInfo* rule = FindRule(rule_id);
    ADQ_CHECK_MSG(rule != nullptr, "unknown lint rule " << rule_id);
    int& n = count_[rule_id];
    ++n;
    if (n > opt_.max_diags_per_rule) return;
    Diagnostic d;
    d.rule = rule_id;
    d.severity = severity_override < 0
                     ? rule->severity
                     : static_cast<Severity>(severity_override);
    d.location = std::move(location);
    d.message = std::move(message);
    d.hint = std::move(hint);
    severity_of_[rule_id] = d.severity;
    rep_->Add(std::move(d));
  }

  /// Emits the "... and N more" summaries for capped rules.
  void Finish() {
    for (const auto& [id, n] : count_) {
      if (n <= opt_.max_diags_per_rule) continue;
      Diagnostic d;
      d.rule = id;
      d.severity = severity_of_[id];
      d.location = "(summary)";
      std::ostringstream os;
      os << (n - opt_.max_diags_per_rule) << " further finding(s) of this "
         << "rule suppressed (" << n << " total)";
      d.message = os.str();
      rep_->Add(std::move(d));
    }
  }

 private:
  LintReport* rep_;
  const LintOptions& opt_;
  std::map<std::string, int> count_;
  std::map<std::string, Severity> severity_of_;
};

void MirrorToMetrics(const LintReport& rep) {
  obs::GetCounter("lint.reports").Add(1);
  obs::GetCounter("lint.errors").Add(rep.errors());
  obs::GetCounter("lint.warnings").Add(rep.warnings());
}

/// True when the stored kind is a valid library kind; instances with
/// a corrupt kind byte are reported once and skipped by later rules
/// (tech::NumInputs would throw on them).
bool KindValid(const netlist::Instance& inst) {
  return static_cast<unsigned>(inst.kind) <
         static_cast<unsigned>(tech::kNumCellKinds);
}

// --- NL001 / NL002 / NL003 / NL005 (net-side) -------------------------

void CheckNets(const Netlist& nl, Sink& sink) {
  // Who claims to drive each net, from the instance side.
  std::vector<std::vector<PinRef>> claims(nl.num_nets());
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instances()[i];
    if (!KindValid(inst)) continue;
    for (int o = 0; o < inst.num_outputs(); ++o) {
      const NetId out = inst.out[o];
      if (out.valid() && out.index() < nl.num_nets())
        claims[out.index()].push_back(
            PinRef{InstId(i), static_cast<std::uint8_t>(o)});
    }
  }

  for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.nets()[n];
    const NetId id(n);
    const auto& cl = claims[n];

    if (cl.size() > 1) {
      std::ostringstream os;
      os << "driven by " << cl.size() << " cell output pins:";
      for (const PinRef& p : cl)
        os << " " << InstLoc(nl, p.inst) << "." << int(p.pin);
      sink.Report(kRuleMultiDriver, NetLoc(nl, id), os.str(),
                  "every net must have exactly one driver");
    }
    if (net.is_primary_input && (net.driver.valid() || !cl.empty())) {
      sink.Report(kRuleMultiDriver, NetLoc(nl, id),
                  "primary input is also driven by a cell output",
                  "ports and cell outputs cannot share a net driver");
    }

    // Driver back-reference consistency (instance-side claims are the
    // ground truth; the net's cached driver must agree).
    if (cl.size() == 1 && !net.is_primary_input) {
      if (!net.driver.valid() || !(net.driver == cl[0])) {
        sink.Report(kRulePinArity, NetLoc(nl, id),
                    "stale driver back-reference: net does not point at "
                    "the cell output pin that drives it");
      }
    } else if (cl.empty() && net.driver.valid()) {
      sink.Report(kRulePinArity, NetLoc(nl, id),
                  "stale driver back-reference: net names a driver pin "
                  "that does not claim it");
    }

    const bool driven =
        net.is_primary_input || net.driver.valid() || !cl.empty();
    if (!driven && (!net.sinks.empty() || net.is_primary_output)) {
      sink.Report(kRuleUndrivenNet, NetLoc(nl, id),
                  "undriven net feeds " + std::to_string(net.sinks.size()) +
                      " sink pin(s)" +
                      (net.is_primary_output ? " and a primary output" : ""),
                  "connect a driver or a tie cell");
    }
    if (!cl.empty() && net.sinks.empty() && !net.is_primary_output) {
      sink.Report(kRuleDanglingOutput, NetLoc(nl, id),
                  "cell output drives nothing",
                  "remove the dead driver or route the net");
    }

    // Sink back-references.
    std::vector<PinRef> seen;
    for (const PinRef& s : net.sinks) {
      if (!s.valid() || s.inst.index() >= nl.num_instances()) {
        sink.Report(kRulePinArity, NetLoc(nl, id),
                    "sink list references a nonexistent instance");
        continue;
      }
      const netlist::Instance& si = nl.inst(s.inst);
      if (!KindValid(si)) continue;
      if (s.pin >= si.num_inputs()) {
        sink.Report(kRulePinArity, NetLoc(nl, id),
                    "sink pin " + std::to_string(int(s.pin)) + " of " +
                        InstLoc(nl, s.inst) +
                        " exceeds the cell's input count");
      } else if (!(si.in[s.pin] == id)) {
        sink.Report(kRulePinArity, NetLoc(nl, id),
                    "stale sink back-reference: " + InstLoc(nl, s.inst) +
                        " pin " + std::to_string(int(s.pin)) +
                        " reads a different net");
      }
      if (std::find(seen.begin(), seen.end(), s) != seen.end()) {
        sink.Report(kRulePinArity, NetLoc(nl, id),
                    "duplicate sink entry for " + InstLoc(nl, s.inst) +
                        " pin " + std::to_string(int(s.pin)));
      }
      seen.push_back(s);
    }
  }
}

// --- NL005 (instance-side pin arity vs tech:: definition) -------------

void CheckPinArity(const Netlist& nl, Sink& sink) {
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instances()[i];
    const InstId id(i);
    if (!KindValid(inst)) {
      sink.Report(kRulePinArity, "inst " + std::to_string(i),
                  "corrupt cell kind " +
                      std::to_string(int(inst.kind)));
      continue;
    }
    const int n_in = inst.num_inputs();
    const int n_out = inst.num_outputs();
    for (int p = 0; p < tech::kMaxCellInputs; ++p) {
      const bool expect = p < n_in;
      const NetId in = inst.in[p];
      if (expect && (!in.valid() || in.index() >= nl.num_nets())) {
        sink.Report(kRulePinArity, InstLoc(nl, id),
                    "input pin " + std::to_string(p) +
                        " unconnected (cell wants " + std::to_string(n_in) +
                        " inputs)");
      } else if (!expect && in.valid()) {
        sink.Report(kRulePinArity, InstLoc(nl, id),
                    "input pin " + std::to_string(p) +
                        " connected beyond the cell's " +
                        std::to_string(n_in) + "-input definition");
      } else if (expect) {
        const auto& sinks = nl.net(in).sinks;
        const PinRef self{id, static_cast<std::uint8_t>(p)};
        if (std::find(sinks.begin(), sinks.end(), self) == sinks.end())
          sink.Report(kRulePinArity, InstLoc(nl, id),
                      "input pin " + std::to_string(p) +
                          " missing from its net's sink list");
      }
    }
    for (int o = 0; o < tech::kMaxCellOutputs; ++o) {
      const bool expect = o < n_out;
      const NetId out = inst.out[o];
      if (expect && (!out.valid() || out.index() >= nl.num_nets())) {
        sink.Report(kRulePinArity, InstLoc(nl, id),
                    "output pin " + std::to_string(o) + " unconnected");
      } else if (!expect && out.valid()) {
        sink.Report(kRulePinArity, InstLoc(nl, id),
                    "output pin " + std::to_string(o) +
                        " connected beyond the cell's " +
                        std::to_string(n_out) + "-output definition");
      }
    }
  }
}

// --- NL004 combinational loops ----------------------------------------

void CheckCombLoops(const Netlist& nl, Sink& sink) {
  const std::uint32_t n = static_cast<std::uint32_t>(nl.num_instances());
  const auto comb = [](const netlist::Instance& inst) {
    return KindValid(inst) && !inst.is_sequential();
  };
  // succ(i), the combinational instances reading any output net of
  // combinational i, flattened once: succ[succ_start[i], succ_start[i + 1]).
  std::vector<std::uint32_t> succ_start(n + 1, 0), succ;
  for (std::uint32_t i = 0; i < n; ++i) {
    const netlist::Instance& inst = nl.instances()[i];
    for (int o = 0; comb(inst) && o < inst.num_outputs(); ++o) {
      const NetId out = inst.out[o];
      if (!out.valid() || out.index() >= nl.num_nets()) continue;
      for (const PinRef& s : nl.net(out).sinks)
        if (s.valid() && s.inst.index() < n && comb(nl.inst(s.inst)))
          succ.push_back(static_cast<std::uint32_t>(s.inst.index()));
    }
    succ_start[i + 1] = static_cast<std::uint32_t>(succ.size());
  }

  // 0 = unvisited, 1 = on the current DFS path, 2 = done.
  std::vector<std::uint8_t> color(n, 0);
  // The current DFS path, each instance with its next successor slot.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> path;
  const auto push = [&](std::uint32_t i) {
    color[i] = 1;
    path.push_back({i, succ_start[i]});
  };
  for (std::uint32_t start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    if (!comb(nl.instances()[start])) {
      color[start] = 2;
      continue;
    }
    push(start);
    while (!path.empty()) {
      auto& [inst, next] = path.back();
      if (next == succ_start[inst + 1]) {
        color[inst] = 2;
        path.pop_back();
        continue;
      }
      const std::uint32_t s = succ[next++];
      if (color[s] == 0) {
        push(s);
      } else if (color[s] == 1) {
        // Back edge: the cycle is the path suffix starting at s.
        const auto it = std::find_if(
            path.begin(), path.end(),
            [&](const auto& f) { return f.first == s; });
        std::ostringstream os;
        os << "combinational cycle of length " << (path.end() - it) << ": ";
        for (auto p = it; p != path.end(); ++p)
          os << tech::ToString(nl.instances()[p->first].kind) << "#"
             << p->first << " -> ";
        os << tech::ToString(nl.instances()[s].kind) << "#" << s;
        sink.Report(kRuleCombLoop, InstLoc(nl, InstId(s)), os.str(),
                    "cut the loop with a register");
      }
    }
  }
}

// --- NL006 unreachable (dead) logic cones -----------------------------

void CheckDeadCones(const Netlist& nl, const netlist::CaseAnalysis* ca,
                    Sink& sink) {
  // With a per-mode case analysis, constant nets carry no events and
  // do not propagate liveness: the rule reports mode-dead cones.
  const auto can_toggle = [&](NetId n) {
    return n.valid() && n.index() < nl.num_nets() &&
           (ca == nullptr || !ca->IsConstant(n));
  };
  std::vector<char> net_live(nl.num_nets(), 0);
  std::vector<char> inst_live(nl.num_instances(), 0);
  std::vector<std::uint32_t> work;
  for (const NetId po : nl.primary_outputs()) {
    if (can_toggle(po) && !net_live[po.index()]) {
      net_live[po.index()] = 1;
      work.push_back(static_cast<std::uint32_t>(po.index()));
    }
  }
  while (!work.empty()) {
    const std::uint32_t n = work.back();
    work.pop_back();
    const Net& net = nl.nets()[n];
    if (!net.driver.valid() ||
        net.driver.inst.index() >= nl.num_instances())
      continue;
    const std::uint32_t d =
        static_cast<std::uint32_t>(net.driver.inst.index());
    if (inst_live[d]) continue;
    inst_live[d] = 1;
    const netlist::Instance& inst = nl.instances()[d];
    if (!KindValid(inst)) continue;
    for (int p = 0; p < inst.num_inputs(); ++p) {
      const NetId in = inst.in[p];
      if (can_toggle(in) && !net_live[in.index()]) {
        net_live[in.index()] = 1;
        work.push_back(static_cast<std::uint32_t>(in.index()));
      }
    }
  }
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    if (!inst_live[i]) {
      if (ca != nullptr)
        sink.Report(kRuleDeadCone, InstLoc(nl, InstId(i)),
                    "cell reaches primary outputs only through nets "
                    "proven constant in the analyzed accuracy mode "
                    "(mode-dead logic: it still leaks while the mode "
                    "is selected)",
                    "sleep the domain in RBB or gate the cone's clock "
                    "in this mode");
      else
        sink.Report(kRuleDeadCone, InstLoc(nl, InstId(i)),
                    "cell reaches no primary output (dead logic: it "
                    "still costs area, leakage and placement capacity)",
                    "remove the cone or connect it to an output");
    }
  }
}

// --- NL007 fanout ceiling ---------------------------------------------

void CheckFanout(const Netlist& nl, int max_fanout, Sink& sink) {
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.nets()[n];
    if (static_cast<int>(net.sinks.size()) <= max_fanout) continue;
    // Constants carry no transitions; their fanout is electrically free
    // (opt::BufferHighFanout skips them for the same reason).
    if (net.driver.valid() &&
        net.driver.inst.index() < nl.num_instances()) {
      const netlist::Instance& d = nl.inst(net.driver.inst);
      if (KindValid(d) && tech::IsTie(d.kind)) continue;
    }
    sink.Report(kRuleFanoutCeiling, NetLoc(nl, NetId(n)),
                "fanout " + std::to_string(net.sinks.size()) +
                    " exceeds the ceiling of " + std::to_string(max_fanout),
                "insert a buffer tree (opt::BufferHighFanout)");
  }
}

// --- NL008 port/bus bookkeeping ---------------------------------------

void CheckPortsAndBuses(const Netlist& nl, Sink& sink) {
  auto check_bus_set = [&](const std::vector<netlist::Bus>& buses,
                           bool is_input) {
    const char* dir = is_input ? "input" : "output";
    std::vector<std::string> names;
    for (const netlist::Bus& bus : buses) {
      const std::string loc = std::string(dir) + " bus \"" + bus.name + "\"";
      if (bus.name.empty())
        sink.Report(kRulePortBus, loc, "bus has an empty name");
      if (std::find(names.begin(), names.end(), bus.name) != names.end())
        sink.Report(kRulePortBus, loc, "duplicate bus name");
      names.push_back(bus.name);
      if (bus.bits.empty())
        sink.Report(kRulePortBus, loc, "bus has no bits");
      std::vector<NetId> seen;
      for (std::size_t b = 0; b < bus.bits.size(); ++b) {
        const NetId bit = bus.bits[b];
        const std::string bloc = loc + " bit " + std::to_string(b);
        if (!bit.valid() || bit.index() >= nl.num_nets()) {
          sink.Report(kRulePortBus, bloc, "bit is not a valid net");
          continue;
        }
        const Net& net = nl.net(bit);
        if (is_input ? !net.is_primary_input : !net.is_primary_output)
          sink.Report(kRulePortBus, bloc,
                      std::string("bit is not a primary ") + dir + " port");
        if (std::find(seen.begin(), seen.end(), bit) != seen.end())
          sink.Report(kRulePortBus, bloc, "net repeated within the bus");
        seen.push_back(bit);
      }
    }
  };
  check_bus_set(nl.input_buses(), true);
  check_bus_set(nl.output_buses(), false);

  auto check_port_list = [&](const std::vector<NetId>& ports,
                             bool is_input) {
    std::vector<std::string> names;
    for (const NetId p : ports) {
      if (!p.valid() || p.index() >= nl.num_nets()) {
        sink.Report(kRulePortBus,
                    std::string(is_input ? "input" : "output") + " port list",
                    "entry is not a valid net");
        continue;
      }
      const Net& net = nl.net(p);
      if (is_input ? !net.is_primary_input : !net.is_primary_output)
        sink.Report(kRulePortBus, NetLoc(nl, p),
                    "listed as a port but not flagged as one");
      const std::string& name = nl.PortName(p);
      if (name.empty())
        sink.Report(kRulePortBus, NetLoc(nl, p), "port has no name");
      else if (std::find(names.begin(), names.end(), name) != names.end())
        sink.Report(kRulePortBus, NetLoc(nl, p),
                    "duplicate port name \"" + name + "\"");
      names.push_back(name);
    }
  };
  check_port_list(nl.primary_inputs(), true);
  check_port_list(nl.primary_outputs(), false);
}

// --- FL001 / FL002 / FL003 / FL004 ------------------------------------

constexpr double kGeomEps = 1e-6;

void CheckDomainCoverage(const Netlist& nl,
                         const place::GridPartition& part, Sink& sink) {
  const int ndom = part.num_domains();
  if (part.cfg.nx < 1 || part.cfg.ny < 1) {
    sink.Report(kRuleDomainCoverage, "partition",
                "grid " + part.cfg.ToString() + " is degenerate");
    return;
  }
  if (part.tiles.size() != static_cast<std::size_t>(ndom))
    sink.Report(kRuleDomainCoverage, "partition",
                "tile count " + std::to_string(part.tiles.size()) +
                    " != domain count " + std::to_string(ndom));
  if (part.domain_of.size() != nl.num_instances()) {
    sink.Report(kRuleDomainCoverage, "partition",
                "domain_of covers " + std::to_string(part.domain_of.size()) +
                    " cells but the netlist has " +
                    std::to_string(nl.num_instances()),
                "every placed cell needs exactly one back-bias domain");
    return;
  }
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const int d = part.domain_of[i];
    if (d < 0 || d >= ndom)
      sink.Report(kRuleDomainCoverage, InstLoc(nl, InstId(i)),
                  "assigned to nonexistent domain " + std::to_string(d),
                  "domains are 0.." + std::to_string(ndom - 1));
  }
}

void CheckTileContainment(const Netlist& nl, const tech::CellLibrary& lib,
                          const place::Placement& pl,
                          const place::GridPartition& part, Sink& sink) {
  if (pl.pos.size() != nl.num_instances()) {
    sink.Report(kRuleTileContainment, "placement",
                "position table covers " + std::to_string(pl.pos.size()) +
                    " cells but the netlist has " +
                    std::to_string(nl.num_instances()));
    return;
  }
  // Containment is only meaningful for the post-partition placement;
  // a pre-partition (flat) placement on the original die is detected
  // and reported once instead of spamming per-cell findings.
  if (std::abs(pl.fp.width_um - part.enlarged.width_um) > kGeomEps ||
      std::abs(pl.fp.height_um - part.enlarged.height_um) > kGeomEps) {
    sink.Report(kRuleTileContainment, "placement",
                "placement floorplan does not match the partitioned "
                "(guardband-enlarged) die",
                "lint the placement produced by ApplyPartition");
    return;
  }
  const double rh = part.original.row_height_um;
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const int d = part.domain_of.size() == nl.num_instances()
                      ? part.domain_of[i]
                      : -1;
    if (d < 0 || d >= static_cast<int>(part.tiles.size())) continue;
    const place::GridPartition::Tile& t =
        part.tiles[static_cast<std::size_t>(d)];
    const netlist::Instance& inst = nl.instances()[i];
    if (!KindValid(inst)) continue;
    const double hw = lib.Variant(inst.kind, inst.drive).width_um / 2.0;
    const place::Point& p = pl.pos[i];
    const bool x_ok = p.x >= t.x_lo + hw - kGeomEps &&
                      p.x <= t.x_hi - hw + kGeomEps;
    const bool y_ok = p.y >= t.y_lo + rh / 2 - kGeomEps &&
                      p.y <= t.y_hi - rh / 2 + kGeomEps;
    if (!x_ok || !y_ok) {
      std::ostringstream os;
      os << "cell at (" << p.x << ", " << p.y << ") lies outside domain "
         << d << " tile [" << t.x_lo << ", " << t.x_hi << "] x ["
         << t.y_lo << ", " << t.y_hi << "]";
      sink.Report(kRuleTileContainment, InstLoc(nl, InstId(i)), os.str(),
                  "a cell straddling a domain boundary sits in an "
                  "undefined bias well");
    }
  }
}

void CheckGuardbands(const place::GridPartition& part, Sink& sink) {
  const place::GridConfig cfg = part.cfg;
  const int ndom = cfg.num_domains();
  if (part.tiles.size() != static_cast<std::size_t>(ndom)) return;  // FL001
  const double rh = part.original.row_height_um;
  const double gb_x = part.guardband_um;
  // Horizontal guardbands are snapped up to whole placement rows
  // (see MakePartition).
  const double gb_y = std::ceil(part.guardband_um / rh) * rh;

  auto tile_loc = [](int d) { return "tile " + std::to_string(d); };
  for (int d = 0; d < ndom; ++d) {
    const auto& t = part.tiles[static_cast<std::size_t>(d)];
    if (t.x_hi <= t.x_lo + kGeomEps || t.y_hi <= t.y_lo + kGeomEps)
      sink.Report(kRuleGuardbandOverlap, tile_loc(d), "tile is empty");
    if (t.x_lo < -kGeomEps || t.y_lo < -kGeomEps ||
        t.x_hi > part.enlarged.width_um + kGeomEps ||
        t.y_hi > part.enlarged.height_um + kGeomEps)
      sink.Report(kRuleGuardbandOverlap, tile_loc(d),
                  "tile extends beyond the enlarged die");
  }
  for (int a = 0; a < ndom; ++a) {
    for (int b = a + 1; b < ndom; ++b) {
      const auto& ta = part.tiles[static_cast<std::size_t>(a)];
      const auto& tb = part.tiles[static_cast<std::size_t>(b)];
      const double ox = std::min(ta.x_hi, tb.x_hi) -
                        std::max(ta.x_lo, tb.x_lo);
      const double oy = std::min(ta.y_hi, tb.y_hi) -
                        std::max(ta.y_lo, tb.y_lo);
      if (ox > kGeomEps && oy > kGeomEps) {
        sink.Report(kRuleGuardbandOverlap,
                    tile_loc(a) + " / " + tile_loc(b),
                    "domain tiles overlap: deep-N-wells cannot share "
                    "silicon");
        continue;
      }
      // Adjacent tiles must keep the guardband spacing.
      const int ax = a % cfg.nx, ay = a / cfg.nx;
      const int bx = b % cfg.nx, by = b / cfg.nx;
      if (ay == by && bx == ax + 1 && gb_x > 0.0) {
        const double gap = tb.x_lo - ta.x_hi;
        if (gap < gb_x - kGeomEps)
          sink.Report(kRuleGuardbandOverlap,
                      tile_loc(a) + " / " + tile_loc(b),
                      "horizontal gap " + std::to_string(gap) +
                          " um below the " + std::to_string(gb_x) +
                          " um guardband");
      }
      if (ax == bx && by == ay + 1 && gb_y > 0.0) {
        const double gap = tb.y_lo - ta.y_hi;
        if (gap < gb_y - kGeomEps)
          sink.Report(kRuleGuardbandOverlap,
                      tile_loc(a) + " / " + tile_loc(b),
                      "vertical gap " + std::to_string(gap) +
                          " um below the row-snapped " +
                          std::to_string(gb_y) + " um guardband");
      }
    }
  }
}

void CheckMaskWidth(int num_domains, Sink& sink) {
  if (num_domains > tech::kMaxDomains)
    sink.Report(kRuleMaskWidth, "partition",
                std::to_string(num_domains) +
                    " domains exceed the bias-mask width",
                "tech::DomainMask indexes at most " +
                    std::to_string(tech::kMaxDomains) + " domains");
}

// --- ST001 constraint discipline --------------------------------------

void CheckEndpointConstraints(const Netlist& nl, double clock_ns,
                              Sink& sink) {
  if (clock_ns < 0.0)
    sink.Report(kRuleEndpointConstraint, "clock",
                "negative clock period " + std::to_string(clock_ns) + " ns");
  // Register discipline (netlist.h): timing startpoints are input-
  // register Q pins, endpoints output-register D pins. A primary
  // input feeding combinational logic, or a primary output driven by
  // it, creates a port-to-port path no constraint covers.
  for (const NetId pi : nl.primary_inputs()) {
    if (!pi.valid() || pi.index() >= nl.num_nets()) continue;
    for (const PinRef& s : nl.net(pi).sinks) {
      if (!s.valid() || s.inst.index() >= nl.num_instances()) continue;
      const netlist::Instance& si = nl.inst(s.inst);
      if (!KindValid(si) || si.is_sequential()) continue;
      sink.Report(kRuleEndpointConstraint, NetLoc(nl, pi),
                  "primary input feeds " + InstLoc(nl, s.inst) +
                      " without an input register",
                  "register every operand bit (gen::RegisteredInputBus)");
    }
  }
  for (const NetId po : nl.primary_outputs()) {
    if (!po.valid() || po.index() >= nl.num_nets()) continue;
    const Net& net = nl.net(po);
    const bool registered =
        net.driver.valid() &&
        net.driver.inst.index() < nl.num_instances() &&
        KindValid(nl.inst(net.driver.inst)) &&
        nl.inst(net.driver.inst).is_sequential();
    if (!registered && !net.is_primary_input)
      sink.Report(kRuleEndpointConstraint, NetLoc(nl, po),
                  "primary output is not driven by a register: the "
                  "path ending here has no setup constraint",
                  "register every result bit (gen::RegisteredOutputBus)");
  }
}

}  // namespace

bool LintOptions::RuleEnabled(const char* id) const {
  if (disabled.empty()) return true;
  const RuleInfo* rule = FindRule(id);
  for (const std::string& d : disabled)
    if (d == id || (rule != nullptr && d == rule->name)) return false;
  return true;
}

LintReport LintNetlist(const netlist::Netlist& nl, const LintOptions& opt) {
  LintReport rep;
  rep.subject = nl.name();
  rep.scope = "netlist";
  Sink sink(&rep, opt);
  if (opt.RuleEnabled(kRuleMultiDriver) || opt.RuleEnabled(kRuleUndrivenNet) ||
      opt.RuleEnabled(kRuleDanglingOutput)) {
    // NL001/NL002/NL003 and the net-side half of NL005 share one scan.
    CheckNets(nl, sink);
    rep.rules_run += 3;
  }
  if (opt.RuleEnabled(kRulePinArity)) {
    CheckPinArity(nl, sink);
    ++rep.rules_run;
  }
  if (opt.RuleEnabled(kRuleCombLoop)) {
    CheckCombLoops(nl, sink);
    ++rep.rules_run;
  }
  if (opt.RuleEnabled(kRuleDeadCone)) {
    CheckDeadCones(nl, opt.case_analysis, sink);
    ++rep.rules_run;
  }
  if (opt.max_fanout > 0 && opt.RuleEnabled(kRuleFanoutCeiling)) {
    CheckFanout(nl, opt.max_fanout, sink);
    ++rep.rules_run;
  }
  if (opt.RuleEnabled(kRulePortBus)) {
    CheckPortsAndBuses(nl, sink);
    ++rep.rules_run;
  }
  sink.Finish();
  // Disabled rules may still have findings reported by a shared scan;
  // drop them here so `disabled` is authoritative.
  if (!opt.disabled.empty()) {
    std::erase_if(rep.diagnostics, [&](const Diagnostic& d) {
      return !opt.RuleEnabled(d.rule.c_str());
    });
  }
  MirrorToMetrics(rep);
  return rep;
}

LintReport LintFlow(const netlist::Netlist& nl, const tech::CellLibrary& lib,
                    const FlowArtifacts& art, const LintOptions& opt) {
  LintReport rep;
  rep.subject = nl.name();
  rep.scope = "flow";
  Sink sink(&rep, opt);
  if (art.partition != nullptr) {
    if (opt.RuleEnabled(kRuleDomainCoverage)) {
      CheckDomainCoverage(nl, *art.partition, sink);
      ++rep.rules_run;
    }
    if (opt.RuleEnabled(kRuleGuardbandOverlap)) {
      CheckGuardbands(*art.partition, sink);
      ++rep.rules_run;
    }
    if (opt.RuleEnabled(kRuleMaskWidth)) {
      CheckMaskWidth(art.partition->num_domains(), sink);
      ++rep.rules_run;
    }
    if (art.placement != nullptr && opt.RuleEnabled(kRuleTileContainment)) {
      CheckTileContainment(nl, lib, *art.placement, *art.partition, sink);
      ++rep.rules_run;
    }
  }
  if (art.clock_ns != 0.0 && opt.RuleEnabled(kRuleEndpointConstraint)) {
    CheckEndpointConstraints(nl, art.clock_ns, sink);
    ++rep.rules_run;
  }
  sink.Finish();
  MirrorToMetrics(rep);
  return rep;
}

LintReport LintModeTable(const std::string& subject,
                         const std::vector<ModeEntry>& modes,
                         int num_domains, int data_width,
                         const LintOptions& opt) {
  LintReport rep;
  rep.subject = subject;
  rep.scope = "modes";
  Sink sink(&rep, opt);
  const bool mask_rule = opt.RuleEnabled(kRuleMaskWidth);
  const bool sched_rule = opt.RuleEnabled(kRuleModeSchedule);
  if (mask_rule) ++rep.rules_run;
  if (sched_rule) ++rep.rules_run;

  std::vector<int> widths;
  const ModeEntry* prev = nullptr;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const ModeEntry& e = modes[m];
    const std::string loc = "mode " + std::to_string(e.bitwidth) + " bit";
    if (mask_rule && num_domains < tech::kMaxDomains &&
        (e.fbb_mask >> num_domains) != 0u)
      sink.Report(kRuleMaskWidth, loc,
                  "bias mask references a domain >= the domain count " +
                      std::to_string(num_domains));
    if (sched_rule) {
      if (e.bitwidth < 1 || e.bitwidth > data_width)
        sink.Report(kRuleModeSchedule, loc,
                    "bitwidth outside 1.." + std::to_string(data_width),
                    {}, static_cast<int>(Severity::kError));
      if (std::find(widths.begin(), widths.end(), e.bitwidth) !=
          widths.end())
        sink.Report(kRuleModeSchedule, loc, "duplicate accuracy mode", {},
                    static_cast<int>(Severity::kError));
      widths.push_back(e.bitwidth);
      if (e.vdd < 0.3 || e.vdd > 1.3)
        sink.Report(kRuleModeSchedule, loc,
                    "VDD " + std::to_string(e.vdd) +
                        " V outside the library's sane range");
      if (prev != nullptr && prev->bitwidth < e.bitwidth &&
          prev->power_w > e.power_w * (1.0 + 1e-9))
        sink.Report(kRuleModeSchedule, loc,
                    "higher-accuracy mode consumes less power than the " +
                        std::to_string(prev->bitwidth) +
                        "-bit mode: the schedule is not monotone",
                    "a runtime should fall back to the cheaper, more "
                    "accurate mode");
      prev = &e;
    }
  }
  sink.Finish();
  MirrorToMetrics(rep);
  return rep;
}

void EnforceGate(const LintReport& report, LintGate gate) {
  switch (gate) {
    case LintGate::kOff:
      return;
    case LintGate::kWarn:
      if (!report.diagnostics.empty())
        std::fputs(report.Render().c_str(), stderr);
      return;
    case LintGate::kError:
      if (!report.clean())
        throw CheckError("lint gate failed:\n" + report.Render());
      return;
  }
}

}  // namespace adq::lint
