#include "core/frontier.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/accuracy.h"
#include "core/mode_context.h"
#include "obs/obs.h"
#include "sim/activity.h"
#include "sta/sta.h"
#include "util/thread_pool.h"

namespace adq::core {

const FrontierModeResult& FrontierResult::Mode(int bitwidth) const {
  for (const FrontierModeResult& m : modes)
    if (m.bitwidth == bitwidth) return m;
  ADQ_CHECK_MSG(false, "bitwidth " << bitwidth << " was not explored");
  static FrontierModeResult dummy;
  return dummy;
}

ExplorationResult FrontierResult::ToExplorationResult() const {
  ExplorationResult out;
  out.modes.assign(modes.begin(), modes.end());  // slices to ModeResult
  out.stats.sta_runs = stats.sta_runs;
  out.stats.store_hits = stats.store_hits;
  return out;
}

namespace {

/// A lattice point (VDD index, FBB mask) and its hash. The search only
/// ever looks points up; no output depends on a hash container's
/// iteration order.
using PointKey = std::pair<std::size_t, tech::DomainMask>;
struct PointKeyHash {
  std::size_t operator()(const PointKey& k) const {
    const std::uint64_t h = k.second * 0x9e3779b97f4a7c15ULL ^
                            k.first * 0xc2b2ae3d27d4eb4fULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// A point's latest verdict and the index of the bitwidth it was
/// resolved at.
struct VerdictEntry {
  std::size_t bi = 0;
  PointVerdict v;
};

/// A search node: the subtree of masks m with mask ⊆ m ⊆ mask |
/// tail[depth] at VDD index vi. Domains perm[0..depth-1] are decided
/// (their FBB bits are mask's set bits); the rest are free.
struct Node {
  std::size_t vi = 0;
  int depth = 0;
  tech::DomainMask mask = 0;
  double lb = 0.0;  ///< dyn(vi) + leak(mask): sound subtree bound
};

/// Min-heap priority (lb, vi, mask, depth): a strict total order —
/// the same (vi, mask) can only repeat at a different depth — so the
/// pop sequence is deterministic for deterministic contents.
struct NodeWorse {
  bool operator()(const Node& a, const Node& b) const {
    if (a.lb != b.lb) return a.lb > b.lb;
    if (a.vi != b.vi) return a.vi > b.vi;
    if (a.mask != b.mask) return a.mask > b.mask;
    return a.depth > b.depth;
  }
};

/// Incumbent: the lex-min (power, vi, mask) feasible point seen —
/// exactly the point the exhaustive merge's ascending (vi, mi) fold
/// with a strict `<` power test selects.
struct Incumbent {
  bool valid = false;
  std::size_t vi = 0;
  tech::DomainMask mask = 0;
  double wns_ns = 0.0;
  double dyn_w = 0.0;
  double leak_w = 0.0;

  double power() const { return dyn_w + leak_w; }
};

bool BetterThanIncumbent(std::size_t vi, tech::DomainMask mask,
                         double power, const Incumbent& inc) {
  if (!inc.valid) return true;
  const double ip = inc.power();
  if (power != ip) return power < ip;
  if (vi != inc.vi) return vi < inc.vi;
  return mask < inc.mask;
}

/// A node may be discarded iff nothing in its subtree can replace the
/// incumbent: every subtree point has power >= lb and, among decided
/// lattices, (vi, m >= mask); at equal power the exhaustive
/// tie-break keeps the lex-smaller point, so equality only survives
/// when the subtree's lex floor still beats the incumbent.
bool Prunable(const Node& n, const Incumbent& inc) {
  if (!inc.valid) return false;
  const double ip = inc.power();
  if (n.lb != ip) return n.lb > ip;
  if (n.vi != inc.vi) return n.vi >= inc.vi;
  return n.mask >= inc.mask;
}

void RecordFrontierMetrics(const FrontierResult& r, double seconds) {
  if (!obs::MetricsEnabled()) return;
  obs::GetCounter("frontier.runs").Add(1);
  obs::GetCounter("frontier.nodes_expanded").Add(r.stats.nodes_expanded);
  obs::GetCounter("frontier.nodes_pruned_bound")
      .Add(r.stats.nodes_pruned_bound);
  obs::GetCounter("frontier.nodes_pruned_infeasible")
      .Add(r.stats.nodes_pruned_infeasible);
  obs::GetCounter("frontier.nodes_closed").Add(r.stats.nodes_closed);
  obs::GetCounter("frontier.sta_runs").Add(r.stats.sta_runs);
  obs::GetCounter("frontier.store_hits").Add(r.stats.store_hits);
  obs::GetCounter("frontier.transfer_hits").Add(r.stats.transfer_hits);
  obs::GetCounter("frontier.waves").Add(r.stats.waves);
  obs::GetCounter("frontier.certified_modes").Add(r.stats.certified_modes);
  obs::GetGauge("frontier.wall_s").Add(seconds);
  if (seconds > 0.0)
    obs::GetGauge("frontier.nodes_per_sec")
        .Set(static_cast<double>(r.stats.nodes_expanded) / seconds);
}

}  // namespace

std::vector<double> AccuracyCriticality(
    const gen::Operator& op, const tech::CellLibrary& lib,
    const place::NetLoads& loads, double clock_ns,
    const std::vector<int>& bitwidths, double slack_window_ns,
    int num_threads) {
  ADQ_CHECK(!bitwidths.empty());
  const netlist::Netlist& nl = op.nl;
  const std::vector<tech::BiasState> fbb(nl.num_instances(),
                                         tech::BiasState::kFBB);

  std::vector<double> score(nl.num_instances(), 1.25);
  std::vector<int> sorted = bitwidths;
  std::sort(sorted.begin(), sorted.end());

  // The probes (one detailed STA per bitwidth) are independent; only
  // the score claiming below is order-sensitive, so compute them all
  // first — sharded across workers when asked — then fold serially in
  // ascending-bitwidth order.
  // The probes' case analyses come from the shared per-structure
  // cache (one batched build, or none when an explorer of this
  // netlist already warmed it).
  std::vector<int> zeroed(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i)
    zeroed[i] = ZeroedLsbs(op, sorted[i]);
  const std::vector<std::shared_ptr<const netlist::CaseAnalysis>> cas =
      sim::ModeCaseAnalyses(op, zeroed);
  std::vector<sta::TimingAnalyzer::DetailedTiming> dts(sorted.size());
  util::ThreadPool pool(num_threads);
  std::vector<std::unique_ptr<sta::TimingAnalyzer>> analyzer(
      static_cast<std::size_t>(pool.num_threads()));
  pool.ParallelFor(
      static_cast<std::int64_t>(sorted.size()), 1,
      [&](std::int64_t i, int w) {
        auto& a = analyzer[static_cast<std::size_t>(w)];
        if (!a) a = std::make_unique<sta::TimingAnalyzer>(nl, lib, loads);
        a->AnalyzeDetailed(tech::CellLibrary::kVddNominal, clock_ns, fbb,
                           cas[static_cast<std::size_t>(i)].get(),
                           &dts[static_cast<std::size_t>(i)]);
      });

  for (std::size_t k = 0; k < sorted.size(); ++k) {
    const int bw = sorted[k];
    const auto& dt = dts[k];
    const double frac =
        static_cast<double>(bw) / op.spec.data_width;
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
      if (score[i] <= 1.0) continue;  // already claimed by a smaller bw
      const netlist::Instance& inst = nl.instances()[i];
      for (int o = 0; o < inst.num_outputs(); ++o) {
        const netlist::NetId out = inst.out[o];
        if (!dt.ActiveNet(out)) continue;
        if (dt.SlackOf(out) <= slack_window_ns) {
          score[i] = frac;
          break;
        }
      }
    }
  }
  return score;
}

FrontierResult FrontierExplore(const ImplementedDesign& design,
                               const tech::CellLibrary& lib,
                               const FrontierOptions& opt) {
  ADQ_TRACE_SCOPE("frontier");
  const auto obs_t0 = std::chrono::steady_clock::now();
  const int ndom = design.num_domains();
  const std::vector<int>& domain_of = design.domain_of();
  ADQ_CHECK_MSG(ndom >= 1 && ndom <= tech::kMaxDomains,
                "domain count " << ndom << " outside [1, "
                                << tech::kMaxDomains << "]");

  // Lint gate, mode list, power model, store context, mode constants
  // and the verdict step: shared with the exhaustive engine.
  ModeContext ctx(ModeContext::Engine::kFrontier, design, lib, opt);
  const std::vector<int>& bitwidths = ctx.bitwidths();

  // Branch order: most accuracy-critical domains first (they decide
  // feasibility highest in the tree). The criticality probe is
  // thread-count independent, so the permutation — and with it the
  // whole search — is too.
  std::vector<int> perm(static_cast<std::size_t>(ndom));
  std::iota(perm.begin(), perm.end(), 0);
  if (opt.criticality_slack_window_ns > 0.0) {
    ADQ_TRACE_SCOPE("frontier.criticality");
    const std::vector<double> crit = AccuracyCriticality(
        design.op, lib, design.loads, design.clock_ns, bitwidths,
        opt.criticality_slack_window_ns, ctx.num_threads());
    std::vector<double> dom_crit(
        static_cast<std::size_t>(ndom),
        std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < crit.size(); ++i) {
      double& slot = dom_crit[static_cast<std::size_t>(domain_of[i])];
      slot = std::min(slot, crit[i]);
    }
    std::stable_sort(perm.begin(), perm.end(), [&](int a, int b) {
      const double da = dom_crit[static_cast<std::size_t>(a)];
      const double db = dom_crit[static_cast<std::size_t>(b)];
      if (da != db) return da < db;
      return a < b;
    });
  }
  // tail[k] = undecided domains at depth k (OR of perm[k..]).
  std::vector<tech::DomainMask> tail(static_cast<std::size_t>(ndom) + 1, 0);
  for (int k = ndom - 1; k >= 0; --k)
    tail[static_cast<std::size_t>(k)] =
        tail[static_cast<std::size_t>(k) + 1] |
        tech::MaskBit(perm[static_cast<std::size_t>(k)]);

  const std::size_t nv = opt.vdds.size();
  const std::size_t wave_width =
      static_cast<std::size_t>(std::max(1, opt.wave_width));

  FrontierResult result;
  // Every verdict of the search, keyed by point. Infeasibility is
  // monotone in bitwidth (more active bits only add paths), so a point
  // whose latest verdict, from a smaller bitwidth, is infeasible
  // carries that proof forward and never re-runs. Nodes of an
  // unordered_map never move, so the verdict pointers held in the
  // wave vectors below stay valid.
  std::unordered_map<PointKey, VerdictEntry, PointKeyHash> verdicts;

  // Per-wave scratch, reused across waves.
  std::vector<Node> wave;
  // A wave node's (maximal-mask, minimal-mask) verdict slots.
  std::vector<std::pair<const PointVerdict*, const PointVerdict*>>
      wave_verdicts;
  // This wave's newly claimed points, in first-demand order.
  std::vector<std::pair<PointKey, const PointVerdict*>> resolved;
  // The subset left to Resolve, and the slot each verdict fills.
  std::vector<LatticePoint> need;
  std::vector<PointVerdict*> need_slots;

  for (std::size_t bi = 0; bi < bitwidths.size(); ++bi) {
    const int bw = bitwidths[bi];
    ADQ_TRACE_SCOPE2("frontier.bitwidth", std::to_string(bw));

    std::vector<double> dyn(nv);
    for (std::size_t vi = 0; vi < nv; ++vi)
      dyn[vi] = power::PowerModel::DynamicW(ctx.switched_energy_fj(bi),
                                            opt.vdds[vi], design.fclk_ghz());

    Incumbent inc;
    FrontierModeResult mode;
    mode.bitwidth = bw;
    mode.switched_energy_fj = ctx.switched_energy_fj(bi);

    std::priority_queue<Node, std::vector<Node>, NodeWorse> open;
    for (std::size_t vi = 0; vi < nv; ++vi)
      open.push(Node{vi, 0, 0, dyn[vi] + ctx.LeakageW(vi, 0)});

    bool budget_hit = false;
    while (!open.empty()) {
      if (opt.node_budget > 0 &&
          mode.nodes_expanded >= opt.node_budget) {
        budget_hit = true;
        break;
      }

      // Wave selection (serial, deterministic): best nodes by
      // (lb, vi, mask, depth), bound-pruning stale entries on pop.
      wave.clear();
      std::size_t cap = wave_width;
      if (opt.node_budget > 0)
        cap = std::min(cap, static_cast<std::size_t>(
                                opt.node_budget - mode.nodes_expanded));
      while (!open.empty() && wave.size() < cap) {
        const Node n = open.top();
        open.pop();
        if (Prunable(n, inc)) {
          ++result.stats.nodes_pruned_bound;
          continue;
        }
        wave.push_back(n);
      }
      if (wave.empty()) continue;
      ++result.stats.waves;

      // Verdict demands: each node needs its minimal and maximal
      // mask. The first demand of a point at this bitwidth claims its
      // entry; bitwidth-carried proofs fill it serially here, the rest
      // queue for Resolve in demand order.
      resolved.clear();
      need.clear();
      need_slots.clear();
      wave_verdicts.clear();
      auto demand = [&](std::size_t vi, tech::DomainMask m) {
        const PointKey key{vi, m};
        const auto [it, fresh] =
            verdicts.try_emplace(key, VerdictEntry{bi, {}});
        VerdictEntry& e = it->second;
        PointVerdict* const v = &e.v;
        if (!fresh) {
          if (e.bi == bi) return v;  // known at this bitwidth
          const bool carried = !v->feasible;
          e = VerdictEntry{bi, {}};
          if (carried) {
            resolved.emplace_back(key, v);
            ++result.stats.transfer_hits;
            return v;  // default PointVerdict: infeasible
          }
        }
        resolved.emplace_back(key, v);
        need.push_back({vi, m});
        need_slots.push_back(v);
        return v;
      };
      for (const Node& n : wave) {
        const PointVerdict* vmax =
            demand(n.vi, n.mask | tail[static_cast<std::size_t>(n.depth)]);
        wave_verdicts.emplace_back(vmax, demand(n.vi, n.mask));
      }

      const std::vector<PointVerdict> got = ctx.Resolve(bi, need);
      for (std::size_t i = 0; i < got.size(); ++i) {
        *need_slots[i] = got[i];
        if (got[i].from_store)
          ++result.stats.store_hits;
        else
          ++result.stats.sta_runs;
      }

      // Candidate fold: every feasible verdict resolved this wave is
      // a real lattice point; fold them in demand order — which is
      // independent of where each verdict came from (STA, store or
      // carry), so warm and cold runs walk identical incumbents.
      for (const auto& [key, v] : resolved) {
        if (!v->feasible) continue;
        const double leak = ctx.LeakageW(key.first, key.second);
        if (BetterThanIncumbent(key.first, key.second,
                                dyn[key.first] + leak, inc)) {
          inc.valid = true;
          inc.vi = key.first;
          inc.mask = key.second;
          inc.wns_ns = v->wns_ns;
          inc.dyn_w = dyn[key.first];
          inc.leak_w = leak;
        }
      }

      // Expansion fold (serial, wave order).
      for (std::size_t wi = 0; wi < wave.size(); ++wi) {
        const Node& n = wave[wi];
        if (Prunable(n, inc)) {
          ++result.stats.nodes_pruned_bound;
          continue;
        }
        if (!wave_verdicts[wi].first->feasible) {
          // Antitone feasibility: the subtree's fastest point fails,
          // so every point in it does.
          ++result.stats.nodes_pruned_infeasible;
          continue;
        }
        if (wave_verdicts[wi].second->feasible) {
          // Monotone leakage: the subtree optimum is exactly the
          // minimal mask — already folded as a candidate above.
          ++result.stats.nodes_closed;
          continue;
        }
        ++mode.nodes_expanded;
        ++result.stats.nodes_expanded;
        const int d = perm[static_cast<std::size_t>(n.depth)];
        const tech::DomainMask m1 = n.mask | tech::MaskBit(d);
        const Node child1{n.vi, n.depth + 1, m1,
                          dyn[n.vi] + ctx.LeakageW(n.vi, m1)};
        if (Prunable(child1, inc))
          ++result.stats.nodes_pruned_bound;
        else
          open.push(child1);
        const Node child0{n.vi, n.depth + 1, n.mask, n.lb};
        if (Prunable(child0, inc))
          ++result.stats.nodes_pruned_bound;
        else
          open.push(child0);
      }
    }

    mode.certified = !budget_hit;
    if (inc.valid) {
      mode.has_solution = true;
      mode.best.bitwidth = bw;
      mode.best.vdd = opt.vdds[inc.vi];
      mode.best.mask = inc.mask;
      mode.best.feasible = true;
      mode.best.wns_ns = inc.wns_ns;
      mode.best.power.dynamic_w = inc.dyn_w;
      mode.best.power.leakage_w = inc.leak_w;
    }
    if (budget_hit) {
      // open is a min-heap on lb: its top is the smallest bound still
      // unresolved, i.e. the proved floor of the true optimum.
      const double floor_lb =
          open.empty() ? -std::numeric_limits<double>::infinity()
                       : open.top().lb;
      mode.gap_w = inc.valid
                       ? std::max(0.0, inc.power() - floor_lb)
                       : std::numeric_limits<double>::infinity();
    } else {
      ++result.stats.certified_modes;
    }
    result.modes.push_back(mode);
  }

  RecordFrontierMetrics(
      result, std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - obs_t0)
                  .count());
  return result;
}

}  // namespace adq::core
