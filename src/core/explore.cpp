#include "core/explore.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <string>

#include "core/mode_context.h"
#include "obs/obs.h"
#include "sta/sta.h"

namespace adq::core {

using tech::BiasState;

const ModeResult& ExplorationResult::Mode(int bitwidth) const {
  for (const ModeResult& m : modes)
    if (m.bitwidth == bitwidth) return m;
  ADQ_CHECK_MSG(false, "bitwidth " << bitwidth << " was not explored");
  static ModeResult dummy;
  return dummy;
}

std::vector<BiasState> BiasVectorFor(const ImplementedDesign& design,
                                     tech::DomainMask mask) {
  const std::vector<int>& dom = design.partition.domain_of;
  std::vector<BiasState> bias(dom.size());
  for (std::size_t i = 0; i < dom.size(); ++i)
    bias[i] = tech::MaskHas(mask, dom[i]) ? BiasState::kFBB : BiasState::kNoBB;
  return bias;
}

double MaskLeakageW(const power::PowerModel& pmodel,
                    const std::vector<double>& dom_weight, int ndom,
                    double vdd, tech::DomainMask mask) {
  double leak_w = 0.0;
  for (int d = 0; d < ndom; ++d)
    leak_w += pmodel.DomainLeakageW(
        dom_weight[static_cast<std::size_t>(d)], vdd,
        tech::MaskHas(mask, d) ? BiasState::kFBB : BiasState::kNoBB);
  return leak_w;
}

namespace {

void PutU32(std::string* s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    s->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void PutF64(std::string* s, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i)
    s->push_back(static_cast<char>((bits >> (8 * i)) & 0xffu));
}

}  // namespace

store::StoreKey ExploreStoreKey(const ImplementedDesign& design) {
  const netlist::Netlist& nl = design.op.nl;
  std::string canon;
  canon.reserve(nl.num_instances() * 16 + nl.num_nets() * 16 + 64);
  // Everything an STA verdict depends on, in a fixed order. The cell
  // library and corner are deliberately outside the key: a store
  // directory is per (library, corner), like a build cache is per
  // toolchain.
  canon += "adq-explore-key-v1";
  PutU32(&canon, static_cast<std::uint32_t>(nl.num_instances()));
  for (const netlist::Instance& inst : nl.instances()) {
    canon.push_back(static_cast<char>(static_cast<int>(inst.kind)));
    canon.push_back(static_cast<char>(static_cast<int>(inst.drive)));
    for (int i = 0; i < inst.num_inputs(); ++i)
      PutU32(&canon, static_cast<std::uint32_t>(
                         inst.in[static_cast<std::size_t>(i)].index()));
    for (int o = 0; o < inst.num_outputs(); ++o)
      PutU32(&canon, static_cast<std::uint32_t>(
                         inst.out[static_cast<std::size_t>(o)].index()));
  }
  PutU32(&canon, static_cast<std::uint32_t>(nl.num_nets()));
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    PutF64(&canon, design.loads.cap_ff[n]);
    PutF64(&canon, design.loads.wire_delay_ns[n]);
  }
  // Case analysis inputs: the scalable input buses and the data width
  // decide which LSB registers each bitwidth zeroes.
  for (const netlist::Bus& bus : nl.input_buses()) {
    canon += bus.name;
    canon.push_back('\0');
    PutU32(&canon, static_cast<std::uint32_t>(bus.bits.size()));
    for (const netlist::NetId b : bus.bits)
      PutU32(&canon, static_cast<std::uint32_t>(b.index()));
  }
  for (const std::string& b : design.op.spec.scalable_buses) {
    canon += b;
    canon.push_back('\0');
  }
  PutU32(&canon, static_cast<std::uint32_t>(design.op.spec.data_width));
  const std::vector<int>& dom = design.domain_of();
  PutU32(&canon, static_cast<std::uint32_t>(dom.size()));
  for (const int d : dom) PutU32(&canon, static_cast<std::uint32_t>(d));
  PutF64(&canon, design.clock_ns);
  return store::MakeStoreKey(std::move(canon));
}

namespace {

/// Greedy RBB demotion of the mode's best point (see ExploreOptions::
/// enable_rbb_sleep). Serial by design: it mutates one point and its
/// STA count, and its cost is O(ndom) next to the O(2^ndom) sweep.
void RbbSleepPass(const ImplementedDesign& design, ModeContext& ctx,
                  const netlist::CaseAnalysis& ca, ModeResult& mode,
                  ExplorationStats& stats) {
  const netlist::Netlist& nl = design.op.nl;
  const int ndom = design.num_domains();
  ExploredPoint& best = mode.best;
  std::vector<BiasState> bias(nl.num_instances());
  for (int d = 0; d < ndom; ++d) {
    if (tech::MaskHas(best.mask, d)) continue;  // boosted domains stay
    best.rbb_mask |= tech::MaskBit(d);
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
      bias[i] = best.DomainState(design.partition.domain_of[i]);
    ++stats.sta_runs;
    const sta::TimingReport rep =
        ctx.analyzer(0).Analyze(best.vdd, design.clock_ns, bias, &ca);
    if (!rep.feasible()) best.rbb_mask &= ~tech::MaskBit(d);
  }
  double leak_w = 0.0;
  for (int d = 0; d < ndom; ++d)
    leak_w += ctx.pmodel().DomainLeakageW(
        ctx.dom_weight()[static_cast<std::size_t>(d)], best.vdd,
        best.DomainState(d));
  best.power.leakage_w = leak_w;
}

/// Outcome of one (bitwidth, vdd, mask) lattice point as recorded by
/// a worker. The sweep writes these into index-addressed slots; the
/// deterministic merge then folds them serially in lattice order, so
/// stats, best-point ties and all_points ordering cannot depend on
/// thread scheduling.
struct PointRecord {
  enum class Kind : std::uint8_t {
    kPruned,      ///< implied infeasible by a smaller bitwidth
    kMaskPruned,  ///< implied infeasible by a failing supermask
    kInfeasible,  ///< STA ran, violated
    kFeasible,    ///< STA ran, met
  };
  Kind kind = Kind::kPruned;
  bool from_store = false;  ///< verdict served by the exploration store
  double wns_ns = 0.0;
  double leak_w = 0.0;
};

/// A ≤kStaBatchWidth run of same-VDD lattice points handed to one
/// AnalyzeBatch call. Lane l is lattice point (vi, lane_mi[begin+l]).
struct BatchChunk {
  std::size_t vi = 0;
  std::size_t begin = 0;  ///< offset into the level's lane arrays
  std::size_t count = 0;
};

/// The one exploration sweep over the context's modes. A 1-thread
/// pool runs every ParallelFor inline on the caller, so there is no
/// separate serial code path to keep in sync — bit-identity across
/// num_threads holds by construction of the merge, not by duplicated
/// logic.
ExplorationResult ExploreSweep(const ImplementedDesign& design,
                               const ExploreOptions& opt,
                               const std::vector<tech::DomainMask>& masks,
                               ModeContext& ctx) {
  const std::vector<int>& domain_of = design.domain_of();
  const std::vector<int>& bitwidths = ctx.bitwidths();
  // Recorded points need their computed wns_ns, so both prunes
  // (which never compute one) stand down in the reference sweep.
  const bool prune = !opt.keep_all_points;

  // Persistent store: all lookups happen in the serial Phase A and
  // all insertions in a serial post-B pass, so the store never sees
  // concurrent traffic from this sweep and the sta_runs / store_hits
  // split is deterministic.
  store::ExplorationStore* const store = ctx.store();
  const int store_ctx = ctx.store_ctx();

  // Monotone-infeasibility table shared across shards, slot = lattice
  // index vi * |masks| + mi. A worker that proves (vdd, mask)
  // infeasible at bitwidth b publishes the failure with a release
  // store; sweeps of larger bitwidths read it with an acquire load.
  // (Each slot is written at most once per bitwidth and only read by
  // later bitwidths, which a pool barrier separates — the ordering
  // makes the publication self-contained rather than barrier-reliant.)
  // Mask-dominance hits publish the same way: they are proofs of
  // infeasibility, so later bitwidths prune them exactly as if the
  // STA had run.
  const std::size_t nv = opt.vdds.size();
  const std::size_t nm = masks.size();
  std::vector<std::atomic<std::uint8_t>> dead(nv * nm);
  for (auto& d : dead) d.store(0, std::memory_order_relaxed);

  // Mask-dominance schedule: masks grouped by popcount, processed in
  // descending-popcount levels. Any strict supermask has a strictly
  // larger popcount, i.e. lives in an earlier level, so by the time a
  // level is classified every potential dominator has a settled
  // verdict (ParallelFor is a barrier). Equal popcount never
  // dominates (M ⊆ F with |M| == |F| forces M == F), so decisions are
  // independent of chunking, thread count and within-level order.
  std::vector<std::vector<std::size_t>> levels;
  {
    int max_pop = 0;
    for (const tech::DomainMask m : masks)
      max_pop = std::max(max_pop, std::popcount(m));
    levels.resize(static_cast<std::size_t>(max_pop) + 1);
    for (std::size_t mi = 0; mi < nm; ++mi)
      levels[static_cast<std::size_t>(max_pop) -
             static_cast<std::size_t>(std::popcount(masks[mi]))]
          .push_back(mi);
  }

  // Per bitwidth (ascending, so pruning sees every smaller
  // mode), shard the (VDD, mask) lattice in batched chunks, then
  // merge serially.
  ExplorationResult result;
  std::vector<PointRecord> rec(nv * nm);
  // Per-VDD antichain of infeasible masks from completed levels: a
  // mask M is dominated iff M ⊆ F for some listed F. (Antichain
  // because a listed mask's supersets were either feasible or already
  // listed before any submask could reach STA.)
  std::vector<std::vector<tech::DomainMask>> row_infeasible(nv);
  std::vector<std::size_t> lane_mi;          // level's pending points
  std::vector<tech::DomainMask> lane_masks;  // aligned with lane_mi
  std::vector<BatchChunk> chunks;
  for (std::size_t bi = 0; bi < bitwidths.size(); ++bi) {
    const int bw = bitwidths[bi];
    const netlist::CaseAnalysis& bca = ctx.case_analysis(bi);

    ADQ_TRACE_SCOPE2("explore.bitwidth", std::to_string(bw));
    obs::ProgressReporter prog("explore bw=" + std::to_string(bw),
                               static_cast<std::int64_t>(nv * nm));
    std::fill(rec.begin(), rec.end(), PointRecord{});
    for (auto& row : row_infeasible) row.clear();

    for (const std::vector<std::size_t>& level : levels) {
      // Phase A (serial): classify the level. Points condemned by a
      // smaller bitwidth keep kPruned; points dominated by an earlier
      // level's infeasible supermask become kMaskPruned; the rest
      // queue for batched STA, grouped by VDD row.
      lane_mi.clear();
      lane_masks.clear();
      chunks.clear();
      for (std::size_t vi = 0; vi < nv; ++vi) {
        const std::size_t row_begin = lane_mi.size();
        for (const std::size_t mi : level) {
          const std::size_t slot = vi * nm + mi;
          if (prune && dead[slot].load(std::memory_order_acquire)) {
            prog.Tick();
            continue;  // record stays kPruned
          }
          if (prune) {
            const tech::DomainMask mask = masks[mi];
            bool dominated = false;
            for (const tech::DomainMask f : row_infeasible[vi])
              if ((mask & ~f) == 0u) {
                dominated = true;
                break;
              }
            if (dominated) {
              rec[slot].kind = PointRecord::Kind::kMaskPruned;
              dead[slot].store(1, std::memory_order_release);
              prog.Tick();
              continue;
            }
          }
          // Store warm-start: a persisted verdict replaces the STA
          // run. The lookup sits *after* both prunes, so the pruning
          // decisions (and their stats) are identical with or without
          // a store; an infeasible hit publishes to the dead table and
          // (via Phase C, which keys on kInfeasible) to the dominance
          // antichain exactly like a fresh STA failure would.
          if (store != nullptr) {
            bool feas = false;
            double wns = 0.0;
            if (store->Lookup(store_ctx, bw, opt.vdds[vi], masks[mi],
                              &feas, &wns)) {
              PointRecord& r = rec[slot];
              r.from_store = true;
              r.wns_ns = wns;
              if (feas) {
                r.kind = PointRecord::Kind::kFeasible;
                r.leak_w = ctx.LeakageW(vi, masks[mi]);
              } else {
                r.kind = PointRecord::Kind::kInfeasible;
                dead[slot].store(1, std::memory_order_release);
              }
              prog.Tick();
              continue;
            }
          }
          lane_mi.push_back(mi);
          lane_masks.push_back(masks[mi]);
        }
        for (std::size_t c = row_begin; c < lane_mi.size();
             c += kStaBatchWidth)
          chunks.push_back(
              {vi, c, std::min(kStaBatchWidth, lane_mi.size() - c)});
      }

      // Phase B (parallel): one AnalyzeBatch per chunk; lanes write
      // their own slots. The ParallelFor barrier makes every verdict
      // of this level visible before the next level classifies.
      ctx.pool().ParallelFor(
          static_cast<std::int64_t>(chunks.size()), 1,
          [&](std::int64_t idx, int w) {
            ctx.NameLane(w);
            const BatchChunk& c = chunks[static_cast<std::size_t>(idx)];
            const double vdd = opt.vdds[c.vi];
            obs::TraceSpan batch_span("sta.batch");
            const std::span<const tech::DomainMask> chunk_masks(
                lane_masks.data() + c.begin, c.count);
            const std::vector<sta::TimingReport> reps =
                ctx.analyzer(w).AnalyzeBatch(vdd, design.clock_ns,
                                             chunk_masks, domain_of, &bca);
            for (std::size_t l = 0; l < c.count; ++l) {
              const std::size_t mi = lane_mi[c.begin + l];
              const std::size_t slot = c.vi * nm + mi;
              PointRecord& r = rec[slot];
              r.wns_ns = reps[l].wns_ns;
              if (!reps[l].feasible()) {
                r.kind = PointRecord::Kind::kInfeasible;
                dead[slot].store(1, std::memory_order_release);
              } else {
                r.kind = PointRecord::Kind::kFeasible;
                r.leak_w = ctx.LeakageW(c.vi, masks[mi]);
              }
              prog.Tick();
            }
          });

      // Serial store write-back: persist this level's fresh STA
      // verdicts in deterministic chunk order (the chunk layout is a
      // pure function of the surviving set).
      if (store != nullptr)
        for (const BatchChunk& c : chunks)
          for (std::size_t l = 0; l < c.count; ++l) {
            const std::size_t mi = lane_mi[c.begin + l];
            const PointRecord& r = rec[c.vi * nm + mi];
            store->Insert(store_ctx, bw, opt.vdds[c.vi], masks[mi],
                          r.kind == PointRecord::Kind::kFeasible,
                          r.wns_ns);
          }

      // Phase C (serial): extend the per-VDD antichains with this
      // level's fresh failures, in deterministic (vi, mi) order.
      if (prune)
        for (std::size_t vi = 0; vi < nv; ++vi)
          for (const std::size_t mi : level)
            if (rec[vi * nm + mi].kind == PointRecord::Kind::kInfeasible)
              row_infeasible[vi].push_back(masks[mi]);
    }

    // Deterministic merge: fold the records in (vi, mi) lattice
    // order, regardless of the popcount-level order they were
    // computed in. Every number below is either copied from a record
    // or recomputed from the same expressions for every thread count,
    // so the result is bit-identical across all of them.
    ModeResult mode;
    mode.bitwidth = bw;
    mode.switched_energy_fj = ctx.switched_energy_fj(bi);
    for (std::size_t vi = 0; vi < nv; ++vi) {
      const double vdd = opt.vdds[vi];
      const double dyn_w = power::PowerModel::DynamicW(
          ctx.switched_energy_fj(bi), vdd, design.fclk_ghz());
      for (std::size_t mi = 0; mi < nm; ++mi) {
        const PointRecord& r = rec[vi * nm + mi];
        ++result.stats.points_considered;
        if (r.kind == PointRecord::Kind::kPruned) {
          ++result.stats.filtered;
          ++result.stats.pruned;
          continue;
        }
        if (r.kind == PointRecord::Kind::kMaskPruned) {
          ++result.stats.filtered;
          ++result.stats.mask_pruned;
          continue;
        }
        if (r.from_store)
          ++result.stats.store_hits;
        else
          ++result.stats.sta_runs;
        if (r.kind == PointRecord::Kind::kInfeasible) {
          ++result.stats.filtered;
          if (opt.keep_all_points) {
            ExploredPoint p;
            p.bitwidth = bw;
            p.vdd = vdd;
            p.mask = masks[mi];
            p.feasible = false;
            p.wns_ns = r.wns_ns;
            result.all_points.push_back(p);
          }
          continue;
        }
        ++result.stats.feasible;
        ExploredPoint p;
        p.bitwidth = bw;
        p.vdd = vdd;
        p.mask = masks[mi];
        p.feasible = true;
        p.wns_ns = r.wns_ns;
        p.power.dynamic_w = dyn_w;
        p.power.leakage_w = r.leak_w;
        if (!mode.has_solution ||
            p.total_power_w() < mode.best.total_power_w()) {
          mode.has_solution = true;
          mode.best = p;
        }
        if (opt.keep_all_points) result.all_points.push_back(p);
      }
    }

    if (opt.enable_rbb_sleep && mode.has_solution)
      RbbSleepPass(design, ctx, bca, mode, result.stats);

    result.modes.push_back(mode);
  }
  return result;
}

/// Folds one finished exploration into the metrics registry. All the
/// numbers come from the (already deterministic) ExplorationStats, so
/// the snapshot is bit-identical across thread counts — the contract
/// tests/test_explore_golden pins.
void RecordExploreMetrics(const ExplorationResult& r, double seconds) {
  if (!obs::MetricsEnabled()) return;
  obs::GetCounter("explore.runs").Add(1);
  obs::GetCounter("explore.points_considered")
      .Add(r.stats.points_considered);
  obs::GetCounter("explore.sta_runs").Add(r.stats.sta_runs);
  obs::GetCounter("explore.store_hits").Add(r.stats.store_hits);
  obs::GetCounter("explore.filtered").Add(r.stats.filtered);
  obs::GetCounter("explore.pruned_hits").Add(r.stats.pruned);
  obs::GetCounter("explore.mask_pruned").Add(r.stats.mask_pruned);
  obs::GetCounter("explore.feasible").Add(r.stats.feasible);
  obs::GetGauge("explore.wall_s").Add(seconds);
  if (seconds > 0.0)
    obs::GetGauge("explore.points_per_sec")
        .Set(static_cast<double>(r.stats.points_considered) / seconds);
  // Margin profile of the chosen operating points: how close the
  // selected optima sit to the STA-filter edge (cf. the variation
  // study in bench_ablations).
  obs::HistogramMetric& wns =
      obs::GetHistogram("explore.best_wns_ns", -0.1, 0.4, 50);
  for (const ModeResult& m : r.modes)
    if (m.has_solution) wns.Observe(m.best.wns_ns);
}

}  // namespace

ExplorationResult ExploreDesignSpace(const ImplementedDesign& design,
                                     const tech::CellLibrary& lib,
                                     const ExploreOptions& opt) {
  ADQ_TRACE_SCOPE("explore");
  const auto obs_t0 = std::chrono::steady_clock::now();
  const int ndom = design.num_domains();
  ADQ_CHECK_MSG(ndom >= 1 && ndom <= tech::kMaxDomains,
                "domain count " << ndom << " outside [1, "
                                << tech::kMaxDomains << "]");
  // A full-lattice request beyond the enumeration ceiling is a
  // recoverable request error, not a contract violation: callers
  // reroute to core::FrontierExplore (examples/domain_explorer does).
  if (opt.masks.empty() && ndom > kMaxExhaustiveDomains)
    throw ExploreError(
        "2^" + std::to_string(ndom) +
        " masks is beyond exhaustive enumeration (kMaxExhaustiveDomains"
        " = " + std::to_string(kMaxExhaustiveDomains) +
        "); restrict ExploreOptions::masks or use core::FrontierExplore");

  std::vector<tech::DomainMask> masks = opt.masks;
  if (masks.empty()) {
    const tech::DomainMask full = tech::FullMask(ndom);
    masks.reserve(static_cast<std::size_t>(full) + 1);
    for (tech::DomainMask m = 0; m <= full; ++m) masks.push_back(m);
  }

  // Lint gate, mode list, power model, store context and mode
  // constants: the setup shared with the frontier engine.
  ModeContext ctx(ModeContext::Engine::kExhaustive, design, lib, opt);
  ExplorationResult result = ExploreSweep(design, opt, masks, ctx);
  RecordExploreMetrics(
      result, std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - obs_t0)
                  .count());
  return result;
}

}  // namespace adq::core
