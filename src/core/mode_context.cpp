#include "core/mode_context.h"

#include <algorithm>
#include <string>

#include "core/accuracy.h"
#include "obs/obs.h"

namespace adq::core {

namespace {

struct EngineNames {
  const char* mode_constants;  ///< trace span of the mode constants
  const char* lane;            ///< worker lane prefix
};

const EngineNames& NamesOf(ModeContext::Engine e) {
  static constexpr EngineNames kNames[] = {
      {"explore.mode_constants", "explore worker "},
      {"frontier.mode_constants", "frontier worker "},
  };
  return kNames[static_cast<int>(e)];
}

/// Checks the supply list and runs the signoff lint gate, so a bad
/// request or a corrupt netlist fails here, loudly, before any model
/// is built over it.
const ImplementedDesign& Vetted(const ImplementedDesign& design,
                                const tech::CellLibrary& lib,
                                const SweepOptions& opt) {
  ADQ_CHECK_MSG(!opt.vdds.empty(), "no supply voltage to explore");
  SignoffLint(design, lib, opt.lint);
  return design;
}

}  // namespace

ModeContext::ModeContext(Engine engine, const ImplementedDesign& design,
                         const tech::CellLibrary& lib, const SweepOptions& opt)
    : engine_(engine),
      design_(Vetted(design, lib, opt)),
      lib_(lib),
      ndom_(design.num_domains()),
      vdds_(opt.vdds),
      bitwidths_(opt.bitwidths),
      pmodel_(design.op.nl, lib, design.loads),
      dom_weight_(
          pmodel_.LeakWeightByDomain(design.partition.domain_of, ndom_)),
      pool_(opt.num_threads),
      store_(opt.store),
      store_ctx_(store_ != nullptr ? store_->Context(ExploreStoreKey(design))
                                   : -1),
      analyzers_(static_cast<std::size_t>(pool_.num_threads())) {
  const EngineNames& names = NamesOf(engine);
  const auto nd = static_cast<std::size_t>(ndom_);
  leak_.resize(vdds_.size() * nd * 2);
  for (std::size_t vi = 0; vi < vdds_.size(); ++vi)
    for (std::size_t d = 0; d < nd; ++d)
      for (std::size_t fbb = 0; fbb < 2; ++fbb)
        leak_[(vi * nd + d) * 2 + fbb] = pmodel_.DomainLeakageW(
            dom_weight_[d], vdds_[vi],
            fbb != 0 ? tech::BiasState::kFBB : tech::BiasState::kNoBB);
  if (bitwidths_.empty())
    for (int b = 1; b <= design.op.spec.data_width; ++b)
      bitwidths_.push_back(b);
  std::sort(bitwidths_.begin(), bitwidths_.end());

  // Mode constants: all modes' activity profiles come from one
  // bit-parallel simulation (one lane per accuracy mode), which also
  // warms the process-wide activity cache. The case analyses depend
  // only on the netlist structure, so the same cache shares them with
  // every other exploration of this netlist (DVAS runs, the flat
  // view). Switched energy depends on this design's loads; it runs on
  // the pool.
  ADQ_TRACE_SCOPE(names.mode_constants);
  const std::size_t nmodes = bitwidths_.size();
  std::vector<int> mode_lsbs(nmodes);
  for (std::size_t i = 0; i < nmodes; ++i)
    mode_lsbs[i] = ZeroedLsbs(design.op, bitwidths_[i]);
  const std::vector<sim::ActivityProfile> acts = sim::ExtractActivityBatch(
      design.op, mode_lsbs, opt.activity_cycles, opt.seed,
      kActivityStimulus);
  ca_ = sim::ModeCaseAnalyses(design.op, mode_lsbs);
  energy_fj_.assign(nmodes, 0.0);
  pool_.ParallelFor(
      static_cast<std::int64_t>(nmodes), 1, [&](std::int64_t i, int w) {
        NameLane(w);
        const auto m = static_cast<std::size_t>(i);
        energy_fj_[m] = pmodel_.SwitchedEnergyPerCycleFj(acts[m]);
      });
}

std::vector<PointVerdict> ModeContext::Resolve(
    std::size_t bi, std::span<const LatticePoint> points) {
  const int bw = bitwidths_[bi];
  std::vector<PointVerdict> out(points.size());
  // Store warm-start, serial in request order.
  std::vector<std::size_t> lanes;
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointVerdict& v = out[i];
    if (store_ != nullptr &&
        store_->Lookup(store_ctx_, bw, vdds_[points[i].vi], points[i].mask,
                       &v.feasible, &v.wns_ns))
      v.from_store = true;
    else
      lanes.push_back(i);
  }

  // Batched STA of the fresh points as VDD-major lane arrays; each
  // lane fills its own verdict slot.
  std::stable_sort(lanes.begin(), lanes.end(),
                   [&](std::size_t a, std::size_t b) {
                     return points[a].vi < points[b].vi;
                   });
  std::vector<double> lane_vdds(lanes.size());
  std::vector<tech::DomainMask> lane_masks(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    lane_vdds[l] = vdds_[points[lanes[l]].vi];
    lane_masks[l] = points[lanes[l]].mask;
  }
  const std::size_t nbatches =
      (lanes.size() + kStaBatchWidth - 1) / kStaBatchWidth;
  pool_.ParallelFor(
      static_cast<std::int64_t>(nbatches), 1, [&](std::int64_t b, int w) {
        NameLane(w);
        const auto begin = static_cast<std::size_t>(b) * kStaBatchWidth;
        const std::size_t count =
            std::min(kStaBatchWidth, lanes.size() - begin);
        obs::TraceSpan batch_span("sta.batch");
        const std::vector<sta::TimingReport> reps = analyzer(w).AnalyzeBatch(
            std::span(lane_vdds).subspan(begin, count), design_.clock_ns,
            std::span(lane_masks).subspan(begin, count), design_.domain_of(),
            ca_[bi].get());
        for (std::size_t l = 0; l < count; ++l)
          out[lanes[begin + l]] = {reps[l].feasible(), false, reps[l].wns_ns};
      });

  // Store write-back of the fresh verdicts, serial in request order.
  if (store_ != nullptr)
    for (std::size_t i = 0; i < points.size(); ++i)
      if (!out[i].from_store)
        store_->Insert(store_ctx_, bw, vdds_[points[i].vi], points[i].mask,
                       out[i].feasible, out[i].wns_ns);
  return out;
}

sta::TimingAnalyzer& ModeContext::analyzer(int w) {
  std::unique_ptr<sta::TimingAnalyzer>& a =
      analyzers_[static_cast<std::size_t>(w)];
  if (!a)
    a = std::make_unique<sta::TimingAnalyzer>(design_.op.nl, lib_,
                                              design_.loads);
  return *a;
}

void ModeContext::NameLane(int w) const {
  if (!obs::TraceEnabled()) return;
  // One flag per engine: the calling thread is worker 0 of every
  // pool, and is renamed once by each engine it serves.
  thread_local bool named[2] = {false, false};
  bool& done = named[static_cast<int>(engine_)];
  if (done) return;
  obs::NameThisThreadLane(NamesOf(engine_).lane + std::to_string(w));
  done = true;
}

}  // namespace adq::core
