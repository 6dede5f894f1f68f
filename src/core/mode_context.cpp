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

/// Runs the signoff lint gate, so a corrupt netlist fails here, loudly,
/// before any model is built over it.
const ImplementedDesign& Linted(const ImplementedDesign& design,
                                const tech::CellLibrary& lib,
                                lint::LintGate gate) {
  SignoffLint(design, lib, gate);
  return design;
}

}  // namespace

ModeContext::ModeContext(Engine engine, const ImplementedDesign& design,
                         const tech::CellLibrary& lib, const Setup& setup)
    : engine_(engine),
      design_(Linted(design, lib, setup.lint)),
      lib_(lib),
      ndom_(design.num_domains()),
      bitwidths_(setup.bitwidths),
      pmodel_(design.op.nl, lib, design.loads),
      dom_weight_(
          pmodel_.LeakWeightByDomain(design.partition.domain_of, ndom_)),
      pool_(setup.num_threads),
      store_(setup.store),
      store_ctx_(store_ != nullptr ? store_->Context(ExploreStoreKey(design))
                                   : -1),
      analyzers_(static_cast<std::size_t>(pool_.num_threads())) {
  const EngineNames& names = NamesOf(engine);
  const auto nd = static_cast<std::size_t>(ndom_);
  leak_.resize(setup.vdds.size() * nd * 2);
  for (std::size_t vi = 0; vi < setup.vdds.size(); ++vi)
    for (std::size_t d = 0; d < nd; ++d)
      for (std::size_t fbb = 0; fbb < 2; ++fbb)
        leak_[(vi * nd + d) * 2 + fbb] = pmodel_.DomainLeakageW(
            dom_weight_[d], setup.vdds[vi],
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
      design.op, mode_lsbs, setup.activity_cycles, setup.seed,
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
