#pragma once
/// \file mode_context.h
/// \brief Per-design setup shared by the two exploration engines,
/// core::ExploreDesignSpace and core::FrontierExplore (internal to
/// src/core).
///
/// Both engines search the same (bitwidth, VDD, FBB mask) lattice of
/// one implemented design, and before the first STA verdict both need
/// the same things, built here once and in this order:
///
///   1. the signoff lint gate (core::SignoffLint);
///   2. the power model and its per-domain leakage weights;
///   3. the worker pool, the persistent-store context and one lazily
///      built sta::TimingAnalyzer per worker;
///   4. the mode list: the requested bitwidths (default 1 ..
///      data_width), sorted, with the modes whose proved error bound
///      violates the quality target split off (static prune);
///   5. the mode constants: one bit-parallel activity extraction for
///      all kept modes, the per-mode case analyses (shared per netlist
///      structure through the activity cache, sim::ModeCaseAnalyses),
///      then per-mode switched energy on the pool.
///
/// The engines differ only in how they walk the lattice. The trace
/// span names (`<engine>.static_prune`, `<engine>.mode_constants`)
/// and worker lane names (`<engine> worker N`) carry the owning
/// engine, so per-engine profiles stay separable.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/analysis.h"
#include "core/explore.h"
#include "sta/sta.h"
#include "util/thread_pool.h"

namespace adq::core {

/// Lanes per batched STA call (sta::TimingAnalyzer::AnalyzeBatch) in
/// both engines: one topological traversal serves this many masks.
/// Every width is bit-identical (pinned lane by lane in
/// tests/test_sta_batch); only throughput changes. bench_sta_batch on
/// full rows (Booth 2x2, AVX2) gives width 16 1.33-1.43x the masks/s
/// of width 8 (median 1.38x over 7 runs). The frontier search fills
/// the wider batches: its per-VDD wave rows take the frontier_store
/// workload from 5,243 calls at 6.5 lanes to 3,263 at 10.5 lanes,
/// with the same 34,235 lanes. The pruned exhaustive sweep averages
/// 2.6 lanes per call on paper_fig5, so only its few wider rows merge
/// (437 calls at width 8, 397 at 16, 1,116 lanes either way). Width
/// 32 was slower on frontier_store (cold pass median 0.309 -> 0.345 s,
/// 4 alternating pairs on a 4-vCPU AVX2 box), so 16 serves both
/// engines.
inline constexpr std::size_t kStaBatchWidth = 16;

class ModeContext {
 public:
  enum class Engine { kExhaustive, kFrontier };

  /// Builds the context from an ExploreOptions or a FrontierOptions
  /// (the fields the two share).
  template <typename Options>
  ModeContext(Engine engine, const ImplementedDesign& design,
              const tech::CellLibrary& lib, const Options& opt)
      : ModeContext(engine, design, lib,
                    Setup{opt.vdds, opt.bitwidths, opt.activity_cycles,
                          opt.seed, opt.stimulus, opt.quality_max_abs_error,
                          opt.static_prune, opt.lint, opt.store,
                          opt.num_threads}) {}

  /// The modes to search, ascending, statically pruned ones removed.
  const std::vector<int>& bitwidths() const { return bitwidths_; }
  /// Zeroed-LSB case analysis of bitwidths()[bi].
  const netlist::CaseAnalysis& case_analysis(std::size_t bi) const {
    return *ca_[bi];
  }
  /// Activity-annotated switched energy of bitwidths()[bi], per cycle
  /// at 1 V.
  double switched_energy_fj(std::size_t bi) const {
    return energy_fj_[bi];
  }

  const power::PowerModel& pmodel() const { return pmodel_; }
  const std::vector<double>& dom_weight() const { return dom_weight_; }
  /// core::MaskLeakageW over this design's domains at the option's
  /// vdds[vi], bit for bit: the same per-domain terms, precomputed
  /// once per (VDD, domain, bias), summed in the same domain order.
  double LeakageW(std::size_t vi, tech::DomainMask mask) const {
    const double* row = &leak_[vi * 2 * static_cast<std::size_t>(ndom_)];
    double leak_w = 0.0;
    for (int d = 0; d < ndom_; ++d)
      leak_w += row[2 * static_cast<std::size_t>(d) + ((mask >> d) & 1u)];
    return leak_w;
  }

  /// Persistent store (nullptr when off) and this design's context id
  /// in it (-1 when off).
  store::ExplorationStore* store() const { return store_; }
  int store_ctx() const { return store_ctx_; }

  util::ThreadPool& pool() { return pool_; }
  /// Resolved worker count (never 0).
  int num_threads() const { return pool_.num_threads(); }
  /// Worker w's analyzer, built on first use; each worker owns one
  /// because the analyzer reuses per-net scratch.
  sta::TimingAnalyzer& analyzer(int w);
  /// Names the calling thread's trace lane `<engine> worker w`, once
  /// per thread and engine.
  void NameLane(int w) const;

  /// Finishes the mode list after the search. With a finite quality
  /// target every mode gets its proved bound; with static_prune off,
  /// violating modes are replaced post hoc by `placeholder(bitwidth,
  /// bound)` — exactly what the prune stage would have emitted, so
  /// the list is bit-identical either way. The statically pruned
  /// modes are then merged in as placeholders, keeping the list
  /// sorted by bitwidth. Returns their count (the engines'
  /// static_mode_prunes).
  template <typename ModeT, typename MakePlaceholder>
  long FinishModes(std::vector<ModeT>* modes,
                   const MakePlaceholder& placeholder) const;

 private:
  /// A mode decided by the static prune: its proved error bound
  /// exceeds the quality target, so it is never simulated or timed.
  struct PrunedMode {
    int bitwidth = 0;
    double proved_max_abs_error = 0.0;
  };
  /// The option fields ExploreOptions and FrontierOptions share.
  struct Setup {
    const std::vector<double>& vdds;
    const std::vector<int>& bitwidths;
    int activity_cycles;
    std::uint64_t seed;
    sim::StimulusKind stimulus;
    double quality_max_abs_error;
    bool static_prune;
    lint::LintGate lint;
    store::ExplorationStore* store;
    int num_threads;
  };
  ModeContext(Engine engine, const ImplementedDesign& design,
              const tech::CellLibrary& lib, const Setup& setup);

  Engine engine_;
  const ImplementedDesign& design_;
  const tech::CellLibrary& lib_;
  int ndom_;
  double quality_max_abs_error_;
  bool static_prune_;
  std::optional<analysis::AccuracyAnalyzer> quality_;  ///< iff target finite
  std::vector<int> bitwidths_;
  std::vector<PrunedMode> pruned_;
  power::PowerModel pmodel_;
  std::vector<double> dom_weight_;
  /// DomainLeakageW per (vdds index, domain, NoBB/FBB), row-major.
  std::vector<double> leak_;
  util::ThreadPool pool_;
  store::ExplorationStore* store_;
  int store_ctx_;
  std::vector<std::unique_ptr<sta::TimingAnalyzer>> analyzers_;
  std::vector<std::shared_ptr<const netlist::CaseAnalysis>> ca_;
  std::vector<double> energy_fj_;
};

template <typename ModeT, typename MakePlaceholder>
long ModeContext::FinishModes(std::vector<ModeT>* modes,
                              const MakePlaceholder& placeholder) const {
  if (!quality_) return 0;
  for (ModeT& m : *modes) {
    const double bound = quality_->ProvedMaxAbsError(m.bitwidth);
    if (!static_prune_ && bound > quality_max_abs_error_)
      m = placeholder(m.bitwidth, bound);
    else
      m.proved_max_abs_error = bound;
  }
  if (pruned_.empty()) return 0;
  for (const PrunedMode& p : pruned_)
    modes->push_back(placeholder(p.bitwidth, p.proved_max_abs_error));
  std::sort(modes->begin(), modes->end(),
            [](const ModeT& a, const ModeT& b) {
              return a.bitwidth < b.bitwidth;
            });
  return static_cast<long>(pruned_.size());
}

}  // namespace adq::core
