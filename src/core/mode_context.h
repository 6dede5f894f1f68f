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
///      data_width), sorted;
///   5. the mode constants: one bit-parallel activity extraction for
///      all modes, the per-mode case analyses (shared per netlist
///      structure through the activity cache, sim::ModeCaseAnalyses),
///      then per-mode switched energy on the pool.
///
/// The engines differ only in how they walk the lattice. The trace
/// span name (`<engine>.mode_constants`) and worker lane names
/// (`<engine> worker N`) carry the owning engine, so per-engine
/// profiles stay separable.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/explore.h"
#include "sta/sta.h"
#include "util/thread_pool.h"

namespace adq::core {

/// Lanes per batched STA call (sta::TimingAnalyzer::AnalyzeBatch) in
/// both engines: one topological traversal serves this many (VDD,
/// mask) points. Every lane carries its own supply, so both engines cut
/// their fresh points into full batches across VDD rows. Every width
/// is bit-identical (pinned lane by lane in tests/test_sta_batch); only
/// throughput changes. At 16 the frontier_store workload takes 2,619
/// calls at 13.1 lanes (34,235 lanes) and the exhaustive sweep of
/// paper_fig5 225 calls at 5.0 lanes (1,116 lanes), against 3,263 and
/// 397 calls when batches stopped at each VDD row. Width 32 (1,578
/// frontier_store calls at 21.7 lanes) was slower: frontier_store
/// cold pass median 0.285 -> 0.332 s and peak RSS 18.4 -> 19.6 MiB
/// (4 alternating 20 s pairs on a 4-vCPU AVX2 box), so 16 serves both
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
                          opt.seed, opt.lint, opt.store,
                          opt.num_threads}) {}

  /// The modes to search, ascending; never empty.
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

 private:
  /// The option fields ExploreOptions and FrontierOptions share.
  struct Setup {
    const std::vector<double>& vdds;
    const std::vector<int>& bitwidths;
    int activity_cycles;
    std::uint64_t seed;
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
  std::vector<int> bitwidths_;
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

}  // namespace adq::core
