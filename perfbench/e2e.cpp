/// End-to-end benchmark of the paper reproduction: implementation
/// flow, exhaustive exploration, DVAS baselines, frontier search and
/// the persistent store, driven through the public core:: API.
///
///   perfbench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///
/// One process runs one workload as a closed loop: one job at a time,
/// no threads of its own, every engine pinned to kThreads workers.
/// Untraced runs (--trace 0) time cold and warm passes over the job
/// list; traced runs (--trace 1) switch the obs subsystem on for every
/// other cold pass and attribute the pass to layers. Both re-verify
/// the outputs against independent oracles outside the timed region.
/// The last stdout line is one JSON object {correct, attempted,
/// failed, metrics}; the lines before it are a readable report.
/// README.md describes the workloads, metrics and checks.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/accuracy.h"
#include "core/dvas.h"
#include "core/explore.h"
#include "core/flow.h"
#include "core/frontier.h"
#include "core/pareto.h"
#include "gen/operator.h"
#include "netlist/case_analysis.h"
#include "obs/obs.h"
#include "power/power.h"
#include "sim/activity.h"
#include "sta/sta.h"
#include "store/exploration_store.h"

namespace {

using namespace adq;
using Clock = std::chrono::steady_clock;

/// Worker count handed to every engine (FlowOptions, ExploreOptions,
/// FrontierOptions). One: the reference box delivers about one core of
/// CPU despite four hardware threads, and a single worker keeps the
/// pass times steadiest.
constexpr int kThreads = 1;
/// Per-mode node budget of the frontier_store search: certifies some
/// accuracy modes and leaves the rest with a proved gap.
constexpr long kNodeBudget = 2000;
/// Extra setups timed before every cold pass. setup_s is the median over
/// passes of the fastest of these, so it samples the whole run rather
/// than its first moments, and a slow phase of the shared box moves it
/// less than it moves the median setup.
constexpr int kSetupsPerPass = 10;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ---------------------------------------------------------------------
// Workloads

struct OpKind {
  const char* name;
  gen::Operator (*build)(int);
  int ref_bits;  ///< the paper's reference bitwidth for the DVAS saving
};
const OpKind kBooth{"booth", &gen::BuildBoothOperator, 10};
const OpKind kButterfly{"butterfly", &gen::BuildButterflyOperator, 8};
const OpKind kFir{"fir", &gen::BuildFirMacOperator, 10};
const OpKind kMac{"mac", &gen::BuildMacOperator, 10};
const OpKind kArray{"array", &gen::BuildArrayMultOperator, 10};

struct Job {
  const OpKind* op;
  int width;
  place::GridConfig grid;

  std::string OpKey() const { return op->name + std::to_string(width); }
  std::string Label() const { return OpKey() + " " + grid.ToString(); }
};

enum class Kind { kPaperFig5, kLattice, kFlowClosure, kFrontierStore };

struct Workload {
  std::string name;
  Kind kind;
  std::vector<Job> jobs;
};

std::optional<Workload> MakeWorkload(const std::string& name) {
  if (name == "paper_fig5")
    return Workload{name,
                    Kind::kPaperFig5,
                    {{&kBooth, 16, {2, 2}},
                     {&kButterfly, 16, {3, 3}},
                     {&kFir, 16, {3, 3}}}};
  if (name == "lattice_16dom")
    return Workload{
        name, Kind::kLattice, {{&kBooth, 16, {4, 4}}, {&kFir, 16, {4, 4}}}};
  if (name == "frontier_store")
    return Workload{name,
                    Kind::kFrontierStore,
                    {{&kBooth, 16, {5, 5}}, {&kFir, 16, {5, 5}}}};
  if (name == "flow_closure") {
    Workload w{name, Kind::kFlowClosure, {}};
    for (const OpKind* op : {&kBooth, &kButterfly, &kFir, &kMac, &kArray})
      for (const int width : {8, 16})
        for (const place::GridConfig g : {place::GridConfig{1, 1},
                                          place::GridConfig{2, 1},
                                          place::GridConfig{1, 2},
                                          place::GridConfig{2, 2},
                                          place::GridConfig{3, 3},
                                          place::GridConfig{4, 3}})
          w.jobs.push_back({op, width, g});
    return w;
  }
  return std::nullopt;
}

/// The cell library plus every netlist the workload's jobs implement.
struct Setup {
  std::unique_ptr<tech::CellLibrary> lib;
  std::map<std::string, gen::Operator> ops;  ///< by Job::OpKey
  double gen_s = 0.0;                        ///< time in gen::Build*
};

Setup BuildSetup(const Workload& w) {
  Setup s;
  s.lib = std::make_unique<tech::CellLibrary>();
  const auto t0 = Clock::now();
  for (const Job& j : w.jobs)
    if (!s.ops.count(j.OpKey())) s.ops.emplace(j.OpKey(), j.op->build(j.width));
  s.gen_s = Since(t0);
  return s;
}

// ---------------------------------------------------------------------
// One pass over the job list

struct Exploration {
  std::string label;
  bool on_flat = false;  ///< ran on the flat view, not the partitioned one
  core::ExplorationResult result;
};

struct JobOut {
  std::string error;  ///< what() of an exception; empty when the job ran
  core::ImplementedDesign design;
  std::unique_ptr<core::ImplementedDesign> flat;
  std::vector<Exploration> explorations;
  std::vector<std::vector<core::ParetoPoint>> fronts;
  std::optional<core::FrontierResult> fwrite, fread;
  std::uint64_t store_records = 0;
  store::StoreStats read_stats;
};

struct PassContext {
  const Workload& w;
  const Setup& s;
  std::uint64_t stim_seed;
  std::filesystem::path store_root;
};

void RunExplorations(const PassContext& c, JobOut& o) {
  const tech::CellLibrary& lib = *c.s.lib;
  core::ExploreOptions xopt;
  xopt.seed = c.stim_seed;
  xopt.num_threads = kThreads;
  if (c.w.kind == Kind::kPaperFig5) {
    obs::TraceSpan span("bench.flat_view");
    o.flat = std::make_unique<core::ImplementedDesign>(
        core::FlatView(o.design, lib));
  }
  {
    obs::TraceSpan span("bench.explore");
    o.explorations.push_back(
        {"proposed", false, core::ExploreDesignSpace(o.design, lib, xopt)});
  }
  {
    obs::TraceSpan span("bench.dvas");
    o.explorations.push_back(
        {"dvas_nobb", false,
         core::ExploreDvas(o.design, lib, core::DvasVariant::kNoBB, xopt)});
    o.explorations.push_back(
        {"dvas_fbb", false,
         core::ExploreDvas(o.design, lib, core::DvasVariant::kFBB, xopt)});
    if (o.flat)
      o.explorations.push_back(
          {"dvas_fbb_flat", true,
           core::ExploreDvas(*o.flat, lib, core::DvasVariant::kFBB, xopt)});
  }
  if (c.w.kind == Kind::kPaperFig5) {
    obs::TraceSpan span("bench.pareto");
    for (const Exploration& e : o.explorations)
      o.fronts.push_back(core::Frontier(e.result));
  }
}

void RunFrontierWithStore(const PassContext& c, const std::string& dir,
                          JobOut& o) {
  const tech::CellLibrary& lib = *c.s.lib;
  core::FrontierOptions fopt;
  fopt.seed = c.stim_seed;
  fopt.num_threads = kThreads;
  fopt.node_budget = kNodeBudget;
  // Write pass: a fresh store takes every verdict the search makes.
  {
    std::optional<store::ExplorationStore> st;
    {
      obs::TraceSpan span("bench.store_open");
      st.emplace(dir);
    }
    fopt.store = &*st;
    {
      obs::TraceSpan span("bench.frontier");
      o.fwrite = core::FrontierExplore(o.design, lib, fopt);
    }
    {
      obs::TraceSpan span("bench.store_flush");
      if (!st->Flush()) throw std::runtime_error("store flush failed: " + dir);
    }
    o.store_records = st->num_records();
  }
  // Read pass: reopen the directory and repeat the search from it.
  std::optional<store::ExplorationStore> st;
  {
    obs::TraceSpan span("bench.store_open");
    st.emplace(dir);
  }
  fopt.store = &*st;
  {
    obs::TraceSpan span("bench.frontier");
    o.fread = core::FrontierExplore(o.design, lib, fopt);
  }
  o.read_stats = st->stats();
}

JobOut RunJob(const PassContext& c, std::size_t index) {
  const Job& j = c.w.jobs[index];
  JobOut o;
  try {
    core::FlowOptions fopt;
    fopt.grid = j.grid;
    fopt.num_threads = kThreads;
    {
      obs::TraceSpan span("bench.flow");
      o.design = core::RunImplementationFlow(c.s.ops.at(j.OpKey()),
                                             *c.s.lib, fopt);
    }
    switch (c.w.kind) {
      case Kind::kFlowClosure:
        break;
      case Kind::kPaperFig5:
      case Kind::kLattice:
        RunExplorations(c, o);
        break;
      case Kind::kFrontierStore:
        RunFrontierWithStore(
            c, (c.store_root / ("job" + std::to_string(index))).string(), o);
        break;
    }
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

struct PassTime {
  double wall_s = 0.0;
  std::vector<double> job_wall_s, job_cpu_s;  ///< by job index
};

/// Runs one pass into `out`. A cold pass starts with an empty activity
/// cache; every pass starts with an empty store directory.
PassTime TimedPass(const PassContext& c, bool cold,
                   std::vector<JobOut>& out) {
  out.clear();  // destroy the previous pass's outputs untimed
  std::filesystem::remove_all(c.store_root);
  if (cold) sim::ClearActivityCache();
  PassTime t;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < c.w.jobs.size(); ++i) {
    const double cpu0 = CpuSeconds();
    const auto tj = Clock::now();
    out.push_back(RunJob(c, i));
    t.job_wall_s.push_back(Since(tj));
    t.job_cpu_s.push_back(CpuSeconds() - cpu0);
  }
  t.wall_s = Since(t0);
  return t;
}

/// The noise floor of a pass kind over a run: the sum over jobs of each
/// job's fastest wall and CPU time. On a shared box the noise only ever
/// slows a job, in slow phases of seconds to minutes; a job alone finds
/// a quiet stretch far more often than a whole pass does, so this floor
/// repeats across runs better than the fastest pass or the median.
class JobFloor {
 public:
  void Add(const PassTime& t) {
    if (wall_.empty()) {
      wall_ = t.job_wall_s;
      cpu_ = t.job_cpu_s;
      return;
    }
    for (std::size_t i = 0; i < wall_.size(); ++i) {
      wall_[i] = std::min(wall_[i], t.job_wall_s[i]);
      cpu_[i] = std::min(cpu_[i], t.job_cpu_s[i]);
    }
  }
  double wall_s() const { return Sum(wall_); }
  double cpu_s() const { return Sum(cpu_); }

 private:
  static double Sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  }
  std::vector<double> wall_, cpu_;
};

// ---------------------------------------------------------------------
// Results: a digest for the repeat check, and the QoR figures

void AppendHex(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a,", v);
  s += buf;
}

void AppendModes(std::string& s, const core::ExplorationResult& r) {
  for (const core::ModeResult& m : r.modes) {
    s += std::to_string(m.bitwidth) + (m.has_solution ? "+" : "-");
    if (!m.has_solution) continue;
    AppendHex(s, m.best.vdd);
    s += std::to_string(m.best.mask) + ",";
    AppendHex(s, m.best.wns_ns);
    AppendHex(s, m.best.total_power_w());
  }
}

/// Everything a pass computes for a job that must repeat exactly.
std::string Digest(const JobOut& o) {
  if (!o.error.empty()) return "error:" + o.error;
  std::string s = o.design.timing_met ? "met," : "violated,";
  AppendHex(s, o.design.sizing.wns_ns);
  for (const Exploration& e : o.explorations) {
    s += e.label + ":" + std::to_string(e.result.stats.sta_runs) + ":";
    AppendModes(s, e.result);
  }
  for (const auto* f : {&o.fwrite, &o.fread}) {
    if (!*f) continue;
    s += "frontier:" + std::to_string((*f)->stats.sta_runs) + ":";
    for (const core::FrontierModeResult& m : (*f)->modes) {
      s += m.certified ? "c" : "u";
      AppendHex(s, m.gap_w);
    }
    AppendModes(s, (*f)->ToExplorationResult());
  }
  return s;
}

std::optional<double> BestPowerAt(const core::ExplorationResult& r, int bw) {
  for (const core::ModeResult& m : r.modes)
    if (m.bitwidth == bw && m.has_solution) return m.best.total_power_w();
  return std::nullopt;
}

struct Qor {
  int jobs = 0;
  int timing_fail = 0;
  int op_fail = 0;  ///< exception, timing violated or a failed check
  double worst_wns_ns = std::numeric_limits<double>::infinity();
  int modes = 0, modes_solved = 0;
  int designs_saving = 0;
  double saving_sum_pct = 0.0;
  int frontier_modes = 0, certified = 0;
  long upsize_moves = 0, downsize_moves = 0;
  long case_analysis_builds = 0;
  std::uint64_t store_records = 0;
  std::uint64_t read_lookups = 0, read_hits = 0;
};

Qor ComputeQor(const Workload& w, const std::vector<JobOut>& out,
               const std::vector<bool>& check_failed) {
  Qor q;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const JobOut& o = out[i];
    ++q.jobs;
    if (!o.error.empty()) {
      ++q.op_fail;
      continue;
    }
    const core::ImplementedDesign& d = o.design;
    if (!d.timing_met) ++q.timing_fail;
    if (!d.timing_met || check_failed[i]) ++q.op_fail;
    q.worst_wns_ns = std::min(q.worst_wns_ns, d.sizing.wns_ns);
    q.upsize_moves += d.sizing.upsize_moves;
    q.downsize_moves += d.sizing.downsize_moves;
    for (const Exploration& e : o.explorations)
      for (const core::ModeResult& m : e.result.modes)
        if (!m.statically_pruned) ++q.case_analysis_builds;
    if (!o.explorations.empty()) {
      const core::ExplorationResult& prop = o.explorations[0].result;
      for (const core::ModeResult& m : prop.modes) {
        ++q.modes;
        if (m.has_solution) ++q.modes_solved;
      }
      // Saving against the better DVAS variant on the same layout, at
      // the paper's reference bitwidth; no proposed solution counts 0.
      const int bw = w.jobs[i].op->ref_bits;
      std::optional<double> dvas = BestPowerAt(o.explorations[1].result, bw);
      if (const auto f = BestPowerAt(o.explorations[2].result, bw))
        if (!dvas || *f < *dvas) dvas = f;
      const auto ours = BestPowerAt(prop, bw);
      ++q.designs_saving;
      if (ours && dvas) q.saving_sum_pct += 100.0 * (*dvas - *ours) / *dvas;
    }
    if (o.fwrite) {
      for (const core::FrontierModeResult& m : o.fwrite->modes) {
        ++q.frontier_modes;
        ++q.modes;
        if (m.has_solution) ++q.modes_solved;
        if (m.certified) ++q.certified;
        if (!m.statically_pruned) ++q.case_analysis_builds;
      }
      for (const core::FrontierModeResult& m : o.fread->modes)
        if (!m.statically_pruned) ++q.case_analysis_builds;
      q.store_records += o.store_records;
      q.read_lookups += o.read_stats.lookups;
      q.read_hits += o.read_stats.hits;
    }
  }
  return q;
}

double Share(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// Output checks (outside every timed region)

class Checks {
 public:
  /// Records one check of `kind`; returns `ok`.
  bool Expect(const std::string& kind, bool ok, const std::string& what) {
    auto& [ran, failed] = counts_[kind];
    ++ran;
    if (!ok) {
      ++failed;
      std::printf("CHECK FAILED %s: %s\n", kind.c_str(), what.c_str());
    }
    return ok;
  }
  long total_ran() const {
    long n = 0;
    for (const auto& [k, rf] : counts_) n += rf.first;
    return n;
  }
  long total_failed() const {
    long n = 0;
    for (const auto& [k, rf] : counts_) n += rf.second;
    return n;
  }
  void Print() const {
    for (const auto& [k, rf] : counts_)
      std::printf("check %-14s ran=%ld failed=%ld\n", k.c_str(), rf.first,
                  rf.second);
  }

 private:
  std::map<std::string, std::pair<long, long>> counts_;
};

/// Checks of one job's outputs. Activity profiles are fetched once per
/// accuracy mode and shared by every exploration of the job.
class JobChecker {
 public:
  JobChecker(const tech::CellLibrary& lib, std::uint64_t stim_seed,
             const Job& job, Checks& ck)
      : lib_(lib), stim_seed_(stim_seed), job_(job.Label()), ck_(ck),
        ref_bits_(job.op->ref_bits) {}

  bool ok() const { return ok_; }

  /// Signoff re-run: scalar STA at the implementation corner must give
  /// the flow's wns bit for bit, and the error-level lint must pass.
  void Signoff(const core::ImplementedDesign& d) {
    sta::TimingAnalyzer ta(d.op.nl, lib_, d.loads);
    const std::vector<tech::BiasState> bias(d.op.nl.num_instances(),
                                            tech::BiasState::kFBB);
    const sta::TimingReport rep =
        ta.Analyze(tech::CellLibrary::kVddNominal, d.clock_ns, bias);
    Expect("signoff_sta",
           SameBits(rep.wns_ns, d.sizing.wns_ns) &&
               rep.feasible() == d.timing_met,
           "wns " + std::to_string(rep.wns_ns) + " vs flow " +
               std::to_string(d.sizing.wns_ns));
    std::string lint_error;
    try {
      core::SignoffLint(d, lib_, lint::LintGate::kError);
    } catch (const std::exception& e) {
      lint_error = e.what();
    }
    Expect("signoff_lint", lint_error.empty(), lint_error);
  }

  /// Re-verifies every mode's best point of one exploration with a
  /// scalar STA and a power recomputation. With `lattice` (the full mask lattice was searched), no
  /// one-bit-cleared submask may be feasible and cheaper.
  void BestPoints(const std::string& what, const core::ImplementedDesign& d,
                  const core::ExplorationResult& r, bool lattice) {
    sta::TimingAnalyzer ta(d.op.nl, lib_, d.loads);
    const power::PowerModel pm(d.op.nl, lib_, d.loads);
    const int ndom = d.num_domains();
    const std::vector<double> dom_weight =
        pm.LeakWeightByDomain(d.partition.domain_of, ndom);
    for (const core::ModeResult& m : r.modes) {
      if (!m.has_solution) continue;
      const core::ExploredPoint& b = m.best;
      const std::string at =
          what + " " + std::to_string(m.bitwidth) + "b";
      const netlist::CaseAnalysis ca(d.op.nl,
                                     core::ForcedZeros(d.op, m.bitwidth));
      const sta::TimingReport rep = ta.Analyze(
          b.vdd, d.clock_ns, core::BiasVectorFor(d, b.mask), &ca);
      Expect("best_sta",
             rep.feasible() && b.feasible && SameBits(rep.wns_ns, b.wns_ns),
             at + ": wns " + std::to_string(rep.wns_ns) + " vs " +
                 std::to_string(b.wns_ns));
      const double energy =
          pm.SwitchedEnergyPerCycleFj(Activity(d.op, m.bitwidth));
      const double dyn = power::PowerModel::DynamicW(energy, b.vdd,
                                                     d.fclk_ghz());
      const double leak = core::MaskLeakageW(pm, dom_weight, ndom, b.vdd,
                                             b.mask);
      Expect("best_power",
             SameBits(energy, m.switched_energy_fj) &&
                 SameBits(dyn, b.power.dynamic_w) &&
                 SameBits(leak, b.power.leakage_w),
             at + ": power " + std::to_string(dyn + leak) + " vs " +
                 std::to_string(b.total_power_w()));
      if (!lattice) continue;
      bool cheaper = false;
      for (int dom = 0; dom < ndom; ++dom) {
        if (!tech::MaskHas(b.mask, dom)) continue;
        const tech::DomainMask sub = b.mask & ~tech::MaskBit(dom);
        const sta::TimingReport srep = ta.Analyze(
            b.vdd, d.clock_ns, core::BiasVectorFor(d, sub), &ca);
        if (srep.feasible() &&
            dyn + core::MaskLeakageW(pm, dom_weight, ndom, b.vdd, sub) <
                b.total_power_w())
          cheaper = true;
      }
      Expect("best_submask", !cheaper,
             at + ": a one-bit-cleared submask is feasible and cheaper");
    }
  }

  /// Every frontier certificate must equal the exhaustive table.
  void FrontierMatchesTable(const core::FrontierResult& f,
                            const core::ExplorationResult& table) {
    bool ok = f.modes.size() == table.modes.size();
    for (std::size_t i = 0; ok && i < f.modes.size(); ++i) {
      const core::FrontierModeResult& a = f.modes[i];
      const core::ModeResult& b = table.modes[i];
      ok = a.certified && a.bitwidth == b.bitwidth &&
           a.has_solution == b.has_solution &&
           (!a.has_solution ||
            (SameBits(a.best.vdd, b.best.vdd) && a.best.mask == b.best.mask &&
             SameBits(a.best.wns_ns, b.best.wns_ns) &&
             SameBits(a.best.total_power_w(), b.best.total_power_w())));
    }
    Expect("frontier_table", ok, "certificates differ from the sweep");
  }

  void Expect(const std::string& kind, bool ok, const std::string& what) {
    if (!ck_.Expect(kind, ok, job_ + " " + what)) ok_ = false;
  }

 private:
  /// Activity of one mode for the power check, simulated once per mode.
  /// The job's reference mode comes from the scalar-LogicSim oracle,
  /// which must match the engine's packed profile bit for bit; the
  /// other modes take the engine's cached profile.
  const sim::ActivityProfile& Activity(const gen::Operator& op,
                                       int bitwidth) {
    auto it = activity_.find(bitwidth);
    if (it != activity_.end()) return it->second;
    const int lsbs = core::ZeroedLsbs(op, bitwidth);
    sim::ActivityProfile packed =
        sim::ExtractActivity(op, lsbs, cycles_, stim_seed_);
    if (bitwidth != ref_bits_)
      return activity_.emplace(bitwidth, std::move(packed)).first->second;
    sim::ActivityProfile ref =
        sim::ExtractActivityScalar(op, lsbs, cycles_, stim_seed_);
    Expect("activity",
           packed.cycles == ref.cycles &&
               packed.toggle_rate.size() == ref.toggle_rate.size() &&
               std::memcmp(packed.toggle_rate.data(), ref.toggle_rate.data(),
                           ref.toggle_rate.size() * sizeof(double)) == 0,
           std::to_string(bitwidth) + "b: packed profile differs from scalar");
    return activity_.emplace(bitwidth, std::move(ref)).first->second;
  }

  const tech::CellLibrary& lib_;
  const std::uint64_t stim_seed_;
  const std::string job_;
  Checks& ck_;
  const int ref_bits_;
  const int cycles_ = core::ExploreOptions{}.activity_cycles;
  std::map<int, sim::ActivityProfile> activity_;
  bool ok_ = true;
};

/// Runs every check that applies to the workload on one pass's
/// outputs; returns which jobs failed one.
std::vector<bool> CheckOutputs(const PassContext& c,
                               const std::vector<JobOut>& out, Checks& ck) {
  std::vector<bool> failed(out.size(), false);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const JobOut& o = out[i];
    const std::string label = c.w.jobs[i].Label();
    if (!o.error.empty()) {
      ck.Expect("job_ran", false, label + ": " + o.error);
      failed[i] = true;
      continue;
    }
    JobChecker jc(*c.s.lib, c.stim_seed, c.w.jobs[i], ck);
    jc.Signoff(o.design);
    for (const Exploration& e : o.explorations)
      jc.BestPoints(e.label, e.on_flat ? *o.flat : o.design, e.result,
                    e.label == "proposed");
    if (c.w.kind == Kind::kLattice) {
      core::FrontierOptions fopt;
      fopt.seed = c.stim_seed;
      fopt.num_threads = kThreads;
      jc.FrontierMatchesTable(
          core::FrontierExplore(o.design, *c.s.lib, fopt),
          o.explorations[0].result);
    }
    if (o.fwrite) {
      jc.BestPoints("frontier", o.design, o.fwrite->ToExplorationResult(),
                    /*lattice=*/false);
      std::string w, r;
      AppendModes(w, o.fwrite->ToExplorationResult());
      AppendModes(r, o.fread->ToExplorationResult());
      jc.Expect("store_read", w == r && o.fread->stats.sta_runs == 0,
                "read pass: " + std::to_string(o.fread->stats.sta_runs) +
                    " STA runs, results " + (w == r ? "equal" : "differ"));
    }
    failed[i] = !jc.ok();
  }
  return failed;
}

// ---------------------------------------------------------------------
// Traced passes: per-layer attribution

/// Sums the durations of the complete ("X") events of an obs trace by
/// span name, in seconds.
std::map<std::string, double> SpanSeconds(const std::string& json) {
  std::map<std::string, double> out;
  const std::string open = "{\"ph\":\"";
  for (std::size_t pos = json.find(open); pos != std::string::npos;) {
    const std::size_t next = json.find(open, pos + open.size());
    const std::string ev = json.substr(pos, next - pos);
    pos = next;
    if (ev.compare(open.size(), 1, "X") != 0) continue;
    const std::size_t n0 = ev.find("\"name\":\"");
    const std::size_t d0 = ev.find("\"dur\":");
    if (n0 == std::string::npos || d0 == std::string::npos) continue;
    const std::size_t nb = n0 + 8;
    const std::string name = ev.substr(nb, ev.find('"', nb) - nb);
    out[name] += 1e-6 * std::strtod(ev.c_str() + d0 + 6, nullptr);
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Layer figures of one traced cold pass: absolute times [s] and
/// work counts, named after the src/ modules.
struct LayerSample {
  std::map<std::string, double> time_s;
  std::vector<Metric> work;
};

LayerSample SampleLayers(const std::map<std::string, double>& span,
                         const obs::MetricsSnapshot& snap, const Qor& q) {
  const auto s = [&](const char* n) {
    const auto it = span.find(n);
    return it == span.end() ? 0.0 : it->second;
  };
  const auto counter = [&](const char* n) {
    const auto it = snap.counters.find(n);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto phase = [&](const char* n) {
    const auto it = snap.gauges.find(std::string("phase.flow.") + n +
                                     ".wall_ms");
    return it == snap.gauges.end() ? 0.0 : 1e-3 * it->second;
  };
  LayerSample l;
  auto& t = l.time_s;
  t["flow.call_s"] = s("bench.flow");
  t["place.place_s"] = phase("place");
  t["place.legalize_s"] = phase("legalize");
  t["opt.sizing_s"] = phase("sizing");
  t["opt.postplace_eco_s"] = phase("postplace_eco");
  t["opt.extract_eco_s"] = phase("extract_eco");
  t["lint.gate_s"] = phase("lint");
  t["sta.signoff_s"] = phase("signoff");
  t["sim.activity_s"] = s("sim.extract_activity_batch");
  const double mode_constants =
      s("explore.mode_constants") + s("frontier.mode_constants");
  t["netlist.case_analysis_s"] =
      std::max(0.0, mode_constants - t["sim.activity_s"]);
  t["sta.batch_s"] = s("sta.batch");
  t["explore.call_s"] = s("bench.explore");
  t["dvas.call_s"] = s("bench.dvas");
  t["explore.mode_constants_s"] = s("explore.mode_constants");
  t["frontier.call_s"] = s("bench.frontier");
  t["frontier.criticality_s"] = s("frontier.criticality");
  t["store.open_s"] = s("bench.store_open");
  t["store.flush_s"] = s("bench.store_flush");

  const double sweep_s = s("explore.bitwidth") + s("frontier.bitwidth");
  const double points = counter("explore.points_considered");
  l.work = {
      {"place.relegalized_tiles", counter("flow.relegalized_tiles"), "count"},
      {"opt.upsize_moves", static_cast<double>(q.upsize_moves), "count"},
      {"opt.downsize_moves", static_cast<double>(q.downsize_moves), "count"},
      {"flow.timing_fail_jobs", static_cast<double>(q.timing_fail), "count"},
      {"sim.activity_extractions", counter("sim.activity_extractions"),
       "count"},
      {"sim.packed_ticks", counter("sim.packed_ticks"), "count"},
      {"sim.activity_cache_hit_rate",
       Share(counter("sim.activity_cache_hits"),
             counter("sim.activity_cache_hits") +
                 counter("sim.activity_cache_misses")),
       "ratio"},
      {"netlist.case_analysis_builds",
       static_cast<double>(q.case_analysis_builds), "count"},
      {"sta.batch_calls", counter("sta.batch_calls"), "count"},
      {"sta.batch_lanes", counter("sta.batch_lanes"), "count"},
      {"sta.lanes_per_s", Share(counter("sta.batch_lanes"), t["sta.batch_s"]),
       "1/s"},
      {"sta.analyze_calls", counter("sta.analyze_calls"), "count"},
      {"power.energy_scans", counter("power.energy_scans"), "count"},
      {"power.leakage_scans", counter("power.leakage_scans"), "count"},
      {"explore.points", points, "count"},
      {"explore.sta_runs", counter("explore.sta_runs"), "count"},
      {"explore.prune_share",
       Share(counter("explore.pruned_hits") + counter("explore.mask_pruned"),
             points),
       "ratio"},
      {"explore.worker_busy_share",
       Share(t["sta.batch_s"], sweep_s * kThreads), "ratio"},
      {"frontier.nodes_expanded", counter("frontier.nodes_expanded"),
       "count"},
      {"frontier.sta_runs", counter("frontier.sta_runs"), "count"},
      {"frontier.nodes_per_s",
       Share(counter("frontier.nodes_expanded"), t["frontier.call_s"]), "1/s"},
      {"store.records", static_cast<double>(q.store_records), "count"},
      {"store.hit_rate",
       Share(static_cast<double>(q.read_hits),
             static_cast<double>(q.read_lookups)),
       "ratio"},
  };
  return l;
}

// ---------------------------------------------------------------------
// Report

void PrintJson(bool correct, long attempted, long failed,
               const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") +
                  (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void PrintMetric(const Metric& m) {
  std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      continue;
    }
    if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strtol(v, &end, 10) != 0;
    } else {
      return std::nullopt;
    }
    if (end == v || *end != '\0') return std::nullopt;
  }
  if (argc % 2 == 0 || a.workload.empty() || !(a.seconds > 0.0))
    return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  const std::optional<Workload> wl = MakeWorkload(args->workload);
  if (!wl) {
    std::fprintf(stderr,
                 "unknown workload '%s' (paper_fig5, lattice_16dom, "
                 "flow_closure, frontier_store)\n",
                 args->workload.c_str());
    return 2;
  }
  // Observability stays off except inside traced passes, whatever the
  // environment says: the benchmark never reads ADQ_TRACE & co.
  obs::Configure(obs::Options{});

  // Setup: cell library + every netlist. The first one serves the
  // passes; the repeats before every cold pass are timed and dropped.
  std::vector<double> setup_s, gen_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    Setup s = BuildSetup(*wl);
    setup_s.push_back(Since(t0));
    gen_s.push_back(s.gen_s);
    return s;
  };
  const Setup setup = timed_setup();

  // The seed draws the activity stimulus: seed + 6, so the default seed
  // 1 gives ExploreOptions' default 7. Placement keeps the flow's
  // default seed, because another placement is another design, whose
  // lattice pruning and timing closure differ far more than run-to-run
  // noise does.
  const PassContext ctx{*wl, setup, args->seed + 6,
                        std::filesystem::path(".bench_build") /
                            "perfbench-store"};
  std::printf("workload %s  seed %llu (stimulus %llu, placement %llu)  "
              "threads %d  jobs %zu\n",
              wl->name.c_str(), static_cast<unsigned long long>(args->seed),
              static_cast<unsigned long long>(ctx.stim_seed),
              static_cast<unsigned long long>(core::FlowOptions{}.seed),
              kThreads,
              wl->jobs.size());

  // Measured passes. The first cold pass is the one the checks verify;
  // every later pass must reproduce it exactly.
  std::vector<JobOut> checked, scratch;
  std::vector<std::string> digest;
  long attempted = 0, failed = 0;
  const auto record = [&](std::vector<JobOut>& out) {
    attempted += static_cast<long>(out.size());
    if (checked.empty()) {
      checked = std::move(out);
      for (const JobOut& o : checked) digest.push_back(Digest(o));
      return;
    }
    for (std::size_t i = 0; i < out.size(); ++i)
      if (Digest(out[i]) != digest[i]) {
        ++failed;
        std::printf("CHECK FAILED repeat: %s differs from the first pass\n",
                    wl->jobs[i].Label().c_str());
      }
  };
  std::vector<double> cold_s, warm_s, traced_s, setup_floor_s;
  JobFloor cold_floor, warm_floor;
  LayerSample layers;  // of the fastest traced pass
  const auto t_run = Clock::now();
  do {
    scratch.clear();  // time the setups with no pass outputs alive
    const std::size_t first = setup_s.size();
    for (int i = 0; i < kSetupsPerPass; ++i) timed_setup();
    setup_floor_s.push_back(
        *std::min_element(setup_s.begin() + first, setup_s.end()));
    const PassTime cold = TimedPass(ctx, /*cold=*/true, scratch);
    cold_s.push_back(cold.wall_s);
    cold_floor.Add(cold);
    record(scratch);
    if (!args->trace) {
      const PassTime warm = TimedPass(ctx, /*cold=*/false, scratch);
      warm_s.push_back(warm.wall_s);
      warm_floor.Add(warm);
      record(scratch);
      continue;
    }
    obs::ResetTracing();
    obs::ResetMetrics();
    obs::StartTracing();
    obs::EnableMetrics(true);
    const double traced = TimedPass(ctx, /*cold=*/true, scratch).wall_s;
    obs::StopTracing();
    obs::EnableMetrics(false);
    if (traced_s.empty() || traced < Fastest(traced_s))
      layers = SampleLayers(SpanSeconds(obs::TraceToJson()),
                            obs::SnapshotMetrics(),
                            ComputeQor(*wl, scratch,
                                       std::vector<bool>(scratch.size())));
    traced_s.push_back(traced);
    obs::ResetTracing();
    record(scratch);
  } while (Since(t_run) < args->seconds);
  const double peak_rss_mib = PeakRssMiB();
  scratch.clear();

  // Output checks, untimed.
  Checks ck;
  const auto t_check = Clock::now();
  const std::vector<bool> check_failed = CheckOutputs(ctx, checked, ck);
  const double check_s = Since(t_check);
  for (const bool f : check_failed) failed += f ? 1 : 0;
  std::filesystem::remove_all(ctx.store_root);
  ck.Print();
  const bool correct = failed == 0 && ck.total_failed() == 0;

  // Results of the checked pass (deterministic for a given seed).
  const Qor q = ComputeQor(*wl, checked, check_failed);
  for (std::size_t i = 0; i < checked.size(); ++i) {
    const JobOut& o = checked[i];
    std::printf("job %-16s %s", wl->jobs[i].Label().c_str(),
                !o.error.empty()           ? "ERROR"
                : o.design.timing_met ? "timing met"
                                           : "timing VIOLATED");
    if (o.error.empty()) std::printf("  wns %+.4f ns", o.design.sizing.wns_ns);
    std::printf("\n");
  }
  const bool explores = wl->kind != Kind::kFlowClosure;
  const std::vector<Metric> qor = {
      {"op_fail_share", Share(q.op_fail, q.jobs), "ratio"},
      {"worst_wns_ns", std::isfinite(q.worst_wns_ns) ? q.worst_wns_ns : 0.0,
       "ns"},
      {"modes_solved_share", Share(q.modes_solved, q.modes), "ratio"},
      {"saving_vs_dvas_pct", Share(q.saving_sum_pct, q.designs_saving), "%"},
      {"certified_share", Share(q.certified, q.frontier_modes), "ratio"},
  };
  std::printf("results (seed %llu): %d/%d jobs failed, %d/%d modes solved, "
              "%d/%d modes certified\n",
              static_cast<unsigned long long>(args->seed), q.op_fail, q.jobs,
              q.modes_solved, q.modes, q.certified, q.frontier_modes);
  for (const Metric& m : qor)
    if (explores || m.name == "op_fail_share" || m.name == "worst_wns_ns")
      PrintMetric(m);

  const std::vector<Metric> e2e = {
      {"setup_s", Median(setup_floor_s), "s"},
      {"cold_pass_s", cold_floor.wall_s(), "s"},
      {"warm_pass_s", warm_floor.wall_s(), "s"},
      {"cold_pass_cpu_s", cold_floor.cpu_s(), "s"},
      {"peak_rss_mb", peak_rss_mib, "MiB"},
      {"op_ok_share", Share(q.jobs - q.op_fail, q.jobs), "ratio"},
  };
  std::printf("end to end (%zu setups, %zu cold / %zu warm passes):\n",
              setup_s.size(), cold_s.size(), warm_s.size());
  std::printf("  setups [ms]: median %.4f, median of per-pass fastest %.4f\n",
              1e3 * Median(setup_s), 1e3 * Median(setup_floor_s));
  for (const auto& [what, v] : {std::pair{"cold", &cold_s}, {"warm", &warm_s}})
    if (!v->empty()) {
      std::printf("  %s passes [ms]:", what);
      for (const double t : *v) std::printf(" %.0f", 1e3 * t);
      std::printf("\n");
    }
  for (const Metric& m : e2e)
    if (args->trace ? m.name != "warm_pass_s" : true) PrintMetric(m);
  std::printf("checks: %ld ran, %ld failed, %.3f s\n", ck.total_ran(),
              ck.total_failed(), check_s);

  if (!args->trace) {
    PrintJson(correct, attempted, failed, e2e);
    return 0;
  }

  // Traced run: the fastest traced cold pass, its layer times given as
  // shares of it, plus its work counts.
  const double traced_pass_s = Fastest(traced_s);
  const double untraced_pass_s = Fastest(cold_s);
  std::vector<Metric> per_layer = {{"gen.build_s", Median(gen_s), "s"}};
  std::printf("layers (fastest of %zu traced cold passes):\n",
              traced_s.size());
  PrintMetric(per_layer.back());
  for (const auto& [name, sec] : layers.time_s) {
    PrintMetric({name, sec, "s"});
    per_layer.push_back({name.substr(0, name.size() - 2) + "_pct",
                         100.0 * Share(sec, traced_pass_s), "%"});
  }
  for (const Metric& m : layers.work) {
    PrintMetric(m);
    per_layer.push_back(m);
  }
  const std::vector<Metric> tail = {
      {"check.run_s", check_s, "s"},
      {"check.count", static_cast<double>(ck.total_ran()), "count"},
      {"obs.traced_cold_pass_s", traced_pass_s, "s"},
      {"obs.trace_overhead_share",
       Share(traced_pass_s - untraced_pass_s, untraced_pass_s), "ratio"},
  };
  for (const Metric& m : tail) {
    PrintMetric(m);
    per_layer.push_back(m);
  }
  per_layer.insert(per_layer.end(), qor.begin(), qor.end());
  PrintJson(correct, attempted, failed, per_layer);
  return 0;
}
