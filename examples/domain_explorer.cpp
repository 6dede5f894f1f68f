/// \file domain_explorer.cpp
/// \brief User-facing design-space exploration tool: pick an operator
/// and a Vth-domain grid, get the full methodology report.
///
/// Usage: domain_explorer [booth|butterfly|fir|mac|array] [NX] [NY]
///                        [regular] [threads] [--lint=off|warn|error]
///                        [--engine=exhaustive|frontier|auto]
///                        [--store=DIR] [--budget=N]
///                        [--trace=f.json] [--metrics=f.json] [--progress]
/// Defaults: booth 2 2 regular 0 (threads: 0 = one per hardware
/// thread, 1 = serial, at most kMaxThreads = 256; any value gives
/// identical results — the exploration's deterministic-merge
/// guarantee). An unknown operator, strategy or flag, a surplus
/// argument, or a malformed or out-of-range number exits 1 with a
/// message before the flow runs. The strategy argument accepts only
/// `regular`, the paper's regular grid. This generalizes the paper's
/// Fig. 6 study to any operator/grid combination and prints
/// everything a designer needs to pick a grid: area overhead,
/// per-mode optimal knobs, and the savings against both DVAS
/// baselines.
///
/// --engine picks the exploration engine: `exhaustive` enumerates
/// every mask (grids up to core::kMaxExhaustiveDomains domains),
/// `frontier` runs the branch-and-bound lattice search
/// (core::FrontierExplore — any grid up to tech::kMaxDomains; prints
/// per-mode certificates or proved gaps), and `auto` (the default)
/// routes oversize grids to frontier. --store=DIR warm-starts either
/// engine from a persistent exploration store at DIR (created when
/// absent) and writes fresh verdicts back — a second run trades its
/// STA runs for store hits with bit-identical results. --budget=N
/// caps the frontier search at N node expansions per accuracy mode
/// (0 = run to certificate). The --lint gate is applied by *both*
/// exploration engines (the same core::SignoffLint the flow runs),
/// not just by the flow itself.
///
/// Observability (see README "Observability"): --trace writes a
/// Chrome/Perfetto trace of the whole run (flow phases + per-worker
/// exploration lanes), --metrics a counters/gauges/histograms
/// snapshot (.csv selects CSV), --progress a rate-limited stderr
/// status line. ADQ_TRACE/ADQ_METRICS/ADQ_PROGRESS env vars set the
/// same knobs; flags win.

#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cli.h"
#include "core/controller.h"
#include "core/dvas.h"
#include "core/explore.h"
#include "core/flow.h"
#include "core/frontier.h"
#include "core/pareto.h"
#include "store/exploration_store.h"
#include "gen/operator.h"
#include "lint/lint.h"
#include "netlist/stats.h"
#include "obs/obs.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

/// Largest accepted [threads] argument, so that a typo cannot ask the
/// OS for an unbounded number of threads.
constexpr long kMaxThreads = 256;

}  // namespace

int main(int argc, char** argv) {
  using namespace adq;
  obs::Options oopt = obs::OptionsFromEnv();
  lint::LintGate lint_gate = lint::LintGate::kError;
  std::string engine = "auto";
  std::string store_dir;
  long budget = 0;
  std::vector<const char*> pos;  // positional args, flags stripped
  for (int i = 1; i < argc; ++i) {
    if (obs::ParseObsFlag(argv[i], &oopt)) continue;
    if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      engine = argv[i] + 9;
      if (engine != "exhaustive" && engine != "frontier" &&
          engine != "auto") {
        std::fprintf(stderr, "--engine must be exhaustive, frontier or auto\n");
        return 1;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--store=", 8) == 0) {
      store_dir = argv[i] + 8;
      continue;
    }
    if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      if (!cli::ParseLong(argv[i] + 9, 0, LONG_MAX, "--budget", &budget))
        return 1;
      continue;
    }
    if (std::strncmp(argv[i], "--lint=", 7) == 0) {
      const char* v = argv[i] + 7;
      if (std::strcmp(v, "off") == 0) lint_gate = lint::LintGate::kOff;
      else if (std::strcmp(v, "warn") == 0) lint_gate = lint::LintGate::kWarn;
      else if (std::strcmp(v, "error") == 0) lint_gate = lint::LintGate::kError;
      else {
        std::fprintf(stderr, "--lint must be off, warn or error\n");
        return 1;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
    pos.push_back(argv[i]);
  }
  if (pos.size() > 5) {
    std::fprintf(stderr, "unexpected argument %s\n", pos[5]);
    return 1;
  }
  const char* which = pos.size() > 0 ? pos[0] : "booth";
  const cli::OperatorBuilder build = cli::FindOperator(which);
  if (build == nullptr) {
    std::fprintf(stderr, "unknown operator %s\n", which);
    return 1;
  }
  if (pos.size() > 3 && std::strcmp(pos[3], "regular") != 0) {
    std::fprintf(stderr, "unknown strategy %s\n", pos[3]);
    return 1;
  }
  long nx = 2, ny = 2, threads_arg = 0;
  if ((pos.size() > 1 &&
       !cli::ParseLong(pos[1], 1, tech::kMaxDomains, "NX", &nx)) ||
      (pos.size() > 2 &&
       !cli::ParseLong(pos[2], 1, tech::kMaxDomains, "NY", &ny)) ||
      (pos.size() > 4 &&
       !cli::ParseLong(pos[4], 0, kMaxThreads, "threads", &threads_arg)))
    return 1;
  const int threads = static_cast<int>(threads_arg);
  obs::Configure(oopt);

  place::GridConfig grid{static_cast<int>(nx), static_cast<int>(ny)};
  if (grid.num_domains() > tech::kMaxDomains) {
    std::fprintf(stderr, "grid must be 1x1 .. %d domains\n",
                 tech::kMaxDomains);
    return 1;
  }
  if (engine == "exhaustive" &&
      grid.num_domains() > core::kMaxExhaustiveDomains) {
    std::fprintf(stderr,
                 "grid has %d domains; --engine=exhaustive tops out at "
                 "%d (use --engine=frontier)\n",
                 grid.num_domains(), core::kMaxExhaustiveDomains);
    return 1;
  }

  gen::Operator op = build(16);

  const tech::CellLibrary lib;
  core::FlowOptions fopt;
  fopt.grid = grid;
  fopt.lint = lint_gate;
  std::printf("operator %s, grid %s (regular grid)\n", op.spec.name.c_str(),
              grid.ToString().c_str());
  const core::ImplementedDesign design =
      core::RunImplementationFlow(std::move(op), lib, fopt);
  const auto stats = netlist::ComputeStats(design.op.nl, lib);
  std::printf(
      "implemented: %zu cells, %.3e mm^2 cell area, fclk %.2f GHz,\n"
      "guardband overhead %.1f%%, timing %s (wns %+.3f ns)\n\n",
      stats.num_instances, stats.cell_area_um2 * 1e-6, design.fclk_ghz(),
      100.0 * design.partition.area_overhead(),
      design.timing_met ? "met" : "VIOLATED", design.sizing.wns_ns);

  std::unique_ptr<store::ExplorationStore> store;
  if (!store_dir.empty()) {
    store = std::make_unique<store::ExplorationStore>(store_dir);
    std::printf("exploration store: %s (%llu records on open)\n",
                store->dir().c_str(),
                static_cast<unsigned long long>(store->num_records()));
  }
  const bool use_frontier =
      engine == "frontier" ||
      (engine == "auto" &&
       design.num_domains() > core::kMaxExhaustiveDomains);

  core::ExploreOptions xopt;
  xopt.num_threads = threads;
  xopt.store = store.get();
  xopt.lint = lint_gate;
  core::ExplorationResult ours;
  core::FrontierResult frontier;
  if (use_frontier) {
    core::FrontierOptions fropt;
    fropt.num_threads = threads;
    fropt.node_budget = budget;
    fropt.store = store.get();
    fropt.lint = lint_gate;
    frontier = core::FrontierExplore(design, lib, fropt);
    ours = frontier.ToExplorationResult();
  } else {
    ours = core::ExploreDesignSpace(design, lib, xopt);
  }
  const auto dvas_fbb =
      core::ExploreDvas(design, lib, core::DvasVariant::kFBB, xopt);
  const auto dvas_nobb =
      core::ExploreDvas(design, lib, core::DvasVariant::kNoBB, xopt);

  // The schedule the runtime controller would program, gated by the
  // same --lint policy as the flow (rules FL004 / MD001).
  const core::RuntimeController ctl(ours);
  lint::EnforceGate(ctl.Lint(design.num_domains(), design.op.spec.data_width),
                    lint_gate);

  const auto fo = core::Frontier(ours);
  const auto ff = core::Frontier(dvas_fbb);
  const auto fn = core::Frontier(dvas_nobb);

  util::Table t({"bits", "optimal [W]", "VDD", "mask", "vs DVAS FBB",
                 "vs DVAS NoBB"});
  for (const core::ParetoPoint& p : fo) {
    auto rel = [&](const std::vector<core::ParetoPoint>& base) {
      const auto s = core::SavingAt(fo, base, p.bitwidth);
      return s ? util::Table::Num(100.0 * *s, 1) + "%" : std::string("--");
    };
    char mask[40];
    std::snprintf(mask, sizeof(mask), "0x%llx",
                  static_cast<unsigned long long>(p.mask));
    t.AddRow({std::to_string(p.bitwidth), util::Table::Sci(p.power_w, 3),
              util::Table::Num(p.vdd, 1), mask, rel(ff), rel(fn)});
  }
  std::fputs(t.Render().c_str(), stdout);
  if (use_frontier) {
    std::printf("\nmode certificates (frontier engine):\n");
    for (const core::FrontierModeResult& m : frontier.modes) {
      if (m.certified)
        std::printf("  bits %2d: proved optimal (%ld nodes expanded)\n",
                    m.bitwidth, m.nodes_expanded);
      else
        std::printf(
            "  bits %2d: budget hit after %ld nodes, proved gap "
            "%.3e W\n",
            m.bitwidth, m.nodes_expanded, m.gap_w);
    }
    std::printf(
        "frontier: %ld nodes expanded over %ld waves, %ld STA runs, "
        "%ld store hits, %ld cross-bitwidth transfers (%d/%zu modes "
        "certified, %d worker threads)\n",
        frontier.stats.nodes_expanded, frontier.stats.waves,
        frontier.stats.sta_runs, frontier.stats.store_hits,
        frontier.stats.transfer_hits, frontier.stats.certified_modes,
        frontier.modes.size(), util::ResolveNumThreads(threads));
  } else {
    std::printf(
        "\nexploration: %ld points considered, %ld STA runs (%ld "
        "mask-dominance pruned), %.0f%% filtered (%d worker threads)\n",
        ours.stats.points_considered, ours.stats.sta_runs,
        ours.stats.mask_pruned, 100.0 * ours.stats.FilterRate(),
        util::ResolveNumThreads(threads));
  }
  if (store) {
    const store::StoreStats ss = store->stats();
    std::printf(
        "store: %llu hits / %llu lookups this run; flushing %s\n",
        static_cast<unsigned long long>(ss.hits),
        static_cast<unsigned long long>(ss.lookups),
        store->Flush() ? "ok" : "FAILED");
  }
  // The --metrics explore.* counters accumulate over every exhaustive
  // sweep in the process (the main sweep, unless the frontier engine
  // ran it, plus both DVAS baselines); print the same totals so the
  // two outputs reconcile exactly. Frontier counts are on their own
  // `frontier:` line above (frontier.* counters).
  std::vector<const core::ExplorationStats*> all = {&dvas_fbb.stats,
                                                    &dvas_nobb.stats};
  if (!use_frontier) all.insert(all.begin(), &ours.stats);
  core::ExplorationStats tot;
  for (const core::ExplorationStats* s : all) {
    tot.points_considered += s->points_considered;
    tot.sta_runs += s->sta_runs;
    tot.filtered += s->filtered;
    tot.pruned += s->pruned;
    tot.mask_pruned += s->mask_pruned;
    tot.feasible += s->feasible;
  }
  std::printf(
      "incl. DVAS baselines (= --metrics totals): %ld points, %ld STA "
      "runs, %ld pruned, %ld mask-pruned, %ld filtered, %ld feasible\n",
      tot.points_considered, tot.sta_runs, tot.pruned, tot.mask_pruned,
      tot.filtered, tot.feasible);
  obs::Flush();
  return 0;
}
