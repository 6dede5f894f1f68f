#include "core/flow.h"

#include "obs/obs.h"
#include "sta/sta.h"

namespace adq::core {

ImplementedDesign RunImplementationFlow(gen::Operator op,
                                        const tech::CellLibrary& lib,
                                        const FlowOptions& fopt) {
  ADQ_TRACE_SCOPE("flow");
  ImplementedDesign d;
  d.clock_ns = fopt.clock_ns > 0.0 ? fopt.clock_ns : op.spec.target_clock_ns;
  d.op = std::move(op);
  netlist::Netlist& nl = d.op.nl;

  // --- Fanout bounding (buffer trees on high-fanout control nets).
  {
    ADQ_OBS_PHASE("flow.buffering");
    opt::BufferHighFanout(nl, 8);
    nl.Validate();
  }

  // --- Synthesis-like sizing against a wireload model. The clock is
  // tightened by a margin so that post-layout parasitics (unknown at
  // this stage) do not immediately break timing — standard practice.
  opt::SizingOptions sopt;
  sopt.clock_ns = d.clock_ns * 0.8;
  sopt.enable_recovery = false;
  // Deep paths keep ~4% of the period after recovery: enough to stay
  // below one 0.1 V supply step (~10% delay) even after adding the
  // flat view's wire-load advantage, so DVAS cannot harvest the
  // recovery leftover as a free voltage reduction.
  sopt.recovery_margin_ns = 0.04 * d.clock_ns;
  // QoR after each sizing phase; the area sum runs only when observed.
  const auto sizing_qor = [&](const std::string& phase,
                              const opt::SizingResult& r) {
    if (!obs::MetricsEnabled()) return;
    double area = 0.0;
    for (const netlist::Instance& inst : nl.instances())
      area += lib.AreaUm2(inst.kind, inst.drive);
    obs::GetGauge("flow." + phase + ".wns_ns").Set(r.wns_ns);
    obs::GetGauge("flow." + phase + ".cell_area_um2").Set(area);
  };
  {
    ADQ_OBS_PHASE("flow.sizing");
    d.sizing = opt::OptimizeSizing(nl, lib, place::FanoutWires(nl), sopt);
  }
  sizing_qor("sizing", d.sizing);

  // --- First placement (no BB domains).
  place::PlacerOptions popt;
  popt.seed = fopt.seed;
  place::Placement first;
  {
    ADQ_OBS_PHASE("flow.place");
    first = place::PlaceDesign(nl, lib, popt);
  }
  // QoR after the phase; the wirelength sum runs only when observed.
  if (obs::MetricsEnabled())
    obs::GetGauge("flow.place.hpwl_um").Set(place::TotalHpwl(nl, first));
  // Sizing never moves a cell, so the first placement's route lengths
  // serve every load computation on it below.
  const place::NetWires first_wires = place::PlacedWires(nl, first);

  // --- Post-placement optimization with extracted parasitics: close
  // timing at the real clock, then recover power on slack paths.
  // The recovery step is what produces the wall of slack (Fig. 1)
  // against real wire loads.
  opt::SizingResult postplace;
  {
    ADQ_OBS_PHASE("flow.postplace_eco");
    opt::SizingOptions eco = sopt;
    eco.clock_ns = d.clock_ns;
    eco.enable_recovery = true;
    postplace = opt::OptimizeSizing(nl, lib, first_wires, eco);
    d.sizing.upsize_moves += postplace.upsize_moves;
    d.sizing.downsize_moves += postplace.downsize_moves;
  }
  sizing_qor("postplace_eco", postplace);

  // --- Vth-domain insertion (the paper's regular grid) + incremental
  // placement.
  {
    ADQ_OBS_PHASE("flow.partition");
    d.partition =
        place::MakePartition(nl, lib, first, fopt.grid, place::kGuardbandUm);
  }
  {
    ADQ_OBS_PHASE("flow.legalize");
    d.placement = place::ApplyPartition(nl, lib, first, &d.partition);
  }

  // --- Final extraction + incremental-placement ECO (the paper's
  // incremental step re-optimizes sizing with the guardband-stretched
  // parasitics: fix violations, then recover power again so the final
  // margin sits at the wall — the same end state the flat flow
  // reaches, which keeps the DVAS comparison apples-to-apples).
  opt::SizingResult extract;
  {
    ADQ_OBS_PHASE("flow.extract_eco");
    opt::SizingOptions eco = sopt;
    eco.clock_ns = d.clock_ns;
    eco.enable_recovery = true;
    // Small top-up budget: the bulk of recovery already ran; this
    // pass only re-balances cells the guardband ECO upsized.
    eco.recovery_steps_per_cell = 0.15;
    extract = opt::OptimizeSizing(nl, lib, place::PlacedWires(nl, d.placement),
                                  eco);
    d.sizing.upsize_moves += extract.upsize_moves;
    // The ECO resized cells after legalization, so a boundary cell
    // that grew can now protrude into the guardband (lint FL002).
    // Closure loop: re-legalize exactly the affected tiles; while that
    // moved a tile, fix timing on the new wires (upsizes only) and
    // re-legalize again. No upsize means no protrusion, so the loop
    // stops at the first round without one.
    eco.enable_recovery = false;
    constexpr int kMaxClosureRounds = 4;
    int relegalized = 0, rounds = 0, closure_upsizes = 0;
    {
      ADQ_TRACE_SCOPE("flow.closure");
      int moved =
          place::RelegalizeViolations(nl, lib, &d.partition, &d.placement);
      for (; moved > 0; ++rounds) {
        ADQ_CHECK_MSG(rounds < kMaxClosureRounds,
                      "timing closure did not converge in "
                          << kMaxClosureRounds << " rounds");
        relegalized += moved;
        const opt::SizingResult fix = opt::OptimizeSizing(
            nl, lib, place::PlacedWires(nl, d.placement), eco);
        d.sizing.upsize_moves += fix.upsize_moves;
        closure_upsizes += fix.upsize_moves;
        moved =
            place::RelegalizeViolations(nl, lib, &d.partition, &d.placement);
      }
    }
    obs::GetCounter("flow.relegalized_tiles").Add(relegalized);
    obs::GetCounter("flow.closure_rounds").Add(rounds);
    obs::GetCounter("flow.closure_upsizes").Add(closure_upsizes);
    d.loads = place::ExtractLoads(nl, lib, d.placement);
  }
  sizing_qor("extract_eco", extract);
  if (obs::MetricsEnabled())
    obs::GetGauge("flow.extract_eco.hpwl_um")
        .Set(place::TotalHpwl(nl, d.placement));

  // --- Preserve the pre-partition view for the DVAS baselines.
  {
    ADQ_OBS_PHASE("flow.flat_extract");
    d.flat_placement = std::move(first);
    d.flat_loads = place::ComputeLoads(nl, lib, first_wires);
  }

  // --- Signoff check at the implementation corner.
  {
    ADQ_OBS_PHASE("flow.signoff");
    sta::TimingAnalyzer analyzer(nl, lib, d.loads);
    const std::vector<tech::BiasState> bias(nl.num_instances(),
                                            opt::kImplementationCorner);
    const sta::TimingReport rep =
        analyzer.Analyze(tech::CellLibrary::kVddNominal, d.clock_ns, bias);
    d.timing_met = rep.feasible();
    d.sizing.wns_ns = rep.wns_ns;
  }
  // Nothing moves between the closure loop and signoff.
  if (obs::MetricsEnabled())
    obs::GetGauge("flow.closure.wns_ns").Set(d.sizing.wns_ns);

  // --- Signoff lint, the flow's only lint run: the full netlist DRC
  // plus every flow-artifact invariant on the final placement,
  // including the registered-I/O constraint discipline.
  SignoffLint(d, lib, fopt.lint);
  return d;
}

void SignoffLint(const ImplementedDesign& d, const tech::CellLibrary& lib,
                 lint::LintGate gate) {
  if (gate == lint::LintGate::kOff) return;
  ADQ_OBS_PHASE("flow.lint");
  lint::LintOptions lint_opt;
  lint_opt.max_fanout = 8;
  lint::LintReport rep = lint::LintNetlist(d.op.nl, lint_opt);
  lint::FlowArtifacts art;
  art.placement = &d.placement;
  art.partition = &d.partition;
  art.clock_ns = d.clock_ns;
  rep.Merge(lint::LintFlow(d.op.nl, lib, art, lint_opt));
  lint::EnforceGate(rep, gate);
}

ImplementedDesign FlatView(const ImplementedDesign& d,
                           const tech::CellLibrary& lib) {
  ImplementedDesign flat;
  flat.op = d.op;  // copy of the sized netlist
  flat.clock_ns = d.clock_ns;
  flat.placement = d.flat_placement;
  flat.flat_placement = d.flat_placement;
  flat.partition = place::MakePartition(flat.op.nl, lib, flat.placement,
                                        place::GridConfig{1, 1}, 0.0);
  flat.loads = d.flat_loads;
  flat.flat_loads = d.flat_loads;
  flat.sizing = d.sizing;
  flat.timing_met = d.timing_met;
  return flat;
}

}  // namespace adq::core
