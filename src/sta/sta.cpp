#include "sta/sta.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "obs/metrics.h"
#include "sta/lane_kernels.h"

namespace adq::sta {

using netlist::InstId;
using netlist::NetId;
using netlist::Netlist;
using tech::BiasState;

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
std::atomic<bool> g_force_schedule_collisions{false};

/// Grows scratch `v` to at least n elements with an exact-size
/// allocation: the old buffer is released first, and resizing an
/// empty vector allocates exactly n (geometric growth would keep up
/// to twice the widest batch's rows alive for the analyzer's life).
template <typename T>
void GrowExact(std::vector<T>& v, std::size_t n) {
  if (v.size() >= n) return;
  std::vector<T>().swap(v);
  v.resize(n);
}
}  // namespace

void ForceScheduleHashCollisionsForTest(bool on) {
  g_force_schedule_collisions.store(on, std::memory_order_relaxed);
}

TimingAnalyzer::TimingAnalyzer(const Netlist& nl,
                               const tech::CellLibrary& lib,
                               const place::NetLoads& loads)
    : nl_(nl), lib_(lib) {
  for (const InstId id : netlist::TopologicalOrder(nl)) {
    const netlist::Instance& inst = nl.inst(id);
    if (!inst.is_sequential() && !tech::IsTie(inst.kind))
      order_.push_back(id);
  }
  arrival_.resize(nl.num_nets(), kNegInf);
  tab_.Build(nl, lib, loads);
}

void TimingAnalyzer::DelayTables::Build(const Netlist& nl,
                                        const tech::CellLibrary& lib,
                                        const place::NetLoads& loads) {
  ADQ_CHECK(loads.cap_ff.size() == nl.num_nets());
  base_delay.assign(nl.num_instances() * 2, 0.0);
  wire_delay.assign(nl.num_instances() * 2, 0.0);
  setup_ns.assign(nl.num_instances(), 0.0);
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
    BuildRow(nl, lib, loads, i);
}

void TimingAnalyzer::DelayTables::BuildRow(const Netlist& nl,
                                           const tech::CellLibrary& lib,
                                           const place::NetLoads& loads,
                                           std::uint32_t i) {
  const netlist::Instance& inst = nl.instances()[i];
  const tech::CellVariant& v = lib.Variant(inst.kind, inst.drive);
  setup_ns[i] = v.setup_ns;
  for (int o = 0; o < inst.num_outputs(); ++o) {
    const NetId out = inst.out[o];
    base_delay[2 * i + (std::size_t)o] =
        v.d0_ns + v.kd_ns_per_ff * loads.cap_ff[out.index()];
    wire_delay[2 * i + (std::size_t)o] = loads.wire_delay_ns[out.index()];
  }
}

void TimingAnalyzer::UpdateLoads(const place::NetLoads& loads,
                                 std::span<const std::uint32_t> resized) {
  ADQ_CHECK(loads.cap_ff.size() == nl_.num_nets());
  // BuildRow is idempotent, so a row reached twice is rewritten twice.
  for (const std::uint32_t i : resized) {
    tab_.BuildRow(nl_, lib_, loads, i);
    const netlist::Instance& inst = nl_.instances()[i];
    for (int p = 0; p < inst.num_inputs(); ++p) {
      const netlist::PinRef drv = nl_.net(inst.in[p]).driver;
      if (drv.valid()) tab_.BuildRow(nl_, lib_, loads, drv.inst.value);
    }
  }
}

const TimingAnalyzer::SweepSchedule& TimingAnalyzer::ScheduleFor(
    const netlist::CaseAnalysis* ca) {
  const bool has_ca = ca != nullptr;
  std::uint64_t fp = 0;
  if (has_ca)
    fp = g_force_schedule_collisions.load(std::memory_order_relaxed)
             ? 1
             : ca->fingerprint();
  // The digest only narrows the search; the constant-net bitset (all
  // a schedule depends on) confirms it.
  auto same_constants = [&](const SweepSchedule& s) {
    const std::span<const std::uint64_t> bits = ca->constant_bits();
    return s.ca_constants.size() == bits.size() &&
           std::memcmp(s.ca_constants.data(), bits.data(),
                       bits.size() * sizeof(std::uint64_t)) == 0;
  };
  for (const auto& s : schedules_)
    if (s->has_ca == has_ca && s->ca_fp == fp &&
        (!has_ca || same_constants(*s))) {
      s->tick = ++sched_tick_;
      return *s;
    }

  auto net_active = [&](NetId n) { return ca == nullptr || !ca->IsConstant(n); };
  auto sched = std::make_unique<SweepSchedule>();
  sched->has_ca = has_ca;
  sched->ca_fp = fp;
  if (has_ca)
    sched->ca_constants.assign(ca->constant_bits().begin(),
                               ca->constant_bits().end());
  sched->tick = ++sched_tick_;
  sched->reached.assign(nl_.num_nets(), 0);
  sched->pis.reserve(nl_.primary_inputs().size());
  sched->cells.reserve(order_.size());

  // Launch points: DFF Q pins (clk->Q scaled by the register's own
  // bias) and primary-input ports (arrive at the clock edge).
  for (std::uint32_t i = 0; i < nl_.num_instances(); ++i) {
    const netlist::Instance& inst = nl_.instances()[i];
    if (!inst.is_sequential()) continue;
    const NetId q = inst.out[0];
    if (!net_active(q)) continue;
    sched->launches.push_back({i, static_cast<std::uint32_t>(q.index())});
    sched->reached[q.index()] = 1;
  }
  for (const NetId pi : nl_.primary_inputs()) {
    if (!net_active(pi)) continue;
    sched->pis.push_back(static_cast<std::uint32_t>(pi.index()));
    sched->reached[pi.index()] = 1;
  }

  // Active cells in topological order. Reachability (a finite arrival
  // in the fill-then-walk formulation) is a pure function of the
  // graph and the case analysis, never of the delay multipliers, so
  // it is resolved here once: an active-but-unreached input pin would
  // read -inf — the identity of the max fold — and is dropped; a cell
  // with no reached input is skipped entirely (its outputs stay
  // unreached, exactly the historical `in_arr[0] == -inf` skip).
  for (const InstId id : order_) {
    const std::uint32_t i = id.value;
    const netlist::Instance& inst = nl_.instances()[i];
    SweepCell c;
    c.inst = i;
    for (int p = 0; p < inst.num_inputs(); ++p) {
      const NetId in = inst.in[p];
      if (!net_active(in) || !sched->reached[in.index()]) continue;
      c.in_net[c.nin++] = static_cast<std::uint32_t>(in.index());
    }
    if (c.nin == 0) continue;
    for (int o = 0; o < inst.num_outputs(); ++o) {
      const NetId out = inst.out[o];
      if (!net_active(out)) continue;
      c.out_pin[c.nout] = static_cast<std::uint8_t>(o);
      c.out_net[c.nout] = static_cast<std::uint32_t>(out.index());
      sched->reached[out.index()] = 1;
      ++c.nout;
    }
    if (c.nout == 0) continue;
    sched->cells.push_back(c);
  }

  // Captures: every DFF D pin is an endpoint, live iff reached.
  for (std::uint32_t i = 0; i < nl_.num_instances(); ++i) {
    const netlist::Instance& inst = nl_.instances()[i];
    if (!inst.is_sequential()) continue;
    const std::uint32_t d = static_cast<std::uint32_t>(inst.in[0].index());
    const bool active = sched->reached[d] != 0;
    sched->captures.push_back({i, d, active});
    if (!active) ++sched->num_disabled;
  }

  if (schedules_.size() >= kMaxSchedules) {
    std::size_t lru = 0;
    for (std::size_t k = 1; k < schedules_.size(); ++k)
      if (schedules_[k]->tick < schedules_[lru]->tick) lru = k;
    schedules_[lru] = std::move(sched);
    return *schedules_[lru];
  }
  schedules_.push_back(std::move(sched));
  return *schedules_.back();
}

namespace {

/// One schedule cell (a TimingAnalyzer::SweepCell) through the
/// whole-cell kernel of its (live inputs, live outputs) shape, with
/// its delays read from the delay-table rows `base` and `wire`.
template <int NIN, int NOUT, typename Cell>
[[gnu::always_inline]] inline void SweepCellAs(const Cell& c, double* arr,
                                               std::size_t lanes,
                                               const double* m,
                                               const double* base,
                                               const double* wire) {
  const double* in_rows[NIN];
  for (int k = 0; k < NIN; ++k) in_rows[k] = arr + c.in_net[k] * lanes;
  const std::size_t row = 2 * std::size_t{c.inst};
  lanes::OutArc outs[NOUT];
  for (int o = 0; o < NOUT; ++o)
    outs[o] = {arr + c.out_net[o] * lanes, base[row + c.out_pin[o]],
               wire[row + c.out_pin[o]]};
  lanes::PropagateCell<NIN, NOUT>(in_rows, outs, m, lanes);
}

}  // namespace

/// The one arrival sweep behind every Analyze* entry point. `arr`
/// holds `lanes` arrival values per net (lane-major within a net);
/// `mult_row(i)` returns a pointer to the `lanes` delay multipliers of
/// instance i. The sweep walks the case-analysis-specialized schedule
/// (see ScheduleFor) in its topological order: per cell one fused
/// lane kernel specialized on the cell's (live inputs, live outputs)
/// shape — input max fold and output arcs with the accumulator in
/// registers, base/wire delays broadcast from the delay table,
/// F64::kWidth lanes per instruction (sta/lane_kernels.h). Rows of
/// unreached nets are never cleared or written on the hot paths;
/// `sched.reached` is the oracle for "finite arrival" everywhere they
/// used to be read.
///
/// With lanes == 1 every kernel reduces to its scalar tail — exactly
/// the historical scalar sweep (same expressions, same order) — which
/// keeps the golden pins intact.
template <typename MultRow>
void TimingAnalyzer::PropagateArrivals(std::size_t lanes, double* arr,
                                       const SweepSchedule& sched,
                                       const MultRow& mult_row,
                                       bool clear_all) {
  static_assert(tech::kMaxCellInputs == 3 && tech::kMaxCellOutputs == 2,
                "one kernel instantiation per cell shape below");
  if (clear_all) std::fill(arr, arr + nl_.num_nets() * lanes, kNegInf);
  const double* const base = tab_.base_delay.data();
  const double* const wire = tab_.wire_delay.data();

  for (const SweepLaunch& r : sched.launches)
    // clk->Q: intrinsic + load-dependent part, plus the Q net's wire.
    lanes::Launch(arr + r.q_net * lanes, mult_row(r.inst),
                  base[2 * std::size_t{r.inst}],
                  wire[2 * std::size_t{r.inst}], lanes);
  for (const std::uint32_t pi : sched.pis) {
    double* a = arr + pi * lanes;
    for (std::size_t l = 0; l < lanes; ++l) a[l] = 0.0;
  }

  for (const SweepCell& c : sched.cells) {
    const double* m = mult_row(c.inst);
    switch ((c.nin - 1) * tech::kMaxCellOutputs + (c.nout - 1)) {
      case 0: SweepCellAs<1, 1>(c, arr, lanes, m, base, wire); break;
      case 1: SweepCellAs<1, 2>(c, arr, lanes, m, base, wire); break;
      case 2: SweepCellAs<2, 1>(c, arr, lanes, m, base, wire); break;
      case 3: SweepCellAs<2, 2>(c, arr, lanes, m, base, wire); break;
      case 4: SweepCellAs<3, 1>(c, arr, lanes, m, base, wire); break;
      case 5: SweepCellAs<3, 2>(c, arr, lanes, m, base, wire); break;
      default: ADQ_DCHECK(false);
    }
  }
}

TimingReport TimingAnalyzer::Analyze(
    double vdd, double clock_ns,
    const std::vector<BiasState>& bias_of_inst,
    const netlist::CaseAnalysis* ca, bool collect_endpoints) {
  ADQ_CHECK(bias_of_inst.empty() ||
            bias_of_inst.size() == nl_.num_instances());
  static obs::Counter& analyze_calls = obs::GetCounter("sta.analyze_calls");
  analyze_calls.Add();
  // Per-bias-state alpha-power multipliers — all VDD/Vth dependence.
  const double scale[tech::kNumBiasStates] = {
      lib_.DelayScale(vdd, BiasState::kNoBB),
      lib_.DelayScale(vdd, BiasState::kFBB)};
  auto bias_of = [&](std::uint32_t i) -> int {
    return bias_of_inst.empty() ? 0
                                : static_cast<int>(bias_of_inst[i]);
  };

  const SweepSchedule& sched = ScheduleFor(ca);
  PropagateArrivals(1, arrival_.data(), sched,
                    [&](std::uint32_t i) { return &scale[bias_of(i)]; });

  TimingReport rep;
  rep.num_disabled_endpoints = sched.num_disabled;
  for (const SweepCapture& c : sched.captures) {
    EndpointTiming ep;
    ep.reg = InstId(c.inst);
    ep.active = c.active;
    if (c.active) {
      ep.arrival_ns = arrival_[c.d_net];
      const double setup = tab_.setup_ns[c.inst] * scale[bias_of(c.inst)];
      ep.slack_ns = clock_ns - setup - ep.arrival_ns;
      rep.wns_ns = std::min(rep.wns_ns, ep.slack_ns);
      ++rep.num_active_endpoints;
      if (ep.slack_ns < 0.0) ++rep.num_violations;
    }
    if (collect_endpoints) rep.endpoints.push_back(ep);
  }
  if (rep.num_active_endpoints == 0) rep.wns_ns = clock_ns;
  return rep;
}

std::vector<TimingReport> TimingAnalyzer::AnalyzeBatch(
    std::span<const double> lane_vdds, double clock_ns,
    std::span<const tech::DomainMask> lane_masks,
    const std::vector<int>& domain_of_inst,
    const netlist::CaseAnalysis* ca) {
  ADQ_CHECK(domain_of_inst.size() == nl_.num_instances());
  ADQ_CHECK(lane_vdds.size() == lane_masks.size());
  const std::size_t W = lane_masks.size();
  std::vector<TimingReport> reports(W);
  if (W == 0) return reports;
  static obs::Counter& batch_calls = obs::GetCounter("sta.batch_calls");
  static obs::Counter& batch_lanes = obs::GetCounter("sta.batch_lanes");
  batch_calls.Add();
  batch_lanes.Add(static_cast<long>(W));

  // Padded width: a multiple of the vector width once W > 1, so the
  // lane kernels never run their scalar tail; W = 1 stays scalar.
  constexpr std::size_t kVec = simd::F64::kWidth;
  const std::size_t Wp = W == 1 ? 1 : (W + kVec - 1) / kVec * kVec;

  // Per-lane alpha-power multipliers — the same two DelayScale values
  // scalar Analyze uses at the lane's VDD, evaluated once per distinct
  // VDD of the call. Padded lanes take lane 0's NoBB scale.
  GrowExact(nobb_lanes_, Wp);
  GrowExact(fbb_lanes_, Wp);
  GrowExact(wns_lanes_, Wp);
  GrowExact(viol_lanes_, Wp);
  GrowExact(scale_lanes_, static_cast<std::size_t>(tech::kMaxDomains) * Wp);
  for (std::size_t l = 0; l < W; ++l) {
    std::size_t k = 0;
    while (k < l && lane_vdds[k] != lane_vdds[l]) ++k;
    if (k < l) {
      nobb_lanes_[l] = nobb_lanes_[k];
      fbb_lanes_[l] = fbb_lanes_[k];
    } else {
      nobb_lanes_[l] = lib_.DelayScale(lane_vdds[l], BiasState::kNoBB);
      fbb_lanes_[l] = lib_.DelayScale(lane_vdds[l], BiasState::kFBB);
    }
  }
  for (std::size_t l = W; l < Wp; ++l) nobb_lanes_[l] = nobb_lanes_[0];

  // Per-domain scale table: row d holds the Wp multipliers of domain
  // d. Every row a domain index can name is filled, so the call never
  // scans domain_of_inst for its domain count; rows above the highest
  // FBB bit of any lane are plain copies of the NoBB row.
  tech::DomainMask any_fbb = 0;
  for (const tech::DomainMask m : lane_masks) any_fbb |= m;
  const int fbb_rows = static_cast<int>(std::bit_width(any_fbb));
  for (int d = 0; d < tech::kMaxDomains; ++d) {
    double* row = &scale_lanes_[static_cast<std::size_t>(d) * Wp];
    if (d >= fbb_rows) {
      std::copy_n(nobb_lanes_.begin(), Wp, row);
      continue;
    }
    for (std::size_t l = 0; l < W; ++l)
      row[l] = ((lane_masks[l] >> d) & 1u) ? fbb_lanes_[l] : nobb_lanes_[l];
    for (std::size_t l = W; l < Wp; ++l) row[l] = nobb_lanes_[l];
  }
  auto scale_row = [&](std::uint32_t i) {
    ADQ_DCHECK(domain_of_inst[i] >= 0 &&
               domain_of_inst[i] < tech::kMaxDomains);
    return &scale_lanes_[static_cast<std::size_t>(domain_of_inst[i]) * Wp];
  };

  const SweepSchedule& sched = ScheduleFor(ca);
  GrowExact(arrival_lanes_, nl_.num_nets() * Wp);
  PropagateArrivals(Wp, arrival_lanes_.data(), sched, scale_row);

  // Capture fold over SoA accumulators: wns is a per-lane min fold in
  // instance order (exactly the scalar fold order), violations count
  // via lane compares, and the endpoint counts are lane-invariant.
  std::fill_n(wns_lanes_.begin(), Wp, std::numeric_limits<double>::infinity());
  std::fill_n(viol_lanes_.begin(), Wp, std::uint64_t{0});
  for (const SweepCapture& c : sched.captures) {
    if (!c.active) continue;
    lanes::EndpointFold(wns_lanes_.data(), viol_lanes_.data(),
                        scale_row(c.inst), &arrival_lanes_[c.d_net * Wp],
                        clock_ns, tab_.setup_ns[c.inst], Wp);
  }
  const int active_eps =
      static_cast<int>(sched.captures.size()) - sched.num_disabled;
  for (std::size_t l = 0; l < W; ++l) {
    TimingReport& rep = reports[l];
    rep.wns_ns = active_eps == 0 ? clock_ns : wns_lanes_[l];
    rep.num_violations = static_cast<int>(viol_lanes_[l]);
    rep.num_active_endpoints = active_eps;
    rep.num_disabled_endpoints = sched.num_disabled;
  }
  return reports;
}

void TimingAnalyzer::AnalyzeDetailed(
    double vdd, double clock_ns, const std::vector<BiasState>& bias_of_inst,
    const netlist::CaseAnalysis* ca, DetailedTiming* out) {
  constexpr double kPosInf = std::numeric_limits<double>::infinity();
  const double scale[tech::kNumBiasStates] = {
      lib_.DelayScale(vdd, BiasState::kNoBB),
      lib_.DelayScale(vdd, BiasState::kFBB)};
  auto bias_of = [&](std::uint32_t i) -> int {
    return bias_of_inst.empty() ? 0
                                : static_cast<int>(bias_of_inst[i]);
  };

  DetailedTiming& dt = *out;
  dt.arrival.resize(nl_.num_nets());
  dt.required.assign(nl_.num_nets(), kPosInf);
  dt.wns_ns = kPosInf;
  dt.num_violations = 0;
  double* const req = dt.required.data();

  // Forward sweep (the exact kernel Analyze runs). clear_all: the
  // caller reads arbitrary nets, so unreached rows must hold -inf.
  const SweepSchedule& sched = ScheduleFor(ca);
  PropagateArrivals(1, dt.arrival.data(), sched,
                    [&](std::uint32_t i) { return &scale[bias_of(i)]; },
                    /*clear_all=*/true);

  // Backward sweep: required time at the live capture D pins, then
  // the schedule in reverse. Only reached nets get a required time;
  // a full-netlist walk would also write unreached ones, which
  // ActiveNet hides (their arrival is -inf) and which never feed a
  // reached net. Each reached net sees the same min fold, in the same
  // order, as in that walk.
  for (const SweepCapture& c : sched.captures) {
    if (!c.active) continue;
    const double setup = tab_.setup_ns[c.inst] * scale[bias_of(c.inst)];
    req[c.d_net] = std::min(req[c.d_net], clock_ns - setup);
    if (clock_ns - setup - dt.arrival[c.d_net] < 0.0) ++dt.num_violations;
  }
  for (auto it = sched.cells.rbegin(); it != sched.cells.rend(); ++it) {
    const SweepCell& c = *it;
    const double m = scale[bias_of(c.inst)];
    double req_in = kPosInf;
    for (int k = 0; k < c.nout; ++k) {
      const std::size_t row = 2 * std::size_t{c.inst} + c.out_pin[k];
      req_in = std::min(req_in, req[c.out_net[k]] -
                                    tab_.base_delay[row] * m -
                                    tab_.wire_delay[row]);
    }
    if (req_in == kPosInf) continue;
    for (int k = 0; k < c.nin; ++k)
      req[c.in_net[k]] = std::min(req[c.in_net[k]], req_in);
  }

  for (std::uint32_t n = 0; n < nl_.num_nets(); ++n) {
    if (!sched.reached[n] || req[n] == kPosInf) continue;
    dt.wns_ns = std::min(dt.wns_ns, req[n] - dt.arrival[n]);
  }
  if (dt.wns_ns == kPosInf) dt.wns_ns = clock_ns;
}

}  // namespace adq::sta
