#pragma once
/// \file sta.h
/// \brief Static timing analysis under (VDD, per-cell back-bias).
///
/// This is the feasibility oracle of the whole methodology: the
/// exhaustive exploration (paper Sec. III-C) runs STA for every
/// (BB-assignment, bitwidth, VDD) point and discards any point with a
/// timing violation (~75% of points, per the paper). The analyzer is
/// therefore built for repeated evaluation:
///
///   * the load-dependent part of every cell delay is precomputed
///     once per netlist+parasitics, into one table (DelayTables) that
///     every sweep reads: the cached sweep schedules hold structure
///     only, so a load change rewrites table rows and nothing else;
///   * VDD/Vth only enter through two global alpha-power scale
///     factors (one per bias state), so re-analysis under a new knob
///     assignment is a single topological sweep with no allocation;
///   * case analysis (zeroed input LSBs) deactivates paths exactly as
///     the paper's Fig. 2 describes: arcs from constant nets carry no
///     events, endpoints whose cone is fully constant are disabled;
///   * many (VDD, back-bias mask) points can be analyzed in one
///     traversal: AnalyzeBatch propagates W arrival lanes per net in
///     structure-of-arrays form, so one topological walk, one case-
///     analysis check and one base/wire delay load serve W points,
///     with the inner loop reduced to a W-wide fused multiply-add/max
///     kernel specialized on each cell's shape. Each lane is
///     bit-identical to a scalar Analyze of the same point (same FP
///     expressions, same evaluation order) — the exploration engine
///     relies on that.
///
/// Timing model: registered operators; startpoints are DFF clk->Q,
/// endpoints are DFF D pins with setup; wire delay is a lumped
/// unscaled Elmore term (metal RC does not scale with Vth/VDD).

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "netlist/case_analysis.h"
#include "netlist/netlist.h"
#include "netlist/topo.h"
#include "place/wirelength.h"
#include "tech/cell_library.h"

namespace adq::sta {

/// Timing state of one capture register (endpoint).
struct EndpointTiming {
  netlist::InstId reg;     ///< the capturing DFF
  double arrival_ns = 0.0;
  double slack_ns = 0.0;
  bool active = true;      ///< false = disabled by case analysis
};

struct TimingReport {
  double wns_ns = std::numeric_limits<double>::infinity();  ///< worst slack
  int num_violations = 0;
  int num_active_endpoints = 0;
  int num_disabled_endpoints = 0;
  std::vector<EndpointTiming> endpoints;  ///< only if collect_endpoints

  bool feasible() const { return num_violations == 0; }
};

class TimingAnalyzer {
 public:
  TimingAnalyzer(const netlist::Netlist& nl, const tech::CellLibrary& lib,
                 const place::NetLoads& loads);

  /// Refreshes the delays after resizing: `loads` must already hold
  /// the refreshed input nets of the `resized` instances. Rewrites the
  /// delay-table rows of those instances and of the drivers of their
  /// input nets — every row a drive change can move — so the analyzer
  /// answers exactly as one constructed on `loads`. Cached sweep
  /// schedules are structure only and stay as they are.
  void UpdateLoads(const place::NetLoads& loads,
                   std::span<const std::uint32_t> resized);

  /// Runs one STA.
  /// \param bias_of_inst  back-bias state per instance (index = id);
  ///                      empty means all-NoBB.
  /// \param ca            optional case analysis (zeroed LSBs);
  ///                      nullptr analyses the full-bitwidth circuit.
  /// \param collect_endpoints  fill TimingReport::endpoints (needed
  ///                      for histograms; skip in the hot filter loop).
  TimingReport Analyze(double vdd, double clock_ns,
                       const std::vector<tech::BiasState>& bias_of_inst,
                       const netlist::CaseAnalysis* ca = nullptr,
                       bool collect_endpoints = false);

  /// Batched STA: analyzes W = lane_masks.size() (VDD, back-bias
  /// mask) points in one topological traversal. Lane l runs at supply
  /// lane_vdds[l] with the per-instance bias implied by lane_masks[l]
  /// over `domain_of_inst` (bit d set = domain d forward back-biased,
  /// clear = NoBB — the exploration engine's FBB mask convention, see
  /// core::BiasVectorFor; masks are tech::DomainMask wide, so up to
  /// tech::kMaxDomains domains). Lanes may mix supplies freely; the
  /// alpha-power scales are evaluated once per distinct VDD of the
  /// call. Arrival times are propagated in structure-of-arrays form
  /// (W lanes per net), so the graph walk, the case-analysis checks
  /// and the base/wire delay loads are amortized across all W points.
  ///
  /// A batch wider than one lane is padded internally up to a
  /// multiple of simd::F64::kWidth (the padded lanes take lane 0's
  /// NoBB scale), so no scalar tail runs. Padded lanes are swept and
  /// folded but never reported, and `sta.batch_lanes` counts W.
  ///
  /// Contract: lane_vdds.size() == lane_masks.size(), and reports[l]
  /// is bit-identical to
  ///   Analyze(lane_vdds[l], clock_ns,
  ///           BiasVectorFor(design, lane_masks[l]), ca)
  /// (endpoints are never collected). Pinned by tests/test_sta_batch.
  std::vector<TimingReport> AnalyzeBatch(
      std::span<const double> lane_vdds, double clock_ns,
      std::span<const tech::DomainMask> lane_masks,
      const std::vector<int>& domain_of_inst,
      const netlist::CaseAnalysis* ca = nullptr);

  /// Per-net arrival/required times (forward + backward sweep). Used
  /// by the sizing optimizer, which needs the slack *through* every
  /// cell, not just at endpoints. Only nets that ActiveNet accepts
  /// (active under the case analysis and reached from a launch point)
  /// carry meaningful times; inactive nets read -inf arrival.
  struct DetailedTiming {
    std::vector<double> arrival;
    std::vector<double> required;
    double wns_ns = std::numeric_limits<double>::infinity();
    /// Capture violations, Analyze's fold exactly: the live captures
    /// with clock_ns - setup - arrival < 0, so this is Analyze's
    /// num_violations for the same state.
    int num_violations = 0;

    double SlackOf(netlist::NetId n) const {
      return required[n.index()] - arrival[n.index()];
    }
    bool ActiveNet(netlist::NetId n) const {
      return arrival[n.index()] !=
                 -std::numeric_limits<double>::infinity() &&
             required[n.index()] !=
                 std::numeric_limits<double>::infinity();
    }
  };
  /// Fills the caller-owned `*out` (its buffers are reused, so a
  /// steady stream of calls allocates nothing). The backward sweep
  /// walks the cached forward schedule in reverse.
  void AnalyzeDetailed(double vdd, double clock_ns,
                       const std::vector<tech::BiasState>& bias_of_inst,
                       const netlist::CaseAnalysis* ca, DetailedTiming* out);

  const netlist::Netlist& nl() const { return nl_; }
  const tech::CellLibrary& lib() const { return lib_; }

 private:
  const netlist::Netlist& nl_;
  const tech::CellLibrary& lib_;
  std::vector<netlist::InstId> order_;  // topological, comb cells only

  /// Precomputed load-dependent delay model: per output pin, the
  /// unscaled cell delay `d0 + kd * Cload` plus the fixed Elmore wire
  /// term; per instance, the unscaled register setup. The only copy
  /// of every delay: the sweeps read it at row 2 * inst + output pin,
  /// and UpdateLoads rewrites the rows a resize moves. Everything
  /// VDD/Vth dependent stays outside, in the per-analysis scale
  /// factors.
  struct DelayTables {
    std::vector<double> base_delay;  ///< 2 per instance (output pins)
    std::vector<double> wire_delay;  ///< 2 per instance (output pins)
    std::vector<double> setup_ns;    ///< per instance (registers only)

    void Build(const netlist::Netlist& nl, const tech::CellLibrary& lib,
               const place::NetLoads& loads);
    /// Rewrites instance i's rows (Build is this for every instance).
    void BuildRow(const netlist::Netlist& nl, const tech::CellLibrary& lib,
                  const place::NetLoads& loads, std::uint32_t i);
  };
  DelayTables tab_;

  /// One case-analysis-specialized sweep schedule: the launch points,
  /// the active+reachable cells in topological order with their live
  /// pin nets, the capture registers, and the reachability bitmap.
  /// It is pure structure — a function of the netlist and the case
  /// analysis only — and holds no delay.
  /// A sweep over the schedule touches nothing but arrival rows that
  /// it writes — no instance table, no per-pin IsConstant, no global
  /// buffer clear — while computing bit-for-bit the arrivals of the
  /// historical fill-then-walk formulation (an active-but-unreached
  /// input pin reads -inf there, the identity of the max fold, so
  /// dropping it from the schedule changes nothing).
  struct SweepLaunch {
    std::uint32_t inst;   // the DFF; its Q is output pin 0
    std::uint32_t q_net;
  };
  struct SweepCell {
    std::uint32_t inst;
    std::uint8_t nin = 0, nout = 0;
    /// Instance output pin of each live output (its delay-table row is
    /// 2 * inst + out_pin[k]).
    std::uint8_t out_pin[tech::kMaxCellOutputs] = {};
    std::uint32_t in_net[tech::kMaxCellInputs] = {};
    std::uint32_t out_net[tech::kMaxCellOutputs] = {};
  };
  /// One capture register (a DFF D pin endpoint). `active` is the
  /// historical "active net with a finite arrival" predicate on its D
  /// net; a disabled capture is kept so that endpoint reports still
  /// list every register in instance order.
  struct SweepCapture {
    std::uint32_t inst;
    std::uint32_t d_net;
    bool active;
  };
  struct SweepSchedule {
    bool has_ca = false;
    std::uint64_t ca_fp = 0;  // CaseAnalysis::fingerprint(); 0 if none
    /// The analysis's constant-net bitset, compared in full on a
    /// fingerprint hit: a digest collision is a miss, never an alias.
    std::vector<std::uint64_t> ca_constants;
    long tick = 0;            // LRU stamp
    std::vector<SweepLaunch> launches;
    std::vector<std::uint32_t> pis;  // active primary-input nets
    std::vector<SweepCell> cells;
    std::vector<SweepCapture> captures;  // every DFF, instance order
    int num_disabled = 0;                // captures with !active
    /// Per net: 1 iff active under the case analysis AND reachable
    /// from an active launch point — exactly the nets whose arrival
    /// rows the sweep writes. Everything else is semantically -inf.
    std::vector<std::uint8_t> reached;
  };
  /// Returns the cached schedule for `ca` (looked up by its
  /// fingerprint, confirmed by its constant-net bitset), building and
  /// LRU-caching it on first use.
  const SweepSchedule& ScheduleFor(const netlist::CaseAnalysis* ca);

  /// Every caller walks its modes in order (an engine sweeps one
  /// bitwidth at a time), so two entries serve a caller that alternates
  /// one analysis with the unconstrained circuit. A schedule holds
  /// about 28 bytes per live cell, so each further entry would be
  /// resident memory that no workload rereads.
  static constexpr std::size_t kMaxSchedules = 2;
  std::vector<std::unique_ptr<SweepSchedule>> schedules_;
  long sched_tick_ = 0;

  // Batch scratch below grows to the widest padded batch seen and is
  // never shrunk, so a steady stream of calls allocates nothing.
  std::vector<double> arrival_;        // per net, scratch (W = 1)
  std::vector<double> arrival_lanes_;  // per net x padded lane
  std::vector<double> scale_lanes_;    // kMaxDomains x padded lane
  std::vector<double> nobb_lanes_, fbb_lanes_;  // per padded lane
  std::vector<double> wns_lanes_;      // per padded lane, capture fold
  std::vector<std::uint64_t> viol_lanes_;  // per padded lane

  /// `clear_all` pre-fills every arrival row with -inf before the
  /// sweep (AnalyzeDetailed: its caller reads arbitrary nets from the
  /// returned buffer); the hot entry points skip it and consult
  /// `sched.reached` instead.
  template <typename MultRow>
  void PropagateArrivals(std::size_t lanes, double* arr,
                         const SweepSchedule& sched,
                         const MultRow& mult_row, bool clear_all = false);
};

/// Test hook: while on, every case analysis's schedule-cache digest is
/// the same constant, so all analyses collide in the sweep-schedule
/// cache. Lookups must still return each analysis's own schedule —
/// the cache confirms a digest hit against the full per-net values.
/// Production code must never call this.
void ForceScheduleHashCollisionsForTest(bool on);

}  // namespace adq::sta
