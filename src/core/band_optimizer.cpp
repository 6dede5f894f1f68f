#include "core/band_optimizer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/accuracy.h"
#include "sim/activity.h"
#include "sta/sta.h"
#include "util/thread_pool.h"

namespace adq::core {

std::vector<double> AccuracyCriticality(
    const gen::Operator& op, const tech::CellLibrary& lib,
    const place::NetLoads& loads, double clock_ns,
    const std::vector<int>& bitwidths, double slack_window_ns,
    int num_threads) {
  ADQ_CHECK(!bitwidths.empty());
  const netlist::Netlist& nl = op.nl;
  const std::vector<tech::BiasState> fbb(nl.num_instances(),
                                         tech::BiasState::kFBB);

  std::vector<double> score(nl.num_instances(), 1.25);
  std::vector<int> sorted = bitwidths;
  std::sort(sorted.begin(), sorted.end());

  // The probes (one detailed STA per bitwidth) are independent; only
  // the score claiming below is order-sensitive, so compute them all
  // first — sharded across workers when asked — then fold serially in
  // ascending-bitwidth order.
  // The probes' case analyses come from the shared per-structure
  // cache (one batched build, or none when an explorer of this
  // netlist already warmed it).
  std::vector<int> zeroed(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i)
    zeroed[i] = ZeroedLsbs(op, sorted[i]);
  const std::vector<std::shared_ptr<const netlist::CaseAnalysis>> cas =
      sim::ModeCaseAnalyses(op, zeroed);
  std::vector<sta::TimingAnalyzer::DetailedTiming> dts(sorted.size());
  const int nthreads = util::ResolveNumThreads(num_threads);
  if (nthreads <= 1) {
    sta::TimingAnalyzer analyzer(nl, lib, loads);
    for (std::size_t i = 0; i < sorted.size(); ++i)
      dts[i] = analyzer.AnalyzeDetailed(tech::CellLibrary::kVddNominal,
                                        clock_ns, fbb, cas[i].get());
  } else {
    util::ThreadPool pool(nthreads);
    std::vector<std::unique_ptr<sta::TimingAnalyzer>> analyzer(
        static_cast<std::size_t>(pool.num_threads()));
    pool.ParallelFor(
        static_cast<std::int64_t>(sorted.size()), 1,
        [&](std::int64_t i, int w) {
          auto& a = analyzer[static_cast<std::size_t>(w)];
          if (!a) a = std::make_unique<sta::TimingAnalyzer>(nl, lib, loads);
          dts[static_cast<std::size_t>(i)] = a->AnalyzeDetailed(
              tech::CellLibrary::kVddNominal, clock_ns, fbb,
              cas[static_cast<std::size_t>(i)].get());
        });
  }

  for (std::size_t k = 0; k < sorted.size(); ++k) {
    const int bw = sorted[k];
    const auto& dt = dts[k];
    const double frac =
        static_cast<double>(bw) / op.spec.data_width;
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
      if (score[i] <= 1.0) continue;  // already claimed by a smaller bw
      const netlist::Instance& inst = nl.instances()[i];
      for (int o = 0; o < inst.num_outputs(); ++o) {
        const netlist::NetId out = inst.out[o];
        if (!dt.ActiveNet(out)) continue;
        if (dt.SlackOf(out) <= slack_window_ns) {
          score[i] = frac;
          break;
        }
      }
    }
  }
  return score;
}

std::vector<int> OptimizeBandRows(const netlist::Netlist& nl,
                                  const place::Placement& pl,
                                  const std::vector<double>& score,
                                  int ny, int min_rows) {
  ADQ_CHECK(score.size() == nl.num_instances());
  const int rows = pl.fp.num_rows();
  ADQ_CHECK(ny >= 1 && rows >= ny * min_rows);

  // Boost economics: a band must be forward-biased for every mode at
  // least as wide as its most critical cell, and while boosted it
  // pays FBB leakage proportional to its cell content. Expected
  // boosted leakage over a uniform mode mix is
  //     sum_bands weight(band) * (1 - min_score(band))
  // which the DP below minimizes exactly over contiguous row bands.
  std::vector<double> w(static_cast<std::size_t>(rows), 0.0);
  std::vector<double> row_min(static_cast<std::size_t>(rows), 1.25);
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const int r = std::clamp(
        static_cast<int>(pl.pos[i].y / pl.fp.row_height_um), 0, rows - 1);
    w[static_cast<std::size_t>(r)] += 1.0;
    row_min[static_cast<std::size_t>(r)] =
        std::min(row_min[static_cast<std::size_t>(r)], score[i]);
  }
  std::vector<double> W(static_cast<std::size_t>(rows) + 1, 0.0);
  for (int r = 0; r < rows; ++r)
    W[(std::size_t)r + 1] = W[(std::size_t)r] + w[(std::size_t)r];

  // Expected boosted weight of rows [a, b), plus a quadratic balance
  // term: when the criticality profile cannot distinguish two cuts
  // (uniform row minima), prefer evenly sized bands — a 90%-of-die
  // band is all-or-nothing for the runtime knob and strictly worse
  // in practice.
  const double total_w = W[(std::size_t)rows];
  auto cost = [&](int a, int b) {
    double mn = 1.25;
    for (int r = a; r < b; ++r)
      mn = std::min(mn, row_min[(std::size_t)r]);
    const double need = std::max(0.0, 1.0 - mn);  // fraction of modes
    const double bw = W[(std::size_t)b] - W[(std::size_t)a];
    return bw * need + 0.15 * bw * bw / std::max(1.0, total_w);
  };

  // DP over (band index, end row): exact optimal contiguous partition.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> best(
      static_cast<std::size_t>(ny) + 1,
      std::vector<double>(static_cast<std::size_t>(rows) + 1, kInf));
  std::vector<std::vector<int>> from(
      static_cast<std::size_t>(ny) + 1,
      std::vector<int>(static_cast<std::size_t>(rows) + 1, -1));
  best[0][0] = 0.0;
  for (int k = 1; k <= ny; ++k) {
    for (int end = k * min_rows; end <= rows; ++end) {
      for (int start = (k - 1) * min_rows; start + min_rows <= end;
           ++start) {
        if (best[(std::size_t)k - 1][(std::size_t)start] == kInf) continue;
        const double c = best[(std::size_t)k - 1][(std::size_t)start] +
                         cost(start, end);
        if (c < best[(std::size_t)k][(std::size_t)end]) {
          best[(std::size_t)k][(std::size_t)end] = c;
          from[(std::size_t)k][(std::size_t)end] = start;
        }
      }
    }
  }
  ADQ_CHECK_MSG(best[(std::size_t)ny][(std::size_t)rows] < kInf,
                "no feasible band partition");
  std::vector<int> bands(static_cast<std::size_t>(ny), 0);
  int end = rows;
  for (int k = ny; k >= 1; --k) {
    const int start = from[(std::size_t)k][(std::size_t)end];
    bands[(std::size_t)k - 1] = end - start;
    end = start;
  }
  return bands;
}

}  // namespace adq::core
