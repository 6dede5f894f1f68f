#include "place/placer.h"

#include "netlist/topo.h"
#include "place/wirelength.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace adq::place {

using netlist::InstId;
using netlist::Netlist;
using netlist::NetId;

namespace {

/// Peripheral anchors: inputs on the left edge, outputs on the right.
/// Bits of a bus are anchored by *significance* — bit i of every
/// input bus sits at the same height (i+0.5)/width — so that the
/// placement develops a significance gradient along y. Datapath cones
/// of the high-order bits then occupy a localized region of the die,
/// which is precisely what lets a regular Vth-domain grid isolate the
/// paths that stay timing-critical at reduced bitwidth (the geometric
/// premise of the paper's Sec. III-B). Ports outside any bus are
/// spread in declaration order.
std::vector<Point> PortAnchors(const Netlist& nl, const Floorplan& fp) {
  std::vector<Point> anchor(nl.num_nets());
  std::vector<bool> anchored(nl.num_nets(), false);

  auto anchor_bus = [&](const netlist::Bus& bus, double x) {
    for (int i = 0; i < bus.width(); ++i) {
      const NetId net = bus.bits[static_cast<std::size_t>(i)];
      anchor[net.index()] =
          Point{x, fp.height_um * (i + 0.5) / bus.width()};
      anchored[net.index()] = true;
    }
  };
  for (const netlist::Bus& bus : nl.input_buses()) anchor_bus(bus, 0.0);
  for (const netlist::Bus& bus : nl.output_buses())
    anchor_bus(bus, fp.width_um);

  const auto& pis = nl.primary_inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    if (anchored[pis[i].index()]) continue;
    anchor[pis[i].index()] = Point{
        0.0,
        fp.height_um * (static_cast<double>(i) + 0.5) /
            static_cast<double>(std::max<std::size_t>(1, pis.size()))};
  }
  const auto& pos = nl.primary_outputs();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (anchored[pos[i].index()]) continue;
    anchor[pos[i].index()] = Point{
        fp.width_um,
        fp.height_um * (static_cast<double>(i) + 0.5) /
            static_cast<double>(std::max<std::size_t>(1, pos.size()))};
  }
  return anchor;
}

/// Bounding box of one net under current cell positions + anchors.
struct BBox {
  double xlo = std::numeric_limits<double>::infinity();
  double xhi = -std::numeric_limits<double>::infinity();
  double ylo = std::numeric_limits<double>::infinity();
  double yhi = -std::numeric_limits<double>::infinity();
  void Add(const Point& p) {
    xlo = std::min(xlo, p.x);
    xhi = std::max(xhi, p.x);
    ylo = std::min(ylo, p.y);
    yhi = std::max(yhi, p.y);
  }
  bool empty() const { return xhi < xlo; }
  double hpwl() const { return empty() ? 0.0 : (xhi - xlo) + (yhi - ylo); }
  Point center() const { return {(xlo + xhi) / 2, (ylo + yhi) / 2}; }
};

BBox NetBox(const Netlist& nl, NetId id, const std::vector<Point>& cell_pos,
            const std::vector<Point>& anchors) {
  BBox box;
  const netlist::Net& net = nl.net(id);
  if (net.driver.valid())
    box.Add(cell_pos[net.driver.inst.index()]);
  if (net.is_primary_input || net.is_primary_output)
    box.Add(anchors[id.index()]);
  for (const netlist::PinRef& s : net.sinks) box.Add(cell_pos[s.inst.index()]);
  return box;
}

}  // namespace

namespace {

/// Estimates each cell's *bit significance* in [0, 1]: the average
/// bus-bit fraction of the port bits in its fan-in and fan-out cones,
/// propagated topologically. Datapath operators are bit-banded
/// structures; anchoring cells to their significance band reproduces
/// the regular, bit-sliced placements real P&R tools produce for
/// datapaths (cf. regularity-driven placement, the paper's ref [19]).
/// This locality is what allows a coarse Vth-domain grid to isolate
/// the cones that stay timing-critical at reduced bitwidth.
std::vector<double> CellSignificance(const Netlist& nl) {
  const std::size_t n_nets = nl.num_nets();
  std::vector<double> net_sig(n_nets, 0.0);
  std::vector<double> net_wt(n_nets, 0.0);

  auto seed_bus = [&](const netlist::Bus& bus) {
    for (int i = 0; i < bus.width(); ++i) {
      const NetId id = bus.bits[static_cast<std::size_t>(i)];
      net_sig[id.index()] = (i + 0.5) / bus.width();
      net_wt[id.index()] = 1.0;
    }
  };
  for (const netlist::Bus& bus : nl.input_buses()) seed_bus(bus);

  // Forward sweep: a cell output inherits the mean significance of
  // its inputs (registers pass through).
  const std::vector<InstId> order = netlist::TopologicalOrder(nl);
  auto forward = [&](InstId id) {
    const netlist::Instance& inst = nl.inst(id);
    double s = 0.0, w = 0.0;
    for (int p = 0; p < inst.num_inputs(); ++p) {
      const NetId in = inst.in[p];
      s += net_sig[in.index()] * net_wt[in.index()];
      w += net_wt[in.index()];
    }
    if (w <= 0.0) return;
    for (int o = 0; o < inst.num_outputs(); ++o) {
      const NetId out = inst.out[o];
      if (net_wt[out.index()] > 0.0) continue;  // seeded ports win
      net_sig[out.index()] = s / w;
      net_wt[out.index()] = 1.0;
    }
  };
  for (const InstId id : order) forward(id);
  // Second pass lets register feedback (accumulators) settle.
  for (const InstId id : order) forward(id);

  // Blend in the output-bus significance backward one level so the
  // final carry/sum cells land at their output bit's band.
  std::vector<double> out_sig(n_nets, -1.0);
  for (const netlist::Bus& bus : nl.output_buses()) {
    for (int i = 0; i < bus.width(); ++i) {
      NetId id = bus.bits[static_cast<std::size_t>(i)];
      out_sig[id.index()] = (i + 0.5) / bus.width();
    }
  }
  std::vector<double> sig(nl.num_instances(), 0.5);
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instances()[i];
    double s = net_sig[inst.out[0].index()];
    const double os = out_sig[inst.out[0].index()];
    if (os >= 0.0) s = 0.5 * (s + os);
    sig[i] = s;
  }
  return sig;
}

}  // namespace

std::vector<std::uint32_t> RankOrder(std::span<const double> keys) {
  // LSD radix sort of (bit pattern, index) pairs on the patterns' top
  // 33 bits (three 11-bit digits), then a stable insertion pass over
  // the full patterns for keys that agree in those bits (to ~2^-21
  // relative: rare among distinct coordinates). Both steps are
  // stable, so equal keys stay in index order.
  constexpr int kDigitBits = 11;
  constexpr int kPasses = 3;
  constexpr int kLowBits = 64 - kPasses * kDigitBits;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const std::size_t n = keys.size();
  ADQ_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  auto digit = [](std::uint64_t bits, int pass) {
    return static_cast<std::size_t>(
        (bits >> (kLowBits + pass * kDigitBits)) & (kBuckets - 1));
  };
  std::vector<std::pair<std::uint64_t, std::uint32_t>> item(n), tmp(n);
  std::vector<std::uint32_t> count(kPasses * kBuckets, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ADQ_DCHECK(keys[i] >= 0.0);
    // +0.0 for -0.0: the two compare equal, so they must tie.
    const std::uint64_t bits =
        keys[i] == 0.0 ? 0 : std::bit_cast<std::uint64_t>(keys[i]);
    item[i] = {bits, static_cast<std::uint32_t>(i)};
    for (int p = 0; p < kPasses; ++p)
      ++count[static_cast<std::size_t>(p) * kBuckets + digit(bits, p)];
  }
  for (int p = 0; p < kPasses && n > 0; ++p) {
    std::uint32_t* c = &count[static_cast<std::size_t>(p) * kBuckets];
    if (c[digit(item[0].first, p)] == n) continue;  // one digit value
    for (std::uint32_t b = 0, sum = 0; b < kBuckets; ++b)
      sum += std::exchange(c[b], sum);
    for (std::size_t i = 0; i < n; ++i)
      tmp[c[digit(item[i].first, p)]++] = item[i];
    item.swap(tmp);
  }
  for (std::size_t i = 1; i < n; ++i) {
    const auto v = item[i];
    std::size_t j = i;
    for (; j > 0 && item[j - 1].first > v.first; --j) item[j] = item[j - 1];
    item[j] = v;
  }
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = item[i].second;
  return order;
}

bool TryLegalizeRows(const Netlist& nl, const tech::CellLibrary& lib,
                     const std::vector<Point>& target,
                     const std::vector<bool>& movable, double x_lo,
                     double x_hi, double y_lo, double y_hi,
                     double row_height_um, std::vector<Point>* result) {
  ADQ_CHECK(target.size() == nl.num_instances());
  // Epsilon guards against losing a row to floating-point (tile
  // heights are exact row multiples by construction).
  const int rows = std::max(
      1, static_cast<int>(std::floor((y_hi - y_lo) / row_height_um + 1e-6)));

  // Movable cells sorted by target x (Tetris order).
  std::vector<std::uint32_t> cells;
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
    if (movable.empty() || movable[i]) cells.push_back(i);
  std::sort(cells.begin(), cells.end(), [&](std::uint32_t a, std::uint32_t b) {
    return target[a].x < target[b].x;
  });

  std::vector<Point> out = target;

  // Each attempt places cells at their preferred x, compressed toward
  // the row start by `gap_factor` (1 = exact preference, 0 = pure
  // left packing). Gaps can strand row capacity; on overflow, retry
  // with stronger compression — graceful degradation instead of a
  // jump to full packing, which would scramble the placement.
  auto attempt = [&](double gap_factor) -> bool {
    std::vector<double> cursor(static_cast<std::size_t>(rows), x_lo);
    for (const std::uint32_t c : cells) {
      const netlist::Instance& inst = nl.instances()[c];
      const double w = lib.Variant(inst.kind, inst.drive).width_um;
      const double tx = target[c].x;
      const double ty = target[c].y;
      const double desired_full =
          std::min(std::max(tx - w / 2, x_lo), x_hi - w);
      const double desired =
          x_lo + gap_factor * (desired_full - x_lo);

      int best_row = -1;
      double best_cost = std::numeric_limits<double>::infinity();
      double best_x = x_lo;
      for (int r = 0; r < rows; ++r) {
        double cand = std::max(cursor[static_cast<std::size_t>(r)], desired);
        // Preferred slot past the row end: fall back to the leftmost
        // free slot of this row.
        if (cand + w > x_hi + 1e-9)
          cand = cursor[static_cast<std::size_t>(r)];
        if (cand + w > x_hi + 1e-9) continue;  // row genuinely full
        const double ry = y_lo + (r + 0.5) * row_height_um;
        const double cost = std::abs(cand + w / 2 - tx) + std::abs(ry - ty);
        if (cost < best_cost) {
          best_cost = cost;
          best_row = r;
          best_x = cand;
        }
      }
      if (best_row < 0) return false;
      cursor[static_cast<std::size_t>(best_row)] = best_x + w;
      out[c] = Point{best_x + w / 2,
                     y_lo + (best_row + 0.5) * row_height_um};
    }
    return true;
  };

  for (const double f : {1.0, 0.8, 0.6, 0.4, 0.0}) {
    if (attempt(f)) {
      *result = std::move(out);
      return true;
    }
  }
  return false;
}

std::vector<Point> LegalizeRows(const Netlist& nl,
                                const tech::CellLibrary& lib,
                                const std::vector<Point>& target,
                                const std::vector<bool>& movable,
                                double x_lo, double x_hi, double y_lo,
                                double y_hi, double row_height_um) {
  std::vector<Point> out;
  const bool ok = TryLegalizeRows(nl, lib, target, movable, x_lo, x_hi,
                                  y_lo, y_hi, row_height_um, &out);
  ADQ_CHECK_MSG(ok,
                "legalization overflow: cell area exceeds row capacity in ["
                    << x_lo << ", " << x_hi << "] x [" << y_lo << ", "
                    << y_hi << "]");
  return out;
}

Placement PlaceDesign(const Netlist& nl, const tech::CellLibrary& lib,
                      const PlacerOptions& opt) {
  double cell_area = 0.0;
  for (const netlist::Instance& inst : nl.instances())
    cell_area += lib.AreaUm2(inst.kind, inst.drive);
  ADQ_CHECK_MSG(cell_area > 0.0, "cannot place an empty netlist");

  Placement pl;
  pl.fp = MakeFloorplan(cell_area, opt.utilization,
                        tech::CellLibrary::kCellHeightUm);
  pl.port_anchor = PortAnchors(nl, pl.fp);

  // Initial spread: x random, y at the cell's bit-significance band
  // (with jitter). The significance pull below keeps the datapath
  // bit-banded through the iterations.
  const std::vector<double> sig = CellSignificance(nl);
  util::Rng rng(opt.seed);
  pl.pos.resize(nl.num_instances());
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    pl.pos[i].x = rng.Uniform(0.0, pl.fp.width_um);
    pl.pos[i].y = std::clamp(
        sig[i] * pl.fp.height_um + rng.Gaussian(0.0, 0.05 * pl.fp.height_um),
        0.0, pl.fp.height_um);
  }

  // Global placement: centroid (force-directed) pulls cluster
  // connected cells; interleaved rank-based spreading restores a
  // uniform density so the clusters do not collapse onto each other.
  // This is a light-weight analytic-placement scheme in the spirit of
  // quadratic placement + look-ahead legalization.
  const std::size_t n_cells = nl.num_instances();
  const std::size_t n_nets = nl.num_nets();

  // Positions are frozen within a centroid pass, so each net's centre
  // is computed once per pass rather than once per incident pin.
  std::vector<Point> centre(n_nets);
  std::vector<std::uint8_t> has_centre(n_nets);
  auto centroid_pass = [&](double damp) {
    for (std::uint32_t n = 0; n < n_nets; ++n) {
      const BBox box = NetBox(nl, NetId(n), pl.pos, pl.port_anchor);
      has_centre[n] = !box.empty();
      if (has_centre[n]) centre[n] = box.center();
    }
    std::vector<Point> next = pl.pos;
    for (std::uint32_t i = 0; i < n_cells; ++i) {
      const netlist::Instance& inst = nl.instances()[i];
      double sx = 0.0, sy = 0.0;
      int n = 0;
      auto accumulate = [&](NetId net_id) {
        if (!has_centre[net_id.index()]) return;
        const Point& c = centre[net_id.index()];
        sx += c.x;
        sy += c.y;
        ++n;
      };
      for (int p = 0; p < inst.num_inputs(); ++p) accumulate(inst.in[p]);
      for (int o = 0; o < inst.num_outputs(); ++o) accumulate(inst.out[o]);
      if (n == 0) continue;
      const double gx = sx / n, gy = sy / n;
      // Blend the wirelength centroid with the bit-significance
      // anchor in y (structured-datapath placement).
      const double ay = sig[i] * pl.fp.height_um;
      const double ty = 0.65 * gy + 0.35 * ay;
      next[i].x = std::clamp(pl.pos[i].x + damp * (gx - pl.pos[i].x), 0.0,
                             pl.fp.width_um);
      next[i].y = std::clamp(pl.pos[i].y + damp * (ty - pl.pos[i].y), 0.0,
                             pl.fp.height_um);
    }
    pl.pos = std::move(next);
  };

  // Rank spreading: each coordinate slides a fraction beta toward its
  // uniform-density quantile position (order preserved per axis).
  std::vector<double> xs(n_cells), ys(n_cells);
  auto spread_pass = [&](double beta) {
    for (std::size_t i = 0; i < n_cells; ++i) {
      xs[i] = pl.pos[i].x;
      ys[i] = pl.pos[i].y;
    }
    const std::vector<std::uint32_t> by_x = RankOrder(xs);
    const std::vector<std::uint32_t> by_y = RankOrder(ys);
    for (std::size_t r = 0; r < n_cells; ++r) {
      const double frac =
          (static_cast<double>(r) + 0.5) / static_cast<double>(n_cells);
      const double qx = frac * pl.fp.width_um;
      const double qy = frac * pl.fp.height_um;
      Point& px = pl.pos[by_x[r]];
      Point& py = pl.pos[by_y[r]];
      px.x += beta * (qx - px.x);
      py.y += beta * (qy - py.y);
    }
  };

  for (int it = 0; it < opt.centroid_iterations; ++it) {
    centroid_pass(0.8);
    centroid_pass(0.8);
    // Spreading weakens over time: early iterations prioritize
    // density, late ones let wirelength win.
    spread_pass(0.7 * (1.0 - 0.7 * it / std::max(1, opt.centroid_iterations)));
  }
  centroid_pass(0.5);

  pl.pos = LegalizeRows(nl, lib, pl.pos, {}, 0.0, pl.fp.width_um, 0.0,
                        pl.fp.height_um, pl.fp.row_height_um);
  return pl;
}

double NetHpwl(const Netlist& nl, const Placement& pl, NetId id) {
  return NetBox(nl, id, pl.pos, pl.port_anchor).hpwl();
}

double TotalHpwl(const Netlist& nl, const Placement& pl) {
  double total = 0.0;
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n)
    total += NetHpwl(nl, pl, NetId(n));
  return total;
}

}  // namespace adq::place
