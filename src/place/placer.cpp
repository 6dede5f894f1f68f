#include "place/placer.h"

#include "netlist/topo.h"
#include "obs/metrics.h"
#include "place/wirelength.h"

#include <algorithm>
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

/// The placer's pin tape: net/cell incidence flattened once per
/// PlaceDesign into two exactly sized arrays. Positions live in one
/// array, the cells first and then the anchored ports (`anchor_slot`).
struct PinTape {
  static constexpr std::uint32_t kNoAnchor =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> anchor_slot;  ///< per net, or kNoAnchor
  std::uint32_t num_anchors = 0;
  /// Per net: position slots in NetBox's order (driver, port anchor,
  /// sinks), net n at [net_start[n], net_start[n + 1]).
  std::vector<std::uint32_t> net_start, net_slot;
  /// Per cell: its nets in pin order (inputs, then outputs).
  std::vector<std::uint32_t> cell_start, cell_net;

  PinTape(const Netlist& nl, std::size_t n_cells)
      : anchor_slot(nl.num_nets(), kNoAnchor),
        net_start(nl.num_nets() + 1),
        cell_start(n_cells + 1) {
    for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
      const netlist::Net& net = nl.net(NetId(n));
      const bool anchored = net.is_primary_input || net.is_primary_output;
      if (anchored)
        anchor_slot[n] = static_cast<std::uint32_t>(n_cells) + num_anchors++;
      net_start[n + 1] = net_start[n] + (net.driver.valid() ? 1 : 0) +
                         (anchored ? 1 : 0) +
                         static_cast<std::uint32_t>(net.sinks.size());
    }
    for (std::uint32_t i = 0; i < n_cells; ++i) {
      const netlist::Instance& inst = nl.instances()[i];
      cell_start[i + 1] = cell_start[i] +
                          static_cast<std::uint32_t>(inst.num_inputs() +
                                                     inst.num_outputs());
    }
    net_slot.resize(net_start.back());
    cell_net.resize(cell_start.back());
    for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
      const netlist::Net& net = nl.net(NetId(n));
      std::uint32_t* slot = &net_slot[net_start[n]];
      if (net.driver.valid()) *slot++ = net.driver.inst.value;
      if (anchor_slot[n] != kNoAnchor) *slot++ = anchor_slot[n];
      for (const netlist::PinRef& s : net.sinks) *slot++ = s.inst.value;
    }
    for (std::uint32_t i = 0; i < n_cells; ++i) {
      const netlist::Instance& inst = nl.instances()[i];
      std::uint32_t* net = &cell_net[cell_start[i]];
      for (int p = 0; p < inst.num_inputs(); ++p)
        *net++ = static_cast<std::uint32_t>(inst.in[p].index());
      for (int o = 0; o < inst.num_outputs(); ++o)
        *net++ = static_cast<std::uint32_t>(inst.out[o].index());
    }
  }
};

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

std::span<const std::uint32_t> RankOrder(std::span<const double> keys,
                                         RankScratch* scratch) {
  // A 16-bit linear key, monotone in the value, sorted by two stable
  // 8-bit LSD counting passes; then a stable insertion pass on the
  // full values orders keys that share a bucket. Every step is
  // stable, so equal values stay in index order throughout.
  const std::size_t n = keys.size();
  ADQ_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint32_t>& tmp = scratch->tmp;
  std::vector<double>& tmp_value = scratch->tmp_value;
  std::vector<std::uint32_t>& order = scratch->order;
  std::vector<double>& value = scratch->value;
  tmp.resize(n);
  tmp_value.resize(n);
  order.resize(n);
  value.resize(n);

  // The maximum, in four independent chains (max is exact, so the
  // fold order does not matter).
  double hi4[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    for (std::size_t l = 0; l < 4; ++l) hi4[l] = std::max(hi4[l], keys[i + l]);
  for (; i < n; ++i) hi4[0] = std::max(hi4[0], keys[i]);
  const double hi = std::max(std::max(hi4[0], hi4[1]), std::max(hi4[2], hi4[3]));
  // v * scale <= hi * (65535 / hi) < 65536 for every key v. Flooring hi
  // keeps the scale finite (and 0 * scale = 0) when all keys are tiny
  // or zero; -0.0 lands in bucket 0 with +0.0.
  const double scale = 65535.0 / std::max(hi, 1e-300);
  auto key_of = [&](double v) {
    ADQ_DCHECK(v >= 0.0);
    return static_cast<std::uint16_t>(v * scale);
  };

  // Each pass carries the values along, so no pass gathers.
  std::uint32_t lo_count[256] = {}, hi_count[256] = {};
  for (const double v : keys) {
    const std::uint16_t key = key_of(v);
    ++lo_count[key & 0xffu];
    ++hi_count[key >> 8];
  }
  for (std::uint32_t b = 0, lo_sum = 0, hi_sum = 0; b < 256; ++b) {
    lo_sum += std::exchange(lo_count[b], lo_sum);
    hi_sum += std::exchange(hi_count[b], hi_sum);
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t pos = lo_count[key_of(keys[k]) & 0xffu]++;
    tmp[pos] = static_cast<std::uint32_t>(k);
    tmp_value[pos] = keys[k];
  }
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t pos = hi_count[key_of(tmp_value[j]) >> 8]++;
    order[pos] = tmp[j];
    value[pos] = tmp_value[j];
  }

  // Clustered keys (many distinct values in one bucket) would make
  // the insertion pass quadratic; past a linear shift budget,
  // std::stable_sort finishes instead. Equal values are still in
  // index order at that point, so its output is the same.
  static obs::Counter& fallbacks = obs::GetCounter("place.rank_fallbacks");
  const std::size_t budget = 8 * n;
  std::size_t shifts = 0;
  for (std::size_t k = 1; k < n; ++k) {
    const std::uint32_t v = order[k];
    const double kv = value[k];
    std::size_t j = k;
    for (; j > 0 && value[j - 1] > kv; --j) {
      order[j] = order[j - 1];
      value[j] = value[j - 1];
    }
    order[j] = v;
    value[j] = kv;
    shifts += k - j;
    if (shifts > budget) {
      fallbacks.Add();
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return keys[a] < keys[b];
                       });
      break;
    }
  }
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
      // The cheapest feasible row, lowest row on ties (the result of
      // an ascending scan of every row). |ry - ty| bounds a row's cost
      // from below and grows away from ty on either side, so each side
      // stops at the first row where it exceeds the best cost so far.
      const auto row_y = [&](int r) { return y_lo + (r + 0.5) * row_height_um; };
      const auto try_row = [&](int r) {  // false: the side is done
        const double ry = row_y(r);
        if (std::abs(ry - ty) > best_cost) return false;
        double cand = std::max(cursor[static_cast<std::size_t>(r)], desired);
        // Preferred slot past the row end: fall back to the leftmost
        // free slot of this row.
        if (cand + w > x_hi + 1e-9)
          cand = cursor[static_cast<std::size_t>(r)];
        if (cand + w > x_hi + 1e-9) return true;  // row genuinely full
        const double cost = std::abs(cand + w / 2 - tx) + std::abs(ry - ty);
        if (cost < best_cost || (cost == best_cost && r < best_row)) {
          best_cost = cost;
          best_row = r;
          best_x = cand;
        }
        return true;
      };
      // First row with ry >= ty: rows from it upward, then the rest
      // downward.
      int split = static_cast<int>(std::clamp(
          std::ceil((ty - y_lo) / row_height_um - 0.5), 0.0,
          static_cast<double>(rows)));
      while (split > 0 && row_y(split - 1) >= ty) --split;
      while (split < rows && row_y(split) < ty) ++split;
      for (int r = split; r < rows && try_row(r); ++r) {
      }
      for (int r = split - 1; r >= 0 && try_row(r); --r) {
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
  pl.fp = MakeFloorplan(cell_area, kUtilization,
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
  const PinTape tape(nl, n_cells);

  // Two position buffers (cells, then the anchored ports): a centroid
  // pass reads one and writes the other. Positions are frozen within
  // a pass, so each net's centre is computed once per pass.
  std::vector<Point> cur(n_cells + tape.num_anchors), nxt(cur.size());
  std::copy(pl.pos.begin(), pl.pos.end(), cur.begin());
  for (std::uint32_t n = 0; n < n_nets; ++n) {
    const std::uint32_t a = tape.anchor_slot[n];
    if (a != PinTape::kNoAnchor) cur[a] = nxt[a] = pl.port_anchor[n];
  }
  std::vector<Point> centre(n_nets);
  auto centroid_pass = [&](double damp) {
    for (std::uint32_t n = 0; n < n_nets; ++n) {
      // Min/max in NetBox's pin order: signed zeros make it
      // order-sensitive.
      BBox box;
      for (std::uint32_t k = tape.net_start[n]; k < tape.net_start[n + 1]; ++k)
        box.Add(cur[tape.net_slot[k]]);
      centre[n] = box.center();
    }
    for (std::uint32_t i = 0; i < n_cells; ++i) {
      double sx = 0.0, sy = 0.0;
      const std::uint32_t lo = tape.cell_start[i], hi = tape.cell_start[i + 1];
      for (std::uint32_t k = lo; k < hi; ++k) {
        const std::uint32_t net = tape.cell_net[k];
        // The net holds this cell, so its box is never empty.
        ADQ_DCHECK(tape.net_start[net] < tape.net_start[net + 1]);
        sx += centre[net].x;
        sy += centre[net].y;
      }
      const int pins = static_cast<int>(hi - lo);
      const double gx = sx / pins, gy = sy / pins;
      // Blend the wirelength centroid with the bit-significance
      // anchor in y (structured-datapath placement).
      const double ay = sig[i] * pl.fp.height_um;
      const double ty = 0.65 * gy + 0.35 * ay;
      nxt[i].x = std::clamp(cur[i].x + damp * (gx - cur[i].x), 0.0,
                            pl.fp.width_um);
      nxt[i].y = std::clamp(cur[i].y + damp * (ty - cur[i].y), 0.0,
                            pl.fp.height_um);
    }
    cur.swap(nxt);
  };

  // Rank spreading: each coordinate slides a fraction beta toward its
  // uniform-density quantile position (order preserved per axis). The
  // axes touch disjoint coordinates, so they are ranked and moved one
  // after the other through one set of buffers.
  std::vector<double> axis(n_cells);
  RankScratch rank;
  auto spread_axis = [&](double Point::*coord, double extent, double beta) {
    for (std::size_t i = 0; i < n_cells; ++i) axis[i] = cur[i].*coord;
    const std::span<const std::uint32_t> by_rank = RankOrder(axis, &rank);
    for (std::size_t r = 0; r < n_cells; ++r) {
      const double frac =
          (static_cast<double>(r) + 0.5) / static_cast<double>(n_cells);
      double& c = cur[by_rank[r]].*coord;
      c += beta * (frac * extent - c);
    }
  };
  auto spread_pass = [&](double beta) {
    spread_axis(&Point::x, pl.fp.width_um, beta);
    spread_axis(&Point::y, pl.fp.height_um, beta);
  };

  for (int it = 0; it < opt.centroid_iterations; ++it) {
    centroid_pass(0.8);
    centroid_pass(0.8);
    // Spreading weakens over time: early iterations prioritize
    // density, late ones let wirelength win.
    spread_pass(0.7 * (1.0 - 0.7 * it / std::max(1, opt.centroid_iterations)));
  }
  centroid_pass(0.5);
  std::copy_n(cur.begin(), n_cells, pl.pos.begin());

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
