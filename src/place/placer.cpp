#include "place/placer.h"

#include "netlist/topo.h"
#include "obs/metrics.h"
#include "place/wirelength.h"
#include "util/simd.h"

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

constexpr std::uint32_t kNoAnchor = std::numeric_limits<std::uint32_t>::max();

/// The pin tape of `nl`. The anchored ports take the position slots
/// after the cells in net order: `anchor_slot[n]`, or kNoAnchor.
PinTape NetlistPinTape(const Netlist& nl,
                       std::vector<std::uint32_t>* anchor_slot,
                       std::uint32_t* num_anchors) {
  const auto n_cells = static_cast<std::uint32_t>(nl.num_instances());
  PinTape t;
  anchor_slot->assign(nl.num_nets(), kNoAnchor);
  *num_anchors = 0;
  t.net_start.push_back(0);
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(NetId(n));
    if (net.driver.valid()) t.net_slot.push_back(net.driver.inst.value);
    if (net.is_primary_input || net.is_primary_output) {
      (*anchor_slot)[n] = n_cells + (*num_anchors)++;
      t.net_slot.push_back((*anchor_slot)[n]);
    }
    for (const netlist::PinRef& s : net.sinks)
      t.net_slot.push_back(s.inst.value);
    t.net_start.push_back(static_cast<std::uint32_t>(t.net_slot.size()));
  }
  t.cell_start.push_back(0);
  for (const netlist::Instance& inst : nl.instances()) {
    for (int p = 0; p < inst.num_inputs(); ++p)
      t.cell_net.push_back(static_cast<std::uint32_t>(inst.in[p].index()));
    for (int o = 0; o < inst.num_outputs(); ++o)
      t.cell_net.push_back(static_cast<std::uint32_t>(inst.out[o].index()));
    t.cell_start.push_back(static_cast<std::uint32_t>(t.cell_net.size()));
  }
  t.Group();
  return t;
}

using simd::F64;
/// A lane kernel takes kPairs nets or cells as (x, y) lane pairs: one
/// op serves both coordinates, and a Point leaves in one 16-byte store.
constexpr std::uint32_t kPairs = F64::kWidth / 2;

/// Lanes 2k, 2k + 1 = point(k).x, point(k).y.
template <typename PointOf>
F64 GatherPairs(const PointOf& point) {
  return F64::Generate([&](int l) {
    const Point& p = point(l / 2);
    return l % 2 ? p.y : p.x;
  });
}

/// out[ids[k]] = lanes 2k, 2k + 1.
void ScatterPairs(const std::uint32_t* ids, F64 v, Point* out) {
  for (std::uint32_t k = 0; k < kPairs; ++k)
    out[ids[k]] = Point{v[2 * k], v[2 * k + 1]};
}

/// The centroid pass on kPairs nets or cells of one degree, in the
/// scalar pass's expressions and order: simd::Min/Max are std::min/max,
/// and Min(Max(v, 0), e) is std::clamp(v, 0, e), NaN and -0.0 included.
struct CentroidKernels {
  const PinTape& t;
  const Point* cur;
  const double* anchor_y;
  Point* centre;
  Point* nxt;
  double damp, width, height;

  /// Bounding-box centres of nets of `deg` slots. The min/max runs in
  /// NetBox's pin order: signed zeros make it order-sensitive.
  void Nets(const std::uint32_t* ids, std::uint32_t deg) const {
    const std::uint32_t* slot[kPairs];
    for (std::uint32_t k = 0; k < kPairs; ++k)
      slot[k] = t.net_slot.data() + t.net_start[ids[k]];
    F64 lo = F64::Broadcast(std::numeric_limits<double>::infinity());
    F64 hi = F64::Broadcast(-std::numeric_limits<double>::infinity());
    for (std::uint32_t s = 0; s < deg; ++s) {
      const F64 p =
          GatherPairs([&](int k) -> const Point& { return cur[slot[k][s]]; });
      lo = simd::Min(lo, p);
      hi = simd::Max(hi, p);
    }
    ScatterPairs(ids, simd::Div(simd::Add(lo, hi), F64::Broadcast(2.0)),
                 centre);
  }
  /// Moves cells toward the mean centre of their nets (summed in pin
  /// order from 0.0), in y blended with the bit-significance anchor.
  void Cells(const std::uint32_t* ids, std::uint32_t pins) const {
    const std::uint32_t* net[kPairs];
    for (std::uint32_t k = 0; k < kPairs; ++k)
      net[k] = t.cell_net.data() + t.cell_start[ids[k]];
    F64 sum = F64::Broadcast(0.0);
    for (std::uint32_t p = 0; p < pins; ++p)
      sum = simd::Add(sum, GatherPairs([&](int k) -> const Point& {
                        return centre[net[k][p]];
                      }));
    const F64 g = simd::Div(sum, F64::Broadcast(pins));
    const F64 ay = F64::Generate([&](int l) { return anchor_y[ids[l / 2]]; });
    const F64 ty = simd::Add(simd::Mul(F64::Broadcast(0.65), g),
                             simd::Mul(F64::Broadcast(0.35), ay));
    // The target: gx in the x lanes, the anchor blend in the y lanes.
    const F64 target =
        F64::Generate([&](int l) { return l % 2 ? ty[l] : g[l]; });
    const F64 extent =
        F64::Generate([&](int l) { return l % 2 ? height : width; });
    const F64 c =
        GatherPairs([&](int k) -> const Point& { return cur[ids[k]]; });
    const F64 moved =
        simd::Add(c, simd::Mul(F64::Broadcast(damp), simd::Sub(target, c)));
    ScatterPairs(ids, simd::Min(simd::Max(moved, F64::Broadcast(0.0)), extent),
                 nxt);
  }
};

}  // namespace

void PinTape::Group() {
  // The ids by degree, each group padded to whole lane sets with its
  // last id: a repeated lane rewrites the same value.
  const auto by_degree = [](const std::vector<std::uint32_t>& start,
                            std::vector<std::uint32_t>* group,
                            std::vector<std::uint32_t>* ids) {
    std::vector<std::vector<std::uint32_t>> of_degree;
    for (std::uint32_t i = 0; i + 1 < start.size(); ++i) {
      const std::uint32_t d = start[i + 1] - start[i];
      if (d >= of_degree.size()) of_degree.resize(d + 1);
      of_degree[d].push_back(i);
    }
    group->assign(1, 0);
    ids->clear();
    for (std::vector<std::uint32_t>& g : of_degree) {
      if (!g.empty())
        g.resize((g.size() + kPairs - 1) / kPairs * kPairs, g.back());
      ids->insert(ids->end(), g.begin(), g.end());
      group->push_back(static_cast<std::uint32_t>(ids->size()));
    }
  };
  by_degree(net_start, &net_group, &net_ids);
  by_degree(cell_start, &cell_group, &cell_ids);
  // A cell in no group would keep a stale position in the pass output.
  ADQ_CHECK(cell_ids.size() + 1 >= cell_start.size());
}

void CentroidPass(const PinTape& tape, std::span<const Point> cur,
                  std::span<const double> anchor_y, double damp,
                  double width, double height, std::span<Point> centre,
                  std::span<Point> nxt) {
  const CentroidKernels k{tape,         cur.data(), anchor_y.data(),
                          centre.data(), nxt.data(), damp,
                          width,         height};
  // Every net centre first: the cells read them.
  for (std::uint32_t d = 0; d + 1 < tape.net_group.size(); ++d)
    for (auto i = tape.net_group[d]; i < tape.net_group[d + 1]; i += kPairs)
      k.Nets(&tape.net_ids[i], d);
  for (std::uint32_t d = 0; d + 1 < tape.cell_group.size(); ++d)
    for (auto i = tape.cell_group[d]; i < tape.cell_group[d + 1]; i += kPairs)
      k.Cells(&tape.cell_ids[i], d);
}

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
  // A 16-bit linear key, monotone in the value, packed above the index
  // into one word and sorted by two stable 8-bit LSD counting passes;
  // then a stable insertion pass on the full values orders keys that
  // share a bucket. Every step is stable, so equal values stay in
  // index order throughout.
  const std::size_t n = keys.size();
  ADQ_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint64_t>& packed = scratch->packed;
  std::vector<std::uint64_t>& tmp = scratch->tmp;
  std::vector<std::uint32_t>& order = scratch->order;
  packed.resize(n);
  tmp.resize(n);
  order.resize(n);

  // The maximum, lane-parallel (max is exact and keys are not NaN, so
  // the fold order does not matter; -0.0 never replaces the +0.0 start).
  F64 hi_lanes = F64::Broadcast(0.0);
  std::size_t i = 0;
  for (; i + F64::kWidth <= n; i += F64::kWidth)
    hi_lanes = simd::Max(hi_lanes, F64::Load(&keys[i]));
  double hi = 0.0;
  for (int l = 0; l < F64::kWidth; ++l) hi = std::max(hi, hi_lanes[l]);
  for (; i < n; ++i) hi = std::max(hi, keys[i]);
  // v * scale <= hi * (65535 / hi) < 65536 for every key v. Flooring hi
  // keeps the scale finite (and 0 * scale = 0) when all keys are tiny
  // or zero; -0.0 lands in bucket 0 with +0.0.
  const double scale = 65535.0 / std::max(hi, 1e-300);

  std::uint32_t lo_count[256] = {}, hi_count[256] = {};
  for (std::size_t k = 0; k < n; ++k) {
    ADQ_DCHECK(keys[k] >= 0.0);
    const auto key = static_cast<std::uint16_t>(keys[k] * scale);
    ++lo_count[key & 0xffu];
    ++hi_count[key >> 8];
    packed[k] = std::uint64_t{key} << 32 | k;
  }
  for (std::uint32_t b = 0, lo_sum = 0, hi_sum = 0; b < 256; ++b) {
    lo_sum += std::exchange(lo_count[b], lo_sum);
    hi_sum += std::exchange(hi_count[b], hi_sum);
  }
  for (const std::uint64_t e : packed) tmp[lo_count[(e >> 32) & 0xffu]++] = e;
  for (const std::uint64_t e : tmp) packed[hi_count[e >> 40]++] = e;

  // A smaller 16-bit key means a smaller value, so a key moves only
  // within its run of equal 16-bit keys; a run's first key stays put.
  // Clustered keys (many distinct values in one bucket) would make
  // the insertion pass quadratic; past a linear shift budget,
  // std::stable_sort finishes instead. Equal values are still in
  // index order at that point, so its output is the same.
  static obs::Counter& fallbacks = obs::GetCounter("place.rank_fallbacks");
  const auto value = [&](std::uint64_t e) {
    return keys[static_cast<std::uint32_t>(e)];
  };
  const std::size_t budget = 8 * n;
  std::size_t shifts = 0;
  bool fell_back = false;
  for (std::size_t k = 1; k < n && !fell_back; ++k) {
    const std::uint64_t e = packed[k];
    if ((packed[k - 1] ^ e) >> 32) continue;
    const double kv = value(e);
    std::size_t j = k;
    for (; j > 0 && value(packed[j - 1]) > kv; --j) packed[j] = packed[j - 1];
    packed[j] = e;
    shifts += k - j;
    fell_back = shifts > budget;
  }
  for (std::size_t k = 0; k < n; ++k)
    order[k] = static_cast<std::uint32_t>(packed[k]);
  if (fell_back) {
    fallbacks.Add();
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return keys[a] < keys[b];
                     });
  }
  return order;
}

bool LegalizeRows(const Netlist& nl, const tech::CellLibrary& lib,
                  std::span<const std::uint32_t> cells, double x_lo,
                  double x_hi, double y_lo, double y_hi,
                  double row_height_um, std::vector<Point>* pos) {
  ADQ_CHECK(pos != nullptr && pos->size() == nl.num_instances());
  const std::vector<Point>& target = *pos;
  // Epsilon guards against losing a row to floating-point (tile
  // heights are exact row multiples by construction).
  const int rows = std::max(
      1, static_cast<int>(std::floor((y_hi - y_lo) / row_height_um + 1e-6)));

  // Cells in target-x order, ties by id; width[j] is order[j]'s.
  std::vector<std::uint32_t> order(cells.begin(), cells.end());
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return target[a].x < target[b].x || (target[a].x == target[b].x && a < b);
  });
  std::vector<double> width(order.size());
  for (std::size_t j = 0; j < order.size(); ++j)
    width[j] = CellWidth(nl, lib, order[j]);

  // An Abacus cluster: e abutted cells from left edge x, q the sum of
  // their target left edges less their offsets in the cluster, w
  // their width; q / e is the left edge of least squared displacement.
  struct Cluster {
    double x, e, q, w;
  };
  const auto settle = [&](Cluster& c) {
    c.x = std::max(x_lo, std::min(c.q / c.e, x_hi - c.w));
  };
  // Per row: its cells (indices into order) and their cluster stack.
  struct Row {
    std::vector<std::uint32_t> cells;
    std::vector<Cluster> clusters;
    double used = 0.0;
  };
  std::vector<Row> row(static_cast<std::size_t>(rows));
  const auto row_y = [&](int r) { return y_lo + (r + 0.5) * row_height_um; };

  for (std::size_t j = 0; j < order.size(); ++j) {
    const double w = width[j];
    const double tx = target[order[j]].x;
    const double ty = target[order[j]].y;
    const double desired = std::min(std::max(tx - w / 2, x_lo), x_hi - w);

    int best_row = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    Cluster best{};
    std::size_t best_from = 0;
    // The cheapest row that can take the cell, lowest row on ties
    // (the result of an ascending scan of every row). |ry - ty|
    // bounds a row's cost from below and grows away from ty on
    // either side, so each side stops at the first row where it
    // exceeds the best cost so far.
    const auto try_row = [&](int r) {  // false: the side is done
      const double ry = row_y(r);
      if (std::abs(ry - ty) > best_cost) return false;
      const Row& rw = row[static_cast<std::size_t>(r)];
      if (rw.used + w > x_hi - x_lo + 1e-9) return true;  // row full
      // Trial insert: the cell as a cluster of its own, merged back
      // over the row's tail clusters while they overlap it. The stack
      // is only read; clusters [k, end) are the ones merged.
      Cluster c{0.0, 1.0, desired, w};
      std::size_t k = rw.clusters.size();
      for (settle(c); k > 0 && rw.clusters[k - 1].x + rw.clusters[k - 1].w > c.x;
           settle(c)) {
        const Cluster& p = rw.clusters[--k];
        c = Cluster{0.0, p.e + c.e, p.q + c.q - c.e * p.w, p.w + c.w};
      }
      const double cost = std::abs(c.x + c.w - w / 2 - tx) + std::abs(ry - ty);
      if (cost < best_cost || (cost == best_cost && r < best_row)) {
        best_cost = cost;
        best_row = r;
        best = c;
        best_from = k;
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
    Row& rw = row[static_cast<std::size_t>(best_row)];
    rw.clusters.resize(best_from);
    rw.clusters.push_back(best);
    rw.cells.push_back(static_cast<std::uint32_t>(j));
    rw.used += w;
  }

  for (int r = 0; r < rows; ++r) {
    std::size_t m = 0;  // a row's clusters hold its cells in order
    for (const Cluster& c : row[static_cast<std::size_t>(r)].clusters) {
      double x = c.x;
      for (const std::size_t end = m + static_cast<std::size_t>(c.e); m < end;
           ++m) {
        const std::uint32_t j = row[static_cast<std::size_t>(r)].cells[m];
        (*pos)[order[j]] = Point{x + width[j] / 2, row_y(r)};
        x += width[j];
      }
    }
  }
  return true;
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
  std::vector<std::uint32_t> anchor_slot;
  std::uint32_t num_anchors = 0;
  const PinTape tape = NetlistPinTape(nl, &anchor_slot, &num_anchors);

  // Two position buffers (cells, then the anchored ports): a centroid
  // pass reads one and writes the other. Positions are frozen within
  // a pass, so each net's centre is computed once per pass.
  std::vector<Point> cur(n_cells + num_anchors), nxt(cur.size());
  std::copy(pl.pos.begin(), pl.pos.end(), cur.begin());
  for (std::uint32_t n = 0; n < n_nets; ++n) {
    const std::uint32_t a = anchor_slot[n];
    if (a != kNoAnchor) cur[a] = nxt[a] = pl.port_anchor[n];
  }
  std::vector<double> anchor_y(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i)
    anchor_y[i] = sig[i] * pl.fp.height_um;
  std::vector<Point> centre(n_nets);
  auto centroid_pass = [&](double damp) {
    CentroidPass(tape, cur, anchor_y, damp, pl.fp.width_um, pl.fp.height_um,
                 centre, nxt);
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

  std::vector<std::uint32_t> all(n_cells);
  std::iota(all.begin(), all.end(), 0u);
  ADQ_CHECK_MSG(LegalizeRows(nl, lib, all, 0.0, pl.fp.width_um, 0.0,
                             pl.fp.height_um, pl.fp.row_height_um, &pl.pos),
                "legalization overflow: a cell fits no row of the die");
  return pl;
}

double CellWidth(const Netlist& nl, const tech::CellLibrary& lib,
                 std::uint32_t i) {
  const netlist::Instance& inst = nl.instances()[i];
  return lib.Variant(inst.kind, inst.drive).width_um;
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
