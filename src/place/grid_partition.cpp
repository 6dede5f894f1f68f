#include "place/grid_partition.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace adq::place {

using netlist::Netlist;

namespace {

/// The neighbour of tile `dom` (left, right, below, above; the first
/// on ties) with the most spare width cap - used; -1 if it has none.
int RoomiestNeighbour(const GridConfig& cfg, int dom,
                      const std::vector<double>& cap,
                      const std::vector<double>& used) {
  const int tx = dom % cfg.nx, ty = dom / cfg.nx;
  const int nbs[] = {tx > 0 ? dom - 1 : -1, tx + 1 < cfg.nx ? dom + 1 : -1,
                     ty > 0 ? dom - cfg.nx : -1,
                     ty + 1 < cfg.ny ? dom + cfg.nx : -1};
  const auto spare = [&](int d) {
    return cap[static_cast<std::size_t>(d)] - used[static_cast<std::size_t>(d)];
  };
  int best = -1;
  for (const int nb : nbs)
    if (nb >= 0 && (best < 0 || spare(nb) > spare(best))) best = nb;
  return best;
}

/// Sorts `members` by distance from `to`, closest first, ties by id.
void SortClosestTo(std::vector<std::uint32_t>* members,
                   const std::vector<Point>& pos, Point to) {
  const auto d2 = [&](std::uint32_t k) {
    const double dx = pos[k].x - to.x;
    const double dy = pos[k].y - to.y;
    return dx * dx + dy * dy;
  };
  std::sort(members->begin(), members->end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return d2(a) < d2(b) || (d2(a) == d2(b) && a < b);
            });
}

std::vector<std::uint32_t> MembersOf(const std::vector<int>& domain_of,
                                     int dom) {
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < domain_of.size(); ++i)
    if (domain_of[i] == dom) members.push_back(i);
  return members;
}

/// Moves cells out of over-capacity tiles into the adjacent tile with
/// the most spare width capacity, preferring the cells closest to the
/// receiving tile. Capacities are in um of row slots per tile.
void RebalanceDomains(const Netlist& nl, const tech::CellLibrary& lib,
                      const Placement& pl, GridPartition& part,
                      double tile_w, const std::vector<double>& y_cut,
                      const std::vector<int>& band_rows) {
  const GridConfig cfg = part.cfg;
  const int ndom = cfg.num_domains();
  // The 0.85 factor leaves headroom both for displacement quality and
  // for row-end fragmentation in small tiles (a row's leftover gap
  // can be too narrow for the next cell even when total area fits).
  std::vector<double> cap(static_cast<std::size_t>(ndom), 0.0);
  for (int ty = 0; ty < cfg.ny; ++ty)
    for (int tx = 0; tx < cfg.nx; ++tx)
      cap[static_cast<std::size_t>(ty * cfg.nx + tx)] =
          0.85 * tile_w * band_rows[static_cast<std::size_t>(ty)];

  std::vector<double> used(static_cast<std::size_t>(ndom), 0.0);
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
    used[static_cast<std::size_t>(part.domain_of[i])] += CellWidth(nl, lib, i);

  for (int round = 0; round < 4 * ndom; ++round) {
    int worst = -1;
    double worst_over = 0.0;
    for (int d = 0; d < ndom; ++d) {
      const double over = used[(std::size_t)d] - cap[(std::size_t)d];
      if (over > worst_over) {
        worst_over = over;
        worst = d;
      }
    }
    if (worst < 0) break;
    const int recv = RoomiestNeighbour(cfg, worst, cap, used);
    const double best_spare =
        recv < 0 ? 0.0 : cap[(std::size_t)recv] - used[(std::size_t)recv];
    ADQ_CHECK_MSG(best_spare > 0.0,
                  "no neighboring Vth domain has spare capacity");
    // Move the cells of `worst` closest to the receiver's centre (in
    // original-die coordinates) until the overflow (or the receiver's
    // spare) is consumed.
    const int ty = recv / cfg.nx;
    const Point rc{(recv % cfg.nx + 0.5) * tile_w,
                   (y_cut[static_cast<std::size_t>(ty)] +
                    y_cut[static_cast<std::size_t>(ty) + 1]) /
                       2.0};
    std::vector<std::uint32_t> members = MembersOf(part.domain_of, worst);
    SortClosestTo(&members, pl.pos, rc);
    double to_move = std::min(worst_over, best_spare);
    for (const std::uint32_t i : members) {
      if (to_move <= 0.0) break;
      const double w = CellWidth(nl, lib, i);
      part.domain_of[i] = recv;
      used[(std::size_t)worst] -= w;
      used[(std::size_t)recv] += w;
      to_move -= w;
    }
  }
  // Also catches an exit through the round cap with overflow left.
  for (int d = 0; d < ndom; ++d)
    ADQ_CHECK_MSG(used[(std::size_t)d] <= cap[(std::size_t)d] * 1.1,
                  "domain " << d << " still over capacity after rebalance");
}

/// The worklist that legalizes a partitioned placement: takes the
/// lowest dirty tile and legalizes its cells in `*pos` into its rows.
/// While the legalizer cannot seat them, the tile sheds one member at
/// a time, the one closest to the centre of its neighbour with the
/// most spare row width, into that neighbour (updating
/// part->domain_of), which becomes dirty. Only sheds make a tile
/// dirty, so the worklist ends once the sheds do; more sheds than
/// cells would mean cells circling between tiles, and fail a check.
/// Returns the number of tile legalizations.
int LegalizeTiles(const Netlist& nl, const tech::CellLibrary& lib,
                  GridPartition* part, std::vector<Point>* pos,
                  std::vector<char> dirty) {
  const int ndom = part->num_domains();
  const double rh = part->original.row_height_um;
  std::vector<double> cap(static_cast<std::size_t>(ndom));
  std::vector<double> used(static_cast<std::size_t>(ndom), 0.0);
  for (int d = 0; d < ndom; ++d) {
    const GridPartition::Tile& t = part->tiles[static_cast<std::size_t>(d)];
    cap[static_cast<std::size_t>(d)] =
        std::floor((t.y_hi - t.y_lo) / rh + 1e-6) * (t.x_hi - t.x_lo);
  }
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
    used[static_cast<std::size_t>(part->domain_of[i])] += CellWidth(nl, lib, i);

  int legalized = 0;
  std::size_t sheds = 0;
  for (auto it = std::find(dirty.begin(), dirty.end(), 1); it != dirty.end();
       it = std::find(dirty.begin(), dirty.end(), 1)) {
    *it = 0;
    const int dom = static_cast<int>(it - dirty.begin());
    const GridPartition::Tile& t = part->tiles[static_cast<std::size_t>(dom)];
    std::vector<std::uint32_t> members = MembersOf(part->domain_of, dom);
    while (!LegalizeRows(nl, lib, members, t.x_lo, t.x_hi, t.y_lo, t.y_hi,
                         rh, pos)) {
      const int recv = RoomiestNeighbour(part->cfg, dom, cap, used);
      ADQ_CHECK_MSG(recv >= 0, "legalization overflow: tile "
                                   << dom << " has a cell that fits no row"
                                   << " and no neighbour to shed it to");
      ++sheds;
      ADQ_CHECK_MSG(sheds <= nl.num_instances(),
                    "tile shedding does not converge");
      const GridPartition::Tile& rt =
          part->tiles[static_cast<std::size_t>(recv)];
      SortClosestTo(&members, *pos,
                    Point{(rt.x_lo + rt.x_hi) / 2.0, (rt.y_lo + rt.y_hi) / 2.0});
      const std::uint32_t c = members.front();
      members.erase(members.begin());
      const double w = CellWidth(nl, lib, c);
      part->domain_of[c] = recv;
      used[static_cast<std::size_t>(dom)] -= w;
      used[static_cast<std::size_t>(recv)] += w;
      dirty[static_cast<std::size_t>(recv)] = 1;
    }
    ++legalized;
  }
  return legalized;
}

}  // namespace

GridPartition MakePartition(const Netlist& nl, const tech::CellLibrary& lib,
                            const Placement& pl, GridConfig cfg,
                            double guardband_um) {
  ADQ_CHECK(cfg.nx >= 1 && cfg.ny >= 1);
  ADQ_CHECK(guardband_um >= 0.0);
  // Placement rows distributed as evenly as possible over the grid
  // rows (the lower rows take the remainder).
  const int rows = pl.fp.num_rows();
  ADQ_CHECK_MSG(rows >= cfg.ny, "more domain rows than placement rows");
  std::vector<int> band_rows(static_cast<std::size_t>(cfg.ny),
                             rows / cfg.ny);
  for (int r = 0; r < rows % cfg.ny; ++r)
    ++band_rows[static_cast<std::size_t>(r)];

  GridPartition part;
  part.cfg = cfg;
  part.guardband_um = guardband_um;
  part.original = pl.fp;

  const double rh = pl.fp.row_height_um;
  // Horizontal guardbands cut placement rows, so snap them up to a
  // whole number of rows (3.5 um -> 3 rows = 3.6 um).
  const double gb_y = std::ceil(guardband_um / rh) * rh;
  const double gb_x = guardband_um;

  part.enlarged = pl.fp;
  part.enlarged.width_um += gb_x * (cfg.nx - 1);
  part.enlarged.height_um += gb_y * (cfg.ny - 1);

  const double tile_w = pl.fp.width_um / cfg.nx;

  // Original-die cut lines (for assigning cells to tiles).
  std::vector<double> y_cut(static_cast<std::size_t>(cfg.ny) + 1, 0.0);
  for (int b = 0; b < cfg.ny; ++b)
    y_cut[static_cast<std::size_t>(b) + 1] =
        y_cut[static_cast<std::size_t>(b)] +
        band_rows[static_cast<std::size_t>(b)] * rh;

  // Tile rectangles in the enlarged die.
  part.tiles.resize(static_cast<std::size_t>(cfg.num_domains()));
  for (int ty = 0; ty < cfg.ny; ++ty) {
    for (int tx = 0; tx < cfg.nx; ++tx) {
      GridPartition::Tile t;
      t.x_lo = tx * (tile_w + gb_x);
      t.x_hi = t.x_lo + tile_w;
      t.y_lo = y_cut[static_cast<std::size_t>(ty)] + ty * gb_y;
      t.y_hi = t.y_lo + band_rows[static_cast<std::size_t>(ty)] * rh;
      part.tiles[static_cast<std::size_t>(ty * cfg.nx + tx)] = t;
    }
  }

  // Assign each placed cell to the original-die tile containing it.
  part.domain_of.resize(nl.num_instances());
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const Point& p = pl.pos[i];
    int tx = std::clamp(static_cast<int>(p.x / tile_w), 0, cfg.nx - 1);
    int ty = 0;
    while (ty + 1 < cfg.ny && p.y >= y_cut[static_cast<std::size_t>(ty) + 1])
      ++ty;
    part.domain_of[i] = ty * cfg.nx + tx;
  }
  RebalanceDomains(nl, lib, pl, part, tile_w, y_cut, band_rows);
  return part;
}

Placement ApplyPartition(const Netlist& nl, const tech::CellLibrary& lib,
                         const Placement& pl, GridPartition* part) {
  ADQ_CHECK(part != nullptr);
  Placement out;
  out.fp = part->enlarged;

  // Port anchors re-spread along the enlarged periphery, preserving
  // their relative order.
  out.port_anchor.resize(nl.num_nets());
  const double sx = part->enlarged.width_um / part->original.width_um;
  const double sy = part->enlarged.height_um / part->original.height_um;
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
    out.port_anchor[n] =
        Point{pl.port_anchor[n].x * sx, pl.port_anchor[n].y * sy};
  }

  // Target position: original location shifted by the tile's
  // guardband offset (x by column index, y by band index).
  const double tile_w = part->original.width_um / part->cfg.nx;
  const double rh = part->original.row_height_um;
  const double gb_y = std::ceil(part->guardband_um / rh) * rh;
  out.pos.resize(nl.num_instances());
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const int dom = part->domain_of[i];
    const int tx = dom % part->cfg.nx;
    const int ty = dom / part->cfg.nx;
    const GridPartition::Tile& tile =
        part->tiles[static_cast<std::size_t>(dom)];
    out.pos[i].x = pl.pos[i].x - tx * tile_w + tile.x_lo;
    out.pos[i].y = pl.pos[i].y + ty * gb_y;
  }

  // Legalize every tile; a tile that cannot seat its cells sheds into
  // its neighbours.
  const std::size_t ndom = static_cast<std::size_t>(part->num_domains());
  LegalizeTiles(nl, lib, part, &out.pos, std::vector<char>(ndom, 1));
  return out;
}

int RelegalizeViolations(const Netlist& nl, const tech::CellLibrary& lib,
                         GridPartition* part, Placement* pl) {
  ADQ_CHECK(part != nullptr && pl != nullptr);
  ADQ_CHECK(pl->pos.size() == nl.num_instances());
  ADQ_CHECK(part->domain_of.size() == nl.num_instances());
  const double rh = part->original.row_height_um;
  constexpr double kEps = 1e-9;
  std::vector<char> dirty(static_cast<std::size_t>(part->num_domains()), 0);
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const int dom = part->domain_of[i];
    const GridPartition::Tile& t = part->tiles[static_cast<std::size_t>(dom)];
    const double hw = CellWidth(nl, lib, i) / 2.0;
    const Point& p = pl->pos[i];
    if (p.x < t.x_lo + hw - kEps || p.x > t.x_hi - hw + kEps ||
        p.y < t.y_lo + rh / 2.0 - kEps || p.y > t.y_hi - rh / 2.0 + kEps)
      dirty[static_cast<std::size_t>(dom)] = 1;
  }
  return LegalizeTiles(nl, lib, part, &pl->pos, std::move(dirty));
}

}  // namespace adq::place
