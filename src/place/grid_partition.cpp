#include "place/grid_partition.h"

#include <algorithm>
#include <cmath>

namespace adq::place {

using netlist::Netlist;

namespace {

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
  auto width_of = [&](std::uint32_t i) {
    const netlist::Instance& inst = nl.instances()[i];
    return lib.Variant(inst.kind, inst.drive).width_um;
  };
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
    used[static_cast<std::size_t>(part.domain_of[i])] += width_of(i);

  // Tile center in original-die coordinates (for distance ranking).
  auto tile_center = [&](int dom) {
    const int tx = dom % cfg.nx;
    const int ty = dom / cfg.nx;
    const double cx = (tx + 0.5) * tile_w;
    const double cy = (y_cut[static_cast<std::size_t>(ty)] +
                       y_cut[static_cast<std::size_t>(ty) + 1]) /
                      2.0;
    return Point{cx, cy};
  };
  auto neighbors = [&](int dom) {
    std::vector<int> out;
    const int tx = dom % cfg.nx;
    const int ty = dom / cfg.nx;
    if (tx > 0) out.push_back(dom - 1);
    if (tx + 1 < cfg.nx) out.push_back(dom + 1);
    if (ty > 0) out.push_back(dom - cfg.nx);
    if (ty + 1 < cfg.ny) out.push_back(dom + cfg.nx);
    return out;
  };

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
    // Receiver: adjacent tile with most spare capacity.
    int recv = -1;
    double best_spare = 0.0;
    for (const int nb : neighbors(worst)) {
      const double spare = cap[(std::size_t)nb] - used[(std::size_t)nb];
      if (spare > best_spare) {
        best_spare = spare;
        recv = nb;
      }
    }
    ADQ_CHECK_MSG(recv >= 0, "no neighboring Vth domain has spare capacity");
    const Point rc = tile_center(recv);
    // Move the cells of `worst` closest to the receiver until the
    // overflow (or the receiver's spare) is consumed.
    std::vector<std::uint32_t> members;
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
      if (part.domain_of[i] == worst) members.push_back(i);
    std::sort(members.begin(), members.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                auto d2 = [&](std::uint32_t k) {
                  const double dx = pl.pos[k].x - rc.x;
                  const double dy = pl.pos[k].y - rc.y;
                  return dx * dx + dy * dy;
                };
                return d2(a) < d2(b);
              });
    double to_move = std::min(worst_over, best_spare);
    for (const std::uint32_t i : members) {
      if (to_move <= 0.0) break;
      const double w = width_of(i);
      part.domain_of[i] = recv;
      used[(std::size_t)worst] -= w;
      used[(std::size_t)recv] += w;
      to_move -= w;
    }
  }
#ifndef NDEBUG
  for (int d = 0; d < ndom; ++d)
    ADQ_CHECK_MSG(used[(std::size_t)d] <= cap[(std::size_t)d] * 1.1,
                  "domain " << d << " still over capacity after rebalance");
#endif
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
                         const Placement& pl, const GridPartition& part) {
  Placement out;
  out.fp = part.enlarged;

  // Port anchors re-spread along the enlarged periphery, preserving
  // their relative order.
  out.port_anchor.resize(nl.num_nets());
  const double sx = part.enlarged.width_um / part.original.width_um;
  const double sy = part.enlarged.height_um / part.original.height_um;
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
    out.port_anchor[n] =
        Point{pl.port_anchor[n].x * sx, pl.port_anchor[n].y * sy};
  }

  // Target position: original location shifted by the tile's
  // guardband offset (x by column index, y by band index).
  const double tile_w = part.original.width_um / part.cfg.nx;
  const double rh = part.original.row_height_um;
  const double gb_y = std::ceil(part.guardband_um / rh) * rh;
  std::vector<Point> target(nl.num_instances());
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const int dom = part.domain_of[i];
    const int tx = dom % part.cfg.nx;
    const int ty = dom / part.cfg.nx;
    const GridPartition::Tile& tile = part.tiles[static_cast<std::size_t>(dom)];
    target[i].x = pl.pos[i].x - tx * tile_w + tile.x_lo;
    target[i].y = pl.pos[i].y + ty * gb_y;
  }

  // Re-legalize every tile independently (cells stay in their domain).
  out.pos = target;
  for (int dom = 0; dom < part.num_domains(); ++dom) {
    std::vector<bool> movable(nl.num_instances(), false);
    bool any = false;
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
      if (part.domain_of[i] == dom) {
        movable[i] = true;
        any = true;
      }
    }
    if (!any) continue;
    const GridPartition::Tile& t = part.tiles[static_cast<std::size_t>(dom)];
    const std::vector<Point> legal =
        LegalizeRows(nl, lib, out.pos, movable, t.x_lo, t.x_hi, t.y_lo,
                     t.y_hi, part.original.row_height_um);
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
      if (movable[i]) out.pos[i] = legal[i];
  }
  return out;
}

int RelegalizeViolations(const Netlist& nl, const tech::CellLibrary& lib,
                         GridPartition* part, Placement* pl) {
  ADQ_CHECK(part != nullptr && pl != nullptr);
  ADQ_CHECK(pl->pos.size() == nl.num_instances());
  ADQ_CHECK(part->domain_of.size() == nl.num_instances());
  const GridConfig cfg = part->cfg;
  const int ndom = part->num_domains();
  const double rh = part->original.row_height_um;
  constexpr double kEps = 1e-9;

  auto width_of = [&](std::uint32_t i) {
    const netlist::Instance& inst = nl.instances()[i];
    return lib.Variant(inst.kind, inst.drive).width_um;
  };
  auto tile_of = [&](int dom) -> const GridPartition::Tile& {
    return part->tiles[static_cast<std::size_t>(dom)];
  };
  // Row capacity of a tile in um of cell width (the legalizer's own
  // capacity model).
  auto capacity = [&](int dom) {
    const GridPartition::Tile& t = tile_of(dom);
    const int rows = std::max(
        1, static_cast<int>(std::floor((t.y_hi - t.y_lo) / rh + 1e-6)));
    return rows * (t.x_hi - t.x_lo);
  };
  auto violates = [&](std::uint32_t i) {
    const GridPartition::Tile& t = tile_of(part->domain_of[i]);
    const double hw = width_of(i) / 2.0;
    const Point& p = pl->pos[i];
    return p.x < t.x_lo + hw - kEps || p.x > t.x_hi - hw + kEps ||
           p.y < t.y_lo + rh / 2.0 - kEps || p.y > t.y_hi - rh / 2.0 + kEps;
  };

  std::vector<double> used(static_cast<std::size_t>(ndom), 0.0);
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
    used[static_cast<std::size_t>(part->domain_of[i])] += width_of(i);

  std::vector<char> dirty(static_cast<std::size_t>(ndom), 0);
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
    if (violates(i)) dirty[static_cast<std::size_t>(part->domain_of[i])] = 1;

  int fixed = 0;
  // Each pass legalizes every dirty tile; shedding marks the receiver
  // dirty, so a few passes can cascade. 4*ndom bounds the cascade.
  for (int round = 0; round < 4 * ndom; ++round) {
    int dom = -1;
    for (int d = 0; d < ndom; ++d)
      if (dirty[static_cast<std::size_t>(d)]) {
        dom = d;
        break;
      }
    if (dom < 0) break;

    // A tile whose cells outgrew its rows cannot be legalized in
    // place: shed the cells closest to the least-utilized neighboring
    // tile into it first (it is marked dirty and fixed up next).
    while (used[static_cast<std::size_t>(dom)] >
           0.98 * capacity(dom)) {
      int recv = -1;
      double best_spare = 0.0;
      const int tx = dom % cfg.nx, ty = dom / cfg.nx;
      const int nbs[] = {tx > 0 ? dom - 1 : -1,
                         tx + 1 < cfg.nx ? dom + 1 : -1,
                         ty > 0 ? dom - cfg.nx : -1,
                         ty + 1 < cfg.ny ? dom + cfg.nx : -1};
      for (const int nb : nbs) {
        if (nb < 0) continue;
        const double spare =
            0.95 * capacity(nb) - used[static_cast<std::size_t>(nb)];
        if (spare > best_spare) {
          best_spare = spare;
          recv = nb;
        }
      }
      if (recv < 0) break;  // nowhere to shed; let the legalizer try
      const GridPartition::Tile& rt = tile_of(recv);
      const Point rc{(rt.x_lo + rt.x_hi) / 2.0, (rt.y_lo + rt.y_hi) / 2.0};
      std::vector<std::uint32_t> members;
      for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
        if (part->domain_of[i] == dom) members.push_back(i);
      std::sort(members.begin(), members.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  auto d2 = [&](std::uint32_t k) {
                    const double dx = pl->pos[k].x - rc.x;
                    const double dy = pl->pos[k].y - rc.y;
                    return dx * dx + dy * dy;
                  };
                  return d2(a) < d2(b);
                });
      double need = used[static_cast<std::size_t>(dom)] -
                    0.95 * capacity(dom);
      need = std::min(need, best_spare);
      bool moved = false;
      for (const std::uint32_t i : members) {
        if (need <= 0.0) break;
        const double w = width_of(i);
        part->domain_of[i] = recv;
        used[static_cast<std::size_t>(dom)] -= w;
        used[static_cast<std::size_t>(recv)] += w;
        need -= w;
        moved = true;
      }
      if (!moved) break;
      dirty[static_cast<std::size_t>(recv)] = 1;
    }

    std::vector<bool> movable(nl.num_instances(), false);
    bool any = false;
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
      if (part->domain_of[i] == dom) {
        movable[i] = true;
        any = true;
      }
    dirty[static_cast<std::size_t>(dom)] = 0;
    if (!any) continue;
    const GridPartition::Tile& t = tile_of(dom);
    const std::vector<Point> legal = LegalizeRows(
        nl, lib, pl->pos, movable, t.x_lo, t.x_hi, t.y_lo, t.y_hi, rh);
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
      if (movable[i]) pl->pos[i] = legal[i];
    ++fixed;
  }
  return fixed;
}

}  // namespace adq::place
