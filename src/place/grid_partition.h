#pragma once
/// \file grid_partition.h
/// \brief Regular-grid Vth/BB domain partitioning with guardbands.
///
/// Implements Sec. III-B of the paper: the die is cut into an
/// NX x NY grid of equal rectangular Vth domains. Adjacent deep-N-well
/// domains must be separated by guardbands (~3.5 um in the paper's
/// node), so inserting the grid enlarges the die — that is the area
/// overhead column of Table I and of Fig. 6b. Each placed cell is
/// assigned to the tile containing it; the incremental-placement step
/// (ApplyPartition) then shifts and re-legalizes cells inside their
/// tiles, mirroring the flow's "Insertion of Vth Domains ->
/// Incremental Placement" stages (Fig. 4).

#include <string>
#include <vector>

#include "place/placer.h"

namespace adq::place {

/// Grid shape: nx columns by ny rows of domains (paper notation
/// "2x2", "3x1", ...).
struct GridConfig {
  int nx = 1;
  int ny = 1;
  int num_domains() const { return nx * ny; }
  std::string ToString() const {
    return std::to_string(nx) + "x" + std::to_string(ny);
  }
};

/// Guardband width the flow inserts between adjacent deep-N-well BB
/// domains (paper Sec. II-C: ~3.5 um, about three 1.2 um cell rows).
inline constexpr double kGuardbandUm = 3.5;

struct GridPartition {
  GridConfig cfg;
  double guardband_um = kGuardbandUm;
  Floorplan original;  ///< die before guardband insertion
  Floorplan enlarged;  ///< die after guardband insertion

  /// Tile rectangles in the *enlarged* die, index = ty * nx + tx.
  struct Tile {
    double x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
  };
  std::vector<Tile> tiles;

  /// Domain index of every instance (index = instance id).
  std::vector<int> domain_of;

  int num_domains() const { return cfg.num_domains(); }
  /// Fractional silicon-area overhead of the guardbands (Table I
  /// "Aovr" / Fig. 6b).
  double area_overhead() const {
    return enlarged.area_um2() / original.area_um2() - 1.0;
  }
};

/// Cuts the placed die into the grid and assigns each cell to the
/// tile containing its location. Horizontal guardbands are snapped up
/// to whole placement rows. Tiles whose cells exceed 85 % of their row
/// capacity shed boundary cells to adjacent tiles (the density
/// rebalancing a real incremental placer performs).
GridPartition MakePartition(const netlist::Netlist& nl,
                            const tech::CellLibrary& lib,
                            const Placement& pl, GridConfig cfg,
                            double guardband_um = kGuardbandUm);

// Tile legalization, shared by the two calls below: each tile's
// cells go through LegalizeRows into the tile's rows. While a tile's
// cells do not fit, it sheds one cell at a time, the one closest to
// the neighbouring tile with the most spare row width, into that
// neighbour (updating domain_of), which is then legalized too. A tile
// with no neighbour, or more sheds than cells, fails a check.

/// Incremental placement: shifts every cell by its tile's guardband
/// offset and legalizes every tile into `*part`; port anchors move to
/// the enlarged periphery. MakePartition's headroom normally leaves no
/// tile to shed; a tile that cannot seat its cells sheds as above,
/// updating part->domain_of.
Placement ApplyPartition(const netlist::Netlist& nl,
                         const tech::CellLibrary& lib, const Placement& pl,
                         GridPartition* part);

/// Incremental post-ECO legalization. Sizing ECOs run *after*
/// ApplyPartition and change cell widths, so a boundary cell that was
/// legal when legalized can outgrow its domain tile and protrude into
/// the guardband (lint rule FL002 catches this). Legalizes exactly the
/// tiles that contain a protruding cell, and the tiles they shed into;
/// every other tile keeps its placement bit-identical. Returns the
/// number of tile legalizations.
int RelegalizeViolations(const netlist::Netlist& nl,
                         const tech::CellLibrary& lib, GridPartition* part,
                         Placement* pl);

}  // namespace adq::place
