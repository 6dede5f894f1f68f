#pragma once
/// \file placer.h
/// \brief Analytic standard-cell placement with Abacus legalization.
///
/// Reproduces the role of the "First Placement (no BB domains)" stage
/// of the paper's flow (Fig. 4): cells are placed according to
/// standard timing/area constraints and, crucially, their positions
/// determine which Vth domain each cell later falls into. The
/// algorithm is a classic force-directed/centroid iteration (ports
/// anchored at the periphery) followed by minimum-displacement row
/// legalization — simple, deterministic, and good enough to give
/// wirelength and locality the right trends.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "place/floorplan.h"
#include "tech/cell_library.h"
#include "util/rng.h"

namespace adq::place {

/// A legalized placement: one site per instance, plus fixed peripheral
/// anchor points for primary ports (used in wirelength estimation).
struct Placement {
  Floorplan fp;
  std::vector<Point> pos;          ///< cell centers, index = instance id
  std::vector<Point> port_anchor;  ///< index = net id; valid for ports

  const Point& of(netlist::InstId id) const { return pos[id.index()]; }
};

/// Cell area / die area of every placement (routing space).
inline constexpr double kUtilization = 0.55;

struct PlacerOptions {
  int centroid_iterations = 60;
  std::uint64_t seed = 1;
};

/// Places the whole netlist on a fresh floorplan.
Placement PlaceDesign(const netlist::Netlist& nl,
                      const tech::CellLibrary& lib,
                      const PlacerOptions& opt = {});

/// Legalizes `cells` into the rows of [x_lo, x_hi] x [y_lo, y_hi]
/// with minimum displacement from their positions in `*pos` (Abacus:
/// Spindler et al., ISPD 2008). Cells are taken in x order; each goes
/// to the row where it lands closest to its target, and a row keeps
/// its cells in clusters of abutted cells, each placed where its
/// cells' squared displacement is least (overlapping targets of equal
/// width centre on their mean), merging clusters that would overlap.
/// Returns false, leaving `*pos` untouched, only when some cell fits
/// no row; otherwise writes the cells' legal centres into `*pos`.
/// PlaceDesign legalizes the die with it, and the partition step
/// (grid_partition.h) each domain tile.
bool LegalizeRows(const netlist::Netlist& nl, const tech::CellLibrary& lib,
                  std::span<const std::uint32_t> cells, double x_lo,
                  double x_hi, double y_lo, double y_hi,
                  double row_height_um, std::vector<Point>* pos);

/// The centroid pass's net/cell incidence, flattened once per
/// PlaceDesign over positions that hold the cells, then the anchored
/// ports. Net n's slots in NetBox's order (driver, port anchor, sinks)
/// are net_slot[net_start[n], net_start[n + 1]); cell i's nets in pin
/// order (inputs, then outputs) are cell_net[cell_start[i], ...).
struct PinTape {
  std::vector<std::uint32_t> net_start, net_slot, cell_start, cell_net;
  /// Filled by Group(): the nets of d slots are net_ids[net_group[d],
  /// net_group[d + 1]), and likewise the cells of d pins, each group
  /// padded to whole lane sets by repeating its last id.
  std::vector<std::uint32_t> net_group, net_ids, cell_group, cell_ids;

  void Group();
};

/// One centroid pass of PlaceDesign: net bounding-box centres over
/// `cur` into `centre`, then each cell i moved by `damp` toward the
/// mean centre of its nets (in y blended 0.65 / 0.35 with anchor_y[i])
/// and clamped to the die into `nxt`. Bit-identical on any lane count.
void CentroidPass(const PinTape& tape, std::span<const Point> cur,
                  std::span<const double> anchor_y, double damp,
                  double width, double height, std::span<Point> centre,
                  std::span<Point> nxt);

/// Reusable buffers for RankOrder; one per ranking that must stay
/// alive, so a steady stream of calls allocates nothing.
struct RankScratch {
  /// `key16 << 32 | index` per key, ping-ponged by the counting passes.
  std::vector<std::uint64_t> packed, tmp;
  std::vector<std::uint32_t> order;  ///< the result
};

/// The permutation of 0 .. keys.size()-1 that sorts `keys` ascending,
/// equal keys in index order, so the order is total (the output of a
/// std::stable_sort of the indices). Keys must be >= 0; -0.0 ranks as
/// +0.0. The placer's spreading pass ranks cell coordinates with it:
/// a counting sort on a 16-bit key linear in [0, max key], packed
/// with the index into one 64-bit word, then an insertion pass on the
/// full values within each run of equal 16-bit keys, with
/// std::stable_sort taking over past a linear shift budget (clustered
/// keys; counted by `place.rank_fallbacks`). The result views
/// `scratch->order` and is valid until the next call on the same
/// scratch.
std::span<const std::uint32_t> RankOrder(std::span<const double> keys,
                                         RankScratch* scratch);

/// Row width of instance `i` at its current drive [um].
double CellWidth(const netlist::Netlist& nl, const tech::CellLibrary& lib,
                 std::uint32_t i);

/// Total half-perimeter wirelength of the placement [um].
double TotalHpwl(const netlist::Netlist& nl, const Placement& pl);

}  // namespace adq::place
