#pragma once
/// \file placer.h
/// \brief Analytic standard-cell placement with Tetris legalization.
///
/// Reproduces the role of the "First Placement (no BB domains)" stage
/// of the paper's flow (Fig. 4): cells are placed according to
/// standard timing/area constraints and, crucially, their positions
/// determine which Vth domain each cell later falls into. The
/// algorithm is a classic force-directed/centroid iteration (ports
/// anchored at the periphery) followed by row legalization — simple,
/// deterministic, and good enough to give wirelength and locality the
/// right trends.

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

/// Legalizes arbitrary target positions into rows of `fp` (Tetris:
/// cells sorted by x, greedily assigned to the feasible row slot with
/// minimum displacement). Exposed for the incremental-placement step.
/// `row_offset_um`/`x_offset_um` shift the legal area inside the die
/// (used to legalize into one domain tile of a partitioned die).
std::vector<Point> LegalizeRows(
    const netlist::Netlist& nl, const tech::CellLibrary& lib,
    const std::vector<Point>& target, const std::vector<bool>& movable,
    double x_lo, double x_hi, double y_lo, double y_hi,
    double row_height_um);

/// Like LegalizeRows, but reports overflow (cell area exceeding the
/// region's row capacity) by returning false instead of failing a
/// check; `*out` is only written on success. Callers that can recover
/// — e.g. by shedding cells to a neighboring domain tile — use this.
bool TryLegalizeRows(const netlist::Netlist& nl,
                     const tech::CellLibrary& lib,
                     const std::vector<Point>& target,
                     const std::vector<bool>& movable, double x_lo,
                     double x_hi, double y_lo, double y_hi,
                     double row_height_um, std::vector<Point>* out);

/// Reusable buffers for RankOrder; one per ranking that must stay
/// alive, so a steady stream of calls allocates nothing.
struct RankScratch {
  std::vector<std::uint32_t> tmp, order;  ///< indices after pass 1, 2
  std::vector<double> tmp_value, value;   ///< keys[tmp[j]], keys[order[j]]
};

/// The permutation of 0 .. keys.size()-1 that sorts `keys` ascending,
/// equal keys in index order, so the order is total (the output of a
/// std::stable_sort of the indices). Keys must be >= 0; -0.0 ranks as
/// +0.0. The placer's spreading pass ranks cell coordinates with it:
/// a counting sort on a 16-bit key linear in [0, max key], then an
/// insertion pass on the full values, with std::stable_sort taking
/// over past a linear shift budget (clustered keys; counted by
/// `place.rank_fallbacks`). The result views `scratch->order` and is
/// valid until the next call on the same scratch.
std::span<const std::uint32_t> RankOrder(std::span<const double> keys,
                                         RankScratch* scratch);

/// Total half-perimeter wirelength of the placement [um].
double TotalHpwl(const netlist::Netlist& nl, const Placement& pl);

}  // namespace adq::place
