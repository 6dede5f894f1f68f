/// Tests for placement: floorplanning, legality (rows, bounds, no
/// overlap), grid partitioning with guardbands, incremental placement
/// and parasitic extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <span>

#include "gen/operator.h"
#include "obs/metrics.h"
#include "opt/buffering.h"
#include "opt/sizing.h"
#include "place/grid_partition.h"
#include "place/placer.h"
#include "place/wirelength.h"
#include "util/rng.h"
#include "util/simd.h"

namespace adq::place {
namespace {

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

gen::Operator SmallOp() { return gen::BuildBoothOperator(8); }

void ExpectLegal(const netlist::Netlist& nl, const Placement& pl,
                 double x_lo, double x_hi) {
  // Every cell on a row center, within bounds, no horizontal overlap
  // within a row.
  std::map<int, std::vector<std::pair<double, double>>> row_spans;
  for (std::uint32_t i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instances()[i];
    const double w = Lib().Variant(inst.kind, inst.drive).width_um;
    const Point& p = pl.pos[i];
    EXPECT_GE(p.x - w / 2, x_lo - 1e-6);
    EXPECT_LE(p.x + w / 2, x_hi + 1e-6);
    const double row_f = (p.y / pl.fp.row_height_um) - 0.5;
    const int row = (int)std::lround(row_f);
    EXPECT_NEAR(row_f, row, 1e-6) << "cell must sit on a row centerline";
    row_spans[row].push_back({p.x - w / 2, p.x + w / 2});
  }
  for (auto& [row, spans] : row_spans) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t k = 1; k < spans.size(); ++k) {
      EXPECT_LE(spans[k - 1].second, spans[k].first + 1e-6)
          << "overlap in row " << row;
    }
  }
}

TEST(Floorplan, RespectsUtilizationAndRows) {
  const Floorplan fp = MakeFloorplan(1000.0, 0.5);
  EXPECT_NEAR(fp.area_um2(), 2000.0, 2.0);
  EXPECT_NEAR(fp.height_um, fp.num_rows() * 1.2, 1e-9);
  EXPECT_THROW(MakeFloorplan(-1.0, 0.5), CheckError);
  EXPECT_THROW(MakeFloorplan(100.0, 1.5), CheckError);
}

TEST(Placer, ProducesLegalPlacement) {
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  ASSERT_EQ(pl.pos.size(), op.nl.num_instances());
  ExpectLegal(op.nl, pl, 0.0, pl.fp.width_um);
}

TEST(Placer, DeterministicInSeed) {
  const gen::Operator op = SmallOp();
  PlacerOptions opt;
  opt.seed = 9;
  const Placement a = PlaceDesign(op.nl, Lib(), opt);
  const Placement b = PlaceDesign(op.nl, Lib(), opt);
  for (std::size_t i = 0; i < a.pos.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.pos[i].x, b.pos[i].x);
    EXPECT_DOUBLE_EQ(a.pos[i].y, b.pos[i].y);
  }
}

TEST(Placer, BeatsRandomPlacementOnHpwl) {
  const gen::Operator op = SmallOp();
  PlacerOptions good;
  const Placement pl = PlaceDesign(op.nl, Lib(), good);
  PlacerOptions bad;
  bad.centroid_iterations = 0;  // random + legalize only
  const Placement rnd = PlaceDesign(op.nl, Lib(), bad);
  EXPECT_LT(TotalHpwl(op.nl, pl), 0.8 * TotalHpwl(op.nl, rnd));
}

/// FNV-1a over the bit patterns of a placement's cell centres.
std::uint64_t PositionDigest(const std::vector<Point>& pos) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Point& p : pos) {
    add(p.x);
    add(p.y);
  }
  return h;
}

// Pins PlaceDesign alone, bit for bit, on the paper's three designs as
// the flow hands them to it: high-fanout buffering, then the
// wireload-model sizing at 0.8x the target clock (the prefix of
// core::RunImplementationFlow). Any placer change meant as a pure
// speedup must leave these digests alone.
TEST(Placer, PaperDesignsBitIdentical) {
  struct Case {
    const char* name;
    gen::Operator (*build)(int);
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"Booth16", &gen::BuildBoothOperator, 0x028a61131a5bab0fULL},
      {"Butterfly16", &gen::BuildButterflyOperator, 0xdc062bd0a23bf508ULL},
      {"FIR16", &gen::BuildFirMacOperator, 0x8369e4d9803da5fbULL},
  };
  for (const Case& c : cases) {
    gen::Operator op = c.build(16);
    opt::BufferHighFanout(op.nl, 8);
    opt::SizingOptions sopt;
    sopt.clock_ns = op.spec.target_clock_ns * 0.8;
    sopt.enable_recovery = false;
    sopt.recovery_margin_ns = 0.04 * op.spec.target_clock_ns;
    opt::OptimizeSizing(op.nl, Lib(), FanoutWires(op.nl), sopt);
    const Placement pl = PlaceDesign(op.nl, Lib(), {});
    EXPECT_EQ(PositionDigest(pl.pos), c.digest)
        << c.name << ": digest 0x" << std::hex << PositionDigest(pl.pos);
  }
}

/// A test-local copy of the scalar centroid pass, as PlaceDesign ran it
/// before the degree groups: every net's box in slot order, then every
/// cell in id order.
void ScalarCentroidPass(const PinTape& t, const std::vector<Point>& cur,
                        const std::vector<double>& anchor_y, double damp,
                        double width, double height, std::vector<Point>* nxt) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Point> centre(t.net_start.size() - 1);
  for (std::size_t n = 0; n < centre.size(); ++n) {
    double xlo = kInf, xhi = -kInf, ylo = kInf, yhi = -kInf;
    for (std::uint32_t k = t.net_start[n]; k < t.net_start[n + 1]; ++k) {
      const Point& p = cur[t.net_slot[k]];
      xlo = std::min(xlo, p.x);
      xhi = std::max(xhi, p.x);
      ylo = std::min(ylo, p.y);
      yhi = std::max(yhi, p.y);
    }
    centre[n] = Point{(xlo + xhi) / 2, (ylo + yhi) / 2};
  }
  for (std::size_t i = 0; i + 1 < t.cell_start.size(); ++i) {
    double sx = 0.0, sy = 0.0;
    const std::uint32_t lo = t.cell_start[i], hi = t.cell_start[i + 1];
    for (std::uint32_t k = lo; k < hi; ++k) {
      sx += centre[t.cell_net[k]].x;
      sy += centre[t.cell_net[k]].y;
    }
    const int pins = static_cast<int>(hi - lo);
    const double gx = sx / pins, gy = sy / pins;
    const double ty = 0.65 * gy + 0.35 * anchor_y[i];
    (*nxt)[i].x = std::clamp(cur[i].x + damp * (gx - cur[i].x), 0.0, width);
    (*nxt)[i].y = std::clamp(cur[i].y + damp * (ty - cur[i].y), 0.0, height);
  }
}

/// A random pin tape beyond what the paper designs reach: cell pin
/// counts 1..9, nets of 1..12 cell pins (some with a port anchor,
/// some with no slot at all), and positions pinned at 0, -0.0, the
/// die edges and far enough outside the die that both clamps bite.
struct SyntheticTape {
  PinTape tape;
  std::vector<Point> cur;  // cells, then anchors
  std::vector<double> anchor_y;
  double width = 97.3, height = 61.2;

  SyntheticTape(std::uint32_t n_cells, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<std::uint32_t> stubs;  // cell i once per pin
    for (std::uint32_t i = 0; i < n_cells; ++i)
      for (std::int64_t p = rng.UniformInt(1, 9); p > 0; --p) stubs.push_back(i);
    for (std::size_t i = stubs.size(); i > 1; --i)
      std::swap(stubs[i - 1], stubs[static_cast<std::size_t>(rng.UniformInt(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    std::vector<std::vector<std::uint32_t>> nets;
    std::uint32_t n_anchors = 0;
    for (std::size_t k = 0; k < stubs.size();) {
      std::vector<std::uint32_t> slots;
      const std::size_t pins = static_cast<std::size_t>(rng.UniformInt(1, 12));
      for (; slots.size() < pins && k < stubs.size(); ++k)
        slots.push_back(stubs[k]);
      if (rng.UniformInt(0, 4) == 0)  // a port: anchor after the driver
        slots.insert(slots.begin() + 1, n_cells + n_anchors++);
      nets.push_back(std::move(slots));
      if (rng.UniformInt(0, 9) == 0) nets.emplace_back();  // no slot
    }
    std::vector<std::vector<std::uint32_t>> cell_nets(n_cells);
    tape.net_start.push_back(0);
    for (std::uint32_t n = 0; n < nets.size(); ++n) {
      for (const std::uint32_t slot : nets[n]) {
        tape.net_slot.push_back(slot);
        if (slot < n_cells) cell_nets[slot].push_back(n);
      }
      tape.net_start.push_back(static_cast<std::uint32_t>(tape.net_slot.size()));
    }
    tape.cell_start.push_back(0);
    for (const auto& cn : cell_nets) {
      tape.cell_net.insert(tape.cell_net.end(), cn.begin(), cn.end());
      tape.cell_start.push_back(static_cast<std::uint32_t>(tape.cell_net.size()));
    }
    tape.Group();

    const auto coord = [&](double extent) {
      switch (rng.UniformInt(0, 6)) {
        case 0: return 0.0;
        case 1: return -0.0;
        case 2: return extent;
        case 3: return rng.Uniform(-extent, 2.0 * extent);
        default: return rng.Uniform(0.0, extent);
      }
    };
    for (std::uint32_t i = 0; i < n_cells; ++i) {
      const double x = coord(width);
      cur.push_back(Point{x, coord(height)});
      anchor_y.push_back(coord(height));
    }
    for (std::uint32_t a = 0; a < n_anchors; ++a)
      cur.push_back(Point{rng.UniformInt(0, 1) ? width : 0.0, coord(height)});
  }
};

bool SamePoint(const Point& a, const Point& b) {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

// The degree-group lane kernels of CentroidPass against the scalar
// pass, bit for bit, over several chained passes: net degrees 0..13
// and cell pin counts 1..9 (past anything the paper designs reach),
// groups that end in a part-filled lane set, and signed zeros, die
// edges and out-of-die positions through the clamp. Anchor entries of
// the output stay untouched.
TEST(Placer, CentroidLanesMatchScalarReference) {
  // A lane kernel takes F64::kWidth / 2 elements, as (x, y) pairs.
  constexpr std::uint32_t kPairs = simd::F64::kWidth / 2;
  bool tails = false;
  for (const std::uint32_t n_cells : {1u, 3u, 7u, 38u, 129u, 611u}) {
    SyntheticTape syn(n_cells, 40 + n_cells);
    const PinTape& t = syn.tape;
    // Every cell sits in the group of its pin count, padded groups
    // repeating their last id.
    std::vector<std::uint32_t> count(t.cell_group.size() - 1, 0);
    for (std::uint32_t i = 0; i < n_cells; ++i)
      ++count[t.cell_start[i + 1] - t.cell_start[i]];
    for (std::uint32_t d = 0; d < count.size(); ++d) {
      std::set<std::uint32_t> ids(t.cell_ids.begin() + t.cell_group[d],
                                  t.cell_ids.begin() + t.cell_group[d + 1]);
      ASSERT_EQ(ids.size(), count[d]) << "pin count " << d;
      for (const std::uint32_t i : ids)
        ASSERT_EQ(t.cell_start[i + 1] - t.cell_start[i], d);
      tails |= count[d] % kPairs != 0;
    }
    if (n_cells > 100) {
      EXPECT_EQ(t.cell_group.size(), 11u) << "pin counts up to 9";
      EXPECT_GE(t.net_group.size(), 13u) << "nets of 12 or more slots";
    }
    std::vector<Point> cur = syn.cur;
    const Point canary{-1234.5, 6789.25};
    std::vector<Point> centre(t.net_start.size() - 1);
    for (const double damp : {0.8, 0.8, 0.5, 1.0}) {
      std::vector<Point> want(cur.size(), canary), got(cur.size(), canary);
      ScalarCentroidPass(t, cur, syn.anchor_y, damp, syn.width, syn.height,
                         &want);
      CentroidPass(t, cur, syn.anchor_y, damp, syn.width, syn.height, centre,
                   got);
      for (std::size_t i = 0; i < cur.size(); ++i)
        ASSERT_TRUE(SamePoint(got[i], want[i]))
            << n_cells << " cells, damp " << damp << ", slot " << i << ": ("
            << got[i].x << ", " << got[i].y << ") vs (" << want[i].x << ", "
            << want[i].y << ")";
      std::copy_n(got.begin(), n_cells, cur.begin());
    }
  }
  EXPECT_TRUE(tails || kPairs == 1);
}

std::vector<std::uint32_t> Ranked(std::span<const double> keys) {
  RankScratch scratch;
  const std::span<const std::uint32_t> order = RankOrder(keys, &scratch);
  return {order.begin(), order.end()};
}

/// The oracle: a std::stable_sort of the indices.
std::vector<std::uint32_t> StableOrder(const std::vector<double>& keys) {
  std::vector<std::uint32_t> want(keys.size());
  std::iota(want.begin(), want.end(), 0u);
  std::stable_sort(want.begin(), want.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });
  return want;
}

TEST(RankOrder, TiesFallToIndexOrder) {
  const std::vector<double> keys = {3.0, 1.0, 3.0, 0.5, 1.0, 3.0};
  EXPECT_EQ(Ranked(keys),
            (std::vector<std::uint32_t>{3, 1, 4, 0, 2, 5}));
  EXPECT_TRUE(Ranked(std::vector<double>{}).empty());
}

TEST(RankOrder, NegativeZeroTiesWithPositiveZero) {
  const std::vector<double> keys = {1.0, 0.0, -0.0, 0.0, 2.0, -0.0};
  EXPECT_EQ(Ranked(keys),
            (std::vector<std::uint32_t>{1, 2, 3, 5, 0, 4}));
}

TEST(RankOrder, MatchesStdSortOnTieFreeKeys) {
  // Magnitudes across many exponents (denormal to large), so every
  // radix digit varies, as die coordinates do.
  util::Rng rng(11);
  std::vector<double> keys;
  std::set<double> seen;
  while (keys.size() < 5000) {
    const double k = std::ldexp(rng.Uniform(0.5, 1.0),
                                static_cast<int>(rng.UniformInt(-1070, 40)));
    if (seen.insert(k).second) keys.push_back(k);
  }
  keys.push_back(0.0);
  std::vector<std::uint32_t> want(keys.size());
  std::iota(want.begin(), want.end(), 0u);
  std::sort(want.begin(), want.end(), [&](std::uint32_t a, std::uint32_t b) {
    return keys[a] < keys[b];
  });
  EXPECT_EQ(Ranked(keys), want);
}

// RankOrder against the std::stable_sort oracle on key sets that
// stress each of its steps: spread buckets, heavy ties, signed zeros,
// keys across every exponent, and distinct keys crowded into one
// 16-bit bucket (quadratic for the insertion pass alone, so it must
// take the stable_sort fallback). One scratch serves every case.
TEST(RankOrder, MatchesStableSortOracle) {
  util::Rng rng(7);
  struct Set {
    const char* name;
    std::vector<double> keys;
    long fallbacks;  // stable_sort takeovers expected
  };
  std::vector<Set> sets;
  std::vector<double> uniform(20000);
  for (double& k : uniform) k = rng.Uniform(0.0, 137.5);
  sets.push_back({"uniform", uniform, 0});
  std::vector<double> quantized(20000);
  for (double& k : quantized)
    k = 0.25 * static_cast<double>(rng.UniformInt(0, 40));
  sets.push_back({"quantized", quantized, 0});
  std::vector<double> zeros(3000);
  for (double& k : zeros) {
    const auto r = rng.UniformInt(0, 3);
    k = r == 0 ? 0.0 : r == 1 ? -0.0 : rng.Uniform(0.0, 1e-3);
  }
  sets.push_back({"signed zeros", zeros, 0});
  // On a linear scale almost all of these share bucket 0.
  std::vector<double> spread(5000);
  for (double& k : spread)
    k = std::ldexp(rng.Uniform(0.5, 1.0),
                   static_cast<int>(rng.UniformInt(-1070, 40)));
  sets.push_back({"exponent spread", spread, 1});
  // 100k distinct keys a few ulps apart just above 1.0, ranked against
  // a maximum of 2.0: all share bucket 32767, in shuffled order.
  std::vector<double> clustered(100000);
  for (std::size_t i = 0; i < clustered.size(); ++i)
    clustered[i] = 1.0 + static_cast<double>(i) * 0x1p-52;
  for (std::size_t i = clustered.size() - 1; i > 0; --i)
    std::swap(clustered[i], clustered[static_cast<std::size_t>(rng.UniformInt(
                                0, static_cast<std::int64_t>(i)))]);
  clustered.push_back(2.0);
  sets.push_back({"one bucket", clustered, 1});

  obs::EnableMetrics(true);
  obs::Counter& fallbacks = obs::GetCounter("place.rank_fallbacks");
  RankScratch scratch;
  for (const Set& set : sets) {
    const long before = fallbacks.value();
    const std::span<const std::uint32_t> got = RankOrder(set.keys, &scratch);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              StableOrder(set.keys))
        << set.name;
    EXPECT_EQ(fallbacks.value() - before, set.fallbacks) << set.name;
  }
  obs::EnableMetrics(false);
}

TEST(Partition, DegenerateSingleDomain) {
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const GridPartition part = MakePartition(op.nl, Lib(), pl, {1, 1});
  EXPECT_EQ(part.num_domains(), 1);
  EXPECT_NEAR(part.area_overhead(), 0.0, 1e-12);
  for (const int d : part.domain_of) EXPECT_EQ(d, 0);
}

class GridShape : public ::testing::TestWithParam<GridConfig> {};

TEST_P(GridShape, PartitionConsistent) {
  const GridConfig cfg = GetParam();
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const GridPartition part = MakePartition(op.nl, Lib(), pl, cfg);
  EXPECT_EQ((int)part.tiles.size(), cfg.num_domains());
  // Domains in range.
  for (const int d : part.domain_of) {
    EXPECT_GE(d, 0);
    EXPECT_LT(d, cfg.num_domains());
  }
  // Tiles lie inside the enlarged die and do not overlap pairwise.
  for (std::size_t i = 0; i < part.tiles.size(); ++i) {
    const auto& t = part.tiles[i];
    EXPECT_GE(t.x_lo, -1e-9);
    EXPECT_LE(t.x_hi, part.enlarged.width_um + 1e-9);
    EXPECT_LE(t.y_hi, part.enlarged.height_um + 1e-9);
    for (std::size_t j = i + 1; j < part.tiles.size(); ++j) {
      const auto& u = part.tiles[j];
      const bool x_sep = t.x_hi <= u.x_lo + 1e-9 || u.x_hi <= t.x_lo + 1e-9;
      const bool y_sep = t.y_hi <= u.y_lo + 1e-9 || u.y_hi <= t.y_lo + 1e-9;
      EXPECT_TRUE(x_sep || y_sep) << "tiles " << i << "," << j << " overlap";
    }
  }
  // Area overhead grows with the guardband count and matches the
  // enlarged-die geometry.
  const double expect =
      part.enlarged.area_um2() / part.original.area_um2() - 1.0;
  EXPECT_NEAR(part.area_overhead(), expect, 1e-12);
  if (cfg.num_domains() > 1) {
    EXPECT_GT(part.area_overhead(), 0.0);
  }
}

TEST_P(GridShape, ApplyPartitionKeepsCellsInTheirTiles) {
  const GridConfig cfg = GetParam();
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  GridPartition part = MakePartition(op.nl, Lib(), pl, cfg);
  const Placement ap = ApplyPartition(op.nl, Lib(), pl, &part);
  for (std::uint32_t i = 0; i < op.nl.num_instances(); ++i) {
    const auto& t = part.tiles[(std::size_t)part.domain_of[i]];
    const netlist::Instance& inst = op.nl.instances()[i];
    const double w = Lib().Variant(inst.kind, inst.drive).width_um;
    EXPECT_GE(ap.pos[i].x - w / 2, t.x_lo - 1e-6) << "cell " << i;
    EXPECT_LE(ap.pos[i].x + w / 2, t.x_hi + 1e-6) << "cell " << i;
    EXPECT_GE(ap.pos[i].y, t.y_lo - 1e-6);
    EXPECT_LE(ap.pos[i].y, t.y_hi + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridShape,
                         ::testing::Values(GridConfig{2, 1}, GridConfig{1, 2},
                                           GridConfig{2, 2}, GridConfig{3, 1},
                                           GridConfig{3, 3}));

// --- Row legalization (LegalizeRows) and the tile worklist behind
// ApplyPartition / RelegalizeViolations.

using Box = GridPartition::Tile;

/// Every cell of `cells` inside `box_of(i)` and centred on one of its
/// rows, and no two cells of a row overlapping.
template <typename BoxOf>
void ExpectRowLegal(const netlist::Netlist& nl, const std::vector<Point>& pos,
                    const std::vector<std::uint32_t>& cells, BoxOf box_of) {
  const double rh = tech::CellLibrary::kCellHeightUm;
  std::map<long, std::vector<std::pair<double, double>>> row_spans;
  for (const std::uint32_t i : cells) {
    const Box b = box_of(i);
    const double w = CellWidth(nl, Lib(), i);
    const Point& p = pos[i];
    EXPECT_GE(p.x - w / 2, b.x_lo - 1e-9) << "cell " << i;
    EXPECT_LE(p.x + w / 2, b.x_hi + 1e-9) << "cell " << i;
    EXPECT_GE(p.y - rh / 2, b.y_lo - 1e-9) << "cell " << i;
    EXPECT_LE(p.y + rh / 2, b.y_hi + 1e-9) << "cell " << i;
    const double row_f = (p.y - b.y_lo) / rh - 0.5;
    EXPECT_NEAR(row_f, std::round(row_f), 1e-9) << "cell " << i << " off-row";
    row_spans[std::lround(p.y / rh * 2)].push_back({p.x - w / 2, p.x + w / 2});
  }
  for (auto& [row, spans] : row_spans) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t k = 1; k < spans.size(); ++k)
      EXPECT_LE(spans[k - 1].second, spans[k].first + 1e-9)
          << "overlap in row " << row;
  }
}

/// `n` X1 inverters of one input: cells of equal width.
netlist::Netlist Inverters(int n) {
  netlist::Netlist nl;
  const netlist::NetId a = nl.AddInputPort("a");
  for (int i = 0; i < n; ++i)
    nl.AddOutputPort("y" + std::to_string(i),
                     nl.AddGate(tech::CellKind::kInv, {a}));
  return nl;
}

std::vector<std::uint32_t> AllCells(const netlist::Netlist& nl) {
  std::vector<std::uint32_t> cells(nl.num_instances());
  std::iota(cells.begin(), cells.end(), 0u);
  return cells;
}

TEST(LegalizeRows, SeatsScatteredTargetsOnRowsWithoutOverlap) {
  const gen::Operator op = SmallOp();
  const std::vector<std::uint32_t> cells = AllCells(op.nl);
  double area = 0.0;
  for (const std::uint32_t i : cells) area += CellWidth(op.nl, Lib(), i);
  // A region off the origin at 70 % row utilization.
  const double rh = tech::CellLibrary::kCellHeightUm;
  const Box box{3.0, 3.0 + area / 0.7 / 10, 2 * rh, 12 * rh};
  util::Rng rng(5);
  std::vector<Point> pos(op.nl.num_instances());
  for (Point& p : pos)  // some targets outside the region
    p = {rng.Uniform(0.0, box.x_hi + 5), rng.Uniform(0.0, box.y_hi + 5)};
  ASSERT_TRUE(LegalizeRows(op.nl, Lib(), cells, box.x_lo, box.x_hi, box.y_lo,
                           box.y_hi, rh, &pos));
  ExpectRowLegal(op.nl, pos, cells, [&](std::uint32_t) { return box; });
}

TEST(LegalizeRows, OverlappingTargetsClusterOnTheirMean) {
  const netlist::Netlist nl = Inverters(5);
  const double w = CellWidth(nl, Lib(), 0);
  const double rh = tech::CellLibrary::kCellHeightUm;
  const double offsets[] = {-0.3, -0.1, 0.0, 0.2, 0.4};
  std::vector<Point> pos;
  double mean = 0.0;
  for (const double o : offsets) {
    pos.push_back({10 * w + o * w, rh / 2});
    mean += pos.back().x / 5;
  }
  ASSERT_TRUE(
      LegalizeRows(nl, Lib(), AllCells(nl), 0.0, 20 * w, 0.0, rh, rh, &pos));
  // One cluster of abutted cells in target order, centred on the mean.
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(pos[i].x, mean - 2.5 * w + (i + 0.5) * w, 1e-9) << i;
    EXPECT_EQ(pos[i].y, rh / 2);
  }
}

TEST(LegalizeRows, FillsARegionToFullRowCapacity) {
  const netlist::Netlist nl = Inverters(24);
  const double w = CellWidth(nl, Lib(), 0);
  const double rh = tech::CellLibrary::kCellHeightUm;
  const Box box{5.0, 5.0 + 8 * w, 2 * rh, 5 * rh};  // 3 rows of 8 cells
  util::Rng rng(11);
  std::vector<Point> pos(nl.num_instances());
  for (Point& p : pos)
    p = {rng.Uniform(box.x_lo, box.x_hi), rng.Uniform(box.y_lo, box.y_hi)};
  const std::vector<std::uint32_t> cells = AllCells(nl);
  ASSERT_TRUE(LegalizeRows(nl, Lib(), cells, box.x_lo, box.x_hi, box.y_lo,
                           box.y_hi, rh, &pos));
  ExpectRowLegal(nl, pos, cells, [&](std::uint32_t) { return box; });
}

TEST(LegalizeRows, FailsOnlyWhenACellFitsNoRow) {
  const double rh = tech::CellLibrary::kCellHeightUm;
  const netlist::Netlist nl = Inverters(7);
  const double w = CellWidth(nl, Lib(), 0);
  const std::vector<Point> target(7, Point{1.5 * w, rh});
  std::vector<std::uint32_t> six = AllCells(nl);
  six.pop_back();
  // Two rows of three cells: six cells stacked on one spot fit ...
  std::vector<Point> pos = target;
  EXPECT_TRUE(LegalizeRows(nl, Lib(), six, 0.0, 3 * w, 0.0, 2 * rh, rh, &pos));
  // ... a seventh fits no row: false, and the positions are untouched.
  pos = target;
  EXPECT_FALSE(
      LegalizeRows(nl, Lib(), AllCells(nl), 0.0, 3 * w, 0.0, 2 * rh, rh, &pos));
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(pos[i].x, target[i].x);
    EXPECT_EQ(pos[i].y, target[i].y);
  }
  // A cell wider than the region fits no row either.
  EXPECT_FALSE(LegalizeRows(nl, Lib(), {six.data(), 1}, 0.0, 0.5 * w, 0.0,
                            2 * rh, rh, &pos));
}

/// Upsizes cells of domain `dom` to X4 in id order until the domain's
/// cells exceed `fill` times the tile's row capacity.
void OverfillTile(netlist::Netlist& nl, const GridPartition& part, int dom,
                  double fill) {
  const Box& t = part.tiles[static_cast<std::size_t>(dom)];
  const double cap = std::floor((t.y_hi - t.y_lo) /
                                    tech::CellLibrary::kCellHeightUm + 1e-6) *
                     (t.x_hi - t.x_lo);
  const auto used = [&] {
    double u = 0.0;
    for (std::uint32_t i = 0; i < nl.num_instances(); ++i)
      if (part.domain_of[i] == dom) u += CellWidth(nl, Lib(), i);
    return u;
  };
  for (std::uint32_t i = 0; i < nl.num_instances() && used() <= fill * cap;
       ++i)
    if (part.domain_of[i] == dom)
      nl.SetDrive(netlist::InstId(i), tech::DriveStrength::kX4);
  ASSERT_GT(used(), fill * cap) << "tile " << dom << " cannot be overfilled";
}

TEST(TileLegalization, OverCapacityTileShedsUntilItFits) {
  gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  GridPartition part = MakePartition(op.nl, Lib(), pl, {2, 1});
  Placement ap = ApplyPartition(op.nl, Lib(), pl, &part);
  const std::vector<int> before = part.domain_of;
  OverfillTile(op.nl, part, 0, 1.1);
  EXPECT_GE(RelegalizeViolations(op.nl, Lib(), &part, &ap), 2);
  long shed = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(part.domain_of[i] == before[i] ||
                (before[i] == 0 && part.domain_of[i] == 1))
        << "cell " << i;
    shed += part.domain_of[i] != before[i];
  }
  EXPECT_GT(shed, 0);
  ExpectRowLegal(op.nl, ap.pos, AllCells(op.nl), [&](std::uint32_t i) {
    return part.tiles[static_cast<std::size_t>(part.domain_of[i])];
  });
}

TEST(TileLegalization, ThrowsOnlyWithoutANeighbour) {
  gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  GridPartition part = MakePartition(op.nl, Lib(), pl, {1, 1});
  Placement ap = ApplyPartition(op.nl, Lib(), pl, &part);
  OverfillTile(op.nl, part, 0, 1.1);
  EXPECT_THROW(RelegalizeViolations(op.nl, Lib(), &part, &ap), CheckError);
}

// ApplyPartition legalizes into the partition it is given: a tile
// that outgrew its rows after MakePartition sheds into its neighbour
// with the most spare row width, and the result is row-legal.
TEST(TileLegalization, ApplyPartitionShedsIntoTheRoomiestNeighbour) {
  gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  GridPartition part = MakePartition(op.nl, Lib(), pl, {3, 1});
  // The middle tile overflows; of its two neighbours, the right one
  // has far more room than the left one.
  OverfillTile(op.nl, part, 0, 0.9);
  OverfillTile(op.nl, part, 1, 1.1);
  const std::vector<int> before = part.domain_of;
  const Placement ap = ApplyPartition(op.nl, Lib(), pl, &part);
  long shed = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(part.domain_of[i] == before[i] ||
                (before[i] == 1 && part.domain_of[i] == 2))
        << "cell " << i;
    shed += part.domain_of[i] != before[i];
  }
  EXPECT_GT(shed, 0);
  ExpectRowLegal(op.nl, ap.pos, AllCells(op.nl), [&](std::uint32_t i) {
    return part.tiles[static_cast<std::size_t>(part.domain_of[i])];
  });
}

TEST(Partition, GuardbandOverheadScalesWithGrid) {
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const double o22 =
      MakePartition(op.nl, Lib(), pl, {2, 2}).area_overhead();
  const double o33 =
      MakePartition(op.nl, Lib(), pl, {3, 3}).area_overhead();
  EXPECT_GT(o33, o22) << "3x3 inserts more guardband area than 2x2";
}

TEST(Wirelength, ExtractedLoadsPositiveAndBounded) {
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  const NetLoads loads = ExtractLoads(op.nl, Lib(), pl);
  ASSERT_EQ(loads.cap_ff.size(), op.nl.num_nets());
  const double die_perimeter = 2 * (pl.fp.width_um + pl.fp.height_um);
  for (std::uint32_t n = 0; n < op.nl.num_nets(); ++n) {
    EXPECT_GE(loads.cap_ff[n], 0.0);
    EXPECT_LE(NetHpwl(op.nl, pl, netlist::NetId(n)), die_perimeter);
  }
}

TEST(Wirelength, FanoutModelGrowsWithFanout) {
  netlist::Netlist nl;
  const auto a = nl.AddInputPort("a");
  const auto b = nl.AddInputPort("b");
  for (int i = 0; i < 6; ++i) nl.AddOutputPort("y" + std::to_string(i),
                                               nl.AddGate(tech::CellKind::kBuf, {a}));
  nl.AddOutputPort("z", nl.AddGate(tech::CellKind::kBuf, {b}));
  const NetLoads loads = EstimateLoadsByFanout(nl, Lib());
  EXPECT_GT(loads.cap_ff[a.index()], loads.cap_ff[b.index()]);
}

TEST(Wirelength, PartitionStretchesWires) {
  // Guardbands push cells apart: total HPWL must not shrink.
  const gen::Operator op = SmallOp();
  const Placement pl = PlaceDesign(op.nl, Lib(), {});
  GridPartition part = MakePartition(op.nl, Lib(), pl, {3, 3});
  const Placement ap = ApplyPartition(op.nl, Lib(), pl, &part);
  EXPECT_GE(TotalHpwl(op.nl, ap), 0.95 * TotalHpwl(op.nl, pl));
}

}  // namespace
}  // namespace adq::place
