/// Contracts of the portable SIMD layer (util/simd.h) and the lane
/// kernels built on it (sta/lane_kernels.h):
///
///   * every vector primitive is elementwise bit-identical to the
///     scalar C++ expression documented next to it — exhaustively
///     over a pool of special values (±0, ±inf, NaN, denormals,
///     extremes), so NaN propagation, signed-zero selection and
///     ordered-compare semantics are pinned, not assumed;
///   * every lane kernel matches its reference scalar loop at every
///     row length around the vector-width boundaries (tails of
///     1..2*kWidth+3 lanes), and never writes a byte past row[n) —
///     canary-guarded;
///   * the batched STA sweep built from these kernels stays
///     bit-identical to scalar Analyze across all four generator
///     families x operator widths {8,16,32}.
///
/// The layer has one implementation on generic vector types; only the
/// lane count follows the target ISA. The default build runs this file
/// at 4 lanes (AVX2), CI's no-avx2 leg (-DADQ_SIMD_ARCH=none) at 2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/accuracy.h"
#include "core/explore.h"
#include "core/flow.h"
#include "gen/operator.h"
#include "sta/lane_kernels.h"
#include "sta/sta.h"
#include "util/simd.h"

namespace adq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -kInf;

const tech::CellLibrary& Lib() {
  static const tech::CellLibrary lib;
  return lib;
}

/// Bit-level equality: distinguishes -0.0 from 0.0 and compares NaNs
/// by payload — the layer's contract is "same bits as the scalar
/// expression", not "compares equal".
bool SameBits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

/// For arithmetic results only: IEEE-754 leaves the surviving NaN
/// payload unspecified when both operands are NaN (and +/- add/mul
/// commute, so the scalar reference may evaluate b+a), so two NaNs
/// always match; everything else — including signed zeros — must be
/// bit-identical. Min/Max route whole operands and stay on the
/// strict SameBits check.
bool ArithBits(double r, double want) {
  return SameBits(r, want) || (std::isnan(r) && std::isnan(want));
}

/// The special-value pool every pairwise primitive test sweeps.
const std::vector<double>& Specials() {
  static const std::vector<double> v = {
      0.0,
      -0.0,
      kInf,
      kNegInf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      1.5,
      -2.25,
      1e-300,
      -1e300,
      3.7,
  };
  return v;
}

/// Loads lane i with a[(i + rot) % pool] — every lane sees a
/// different special value, so lane crosstalk would be caught.
simd::F64 LoadRot(const std::vector<double>& pool, std::size_t rot,
                  double* out) {
  for (int i = 0; i < simd::F64::kWidth; ++i)
    out[i] = pool[(rot + static_cast<std::size_t>(i)) % pool.size()];
  return simd::F64::Load(out);
}

TEST(SimdF64, ArithmeticMatchesScalarExpressionOnSpecials) {
  const auto& pool = Specials();
  double a[simd::F64::kWidth], b[simd::F64::kWidth],
      r[simd::F64::kWidth];
  // Broadcast stores x itself in every lane: a broadcast built as
  // `zero-vector + x` would turn -0.0 into +0.0.
  for (const double x : pool) {
    simd::F64::Broadcast(x).Store(r);
    for (int l = 0; l < simd::F64::kWidth; ++l)
      EXPECT_TRUE(SameBits(r[l], x)) << "Broadcast lane " << l;
  }
  // Generate sets lane l to f(l), and operator[] reads lane l back.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto at = [&](int l) {
      return pool[(i + static_cast<std::size_t>(l)) % pool.size()];
    };
    const simd::F64 g = simd::F64::Generate(at);
    g.Store(r);
    for (int l = 0; l < simd::F64::kWidth; ++l) {
      EXPECT_TRUE(SameBits(r[l], at(l))) << "Generate lane " << l;
      EXPECT_TRUE(SameBits(g[l], at(l))) << "operator[] lane " << l;
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i)
    for (std::size_t j = 0; j < pool.size(); ++j) {
      const simd::F64 va = LoadRot(pool, i, a);
      const simd::F64 vb = LoadRot(pool, j, b);
      SCOPED_TRACE("rot i=" + std::to_string(i) + " j=" +
                   std::to_string(j));
      simd::Add(va, vb).Store(r);
      for (int l = 0; l < simd::F64::kWidth; ++l)
        EXPECT_TRUE(ArithBits(r[l], a[l] + b[l])) << "Add lane " << l;
      simd::Sub(va, vb).Store(r);
      for (int l = 0; l < simd::F64::kWidth; ++l)
        EXPECT_TRUE(ArithBits(r[l], a[l] - b[l])) << "Sub lane " << l;
      simd::Mul(va, vb).Store(r);
      for (int l = 0; l < simd::F64::kWidth; ++l)
        EXPECT_TRUE(ArithBits(r[l], a[l] * b[l])) << "Mul lane " << l;
      simd::Div(va, vb).Store(r);
      for (int l = 0; l < simd::F64::kWidth; ++l)
        EXPECT_TRUE(ArithBits(r[l], a[l] / b[l])) << "Div lane " << l;
    }
}

// The placer's clamp: Min(Max(v, 0), e) is std::clamp(v, 0.0, e) bit
// for bit, including which zero survives, NaN and infinities.
TEST(SimdF64, MinOfMaxIsStdClamp) {
  const auto& pool = Specials();
  double v[simd::F64::kWidth], r[simd::F64::kWidth];
  const simd::F64 zero = simd::F64::Broadcast(0.0);
  for (const double e : {0.0, 1e-300, 1.5, 137.25,
                         std::numeric_limits<double>::max(), kInf})
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const simd::F64 vv = LoadRot(pool, i, v);
      simd::Min(simd::Max(vv, zero), simd::F64::Broadcast(e)).Store(r);
      for (int l = 0; l < simd::F64::kWidth; ++l)
        EXPECT_TRUE(SameBits(r[l], std::clamp(v[l], 0.0, e)))
            << "clamp(" << v[l] << ", 0, " << e << ") lane " << l;
    }
}

TEST(SimdF64, MinMaxMatchStdSemantics) {
  const auto& pool = Specials();
  double a[simd::F64::kWidth], b[simd::F64::kWidth],
      r[simd::F64::kWidth];
  for (std::size_t i = 0; i < pool.size(); ++i)
    for (std::size_t j = 0; j < pool.size(); ++j) {
      const simd::F64 va = LoadRot(pool, i, a);
      const simd::F64 vb = LoadRot(pool, j, b);
      SCOPED_TRACE("rot i=" + std::to_string(i) + " j=" +
                   std::to_string(j));
      // Max/Min pin the std::max/std::min ternaries — including which
      // operand survives on NaN and on ±0 ties (both compare false).
      simd::Max(va, vb).Store(r);
      for (int l = 0; l < simd::F64::kWidth; ++l)
        EXPECT_TRUE(SameBits(r[l], a[l] < b[l] ? b[l] : a[l]))
            << "Max lane " << l;
      simd::Min(va, vb).Store(r);
      for (int l = 0; l < simd::F64::kWidth; ++l)
        EXPECT_TRUE(SameBits(r[l], b[l] < a[l] ? b[l] : a[l]))
            << "Min lane " << l;
    }
}

TEST(SimdU64, IntegerOpsExactOnBoundaryPatterns) {
  const std::vector<std::uint64_t> pool = {
      0ull,
      1ull,
      ~0ull,
      1ull << 63,
      (1ull << 63) - 1,
      0x5555555555555555ull,
      0xaaaaaaaaaaaaaaaaull,
      0x00000000ffffffffull,
      0xdeadbeefcafebabeull,
      42ull};
  std::uint64_t a[simd::U64::kWidth], b[simd::U64::kWidth],
      r[simd::U64::kWidth];
  for (std::size_t i = 0; i < pool.size(); ++i)
    for (std::size_t j = 0; j < pool.size(); ++j) {
      for (int l = 0; l < simd::U64::kWidth; ++l) {
        a[l] = pool[(i + static_cast<std::size_t>(l)) % pool.size()];
        b[l] = pool[(j + static_cast<std::size_t>(l)) % pool.size()];
      }
      const simd::U64 va = simd::U64::Load(a);
      const simd::U64 vb = simd::U64::Load(b);
      SCOPED_TRACE("rot i=" + std::to_string(i) + " j=" +
                   std::to_string(j));
      simd::Add(va, vb).Store(r);
      for (int l = 0; l < simd::U64::kWidth; ++l)
        EXPECT_EQ(r[l], a[l] + b[l]) << "Add lane " << l;  // mod 2^64
      simd::And(va, vb).Store(r);
      for (int l = 0; l < simd::U64::kWidth; ++l)
        EXPECT_EQ(r[l], a[l] & b[l]) << "And lane " << l;
    }
}

TEST(SimdU64, ShiftsAndIotaMatchScalar) {
  const std::vector<std::uint64_t> pool = {
      ~0ull, 1ull, 0x8000000000000001ull, 0x123456789abcdef0ull};
  std::uint64_t a[simd::U64::kWidth], k[simd::U64::kWidth],
      r[simd::U64::kWidth];
  // Broadcast stores the same bits in every lane, for the whole pool
  // and for the bit patterns of every special double.
  std::vector<std::uint64_t> patterns = pool;
  for (const double x : Specials()) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    patterns.push_back(bits);
  }
  for (const std::uint64_t x : patterns) {
    simd::U64::Broadcast(x).Store(r);
    for (int l = 0; l < simd::U64::kWidth; ++l)
      EXPECT_EQ(r[l], x) << "Broadcast lane " << l;
  }
  // Per-lane variable right shift: distinct counts per lane, all
  // residues mod 64 covered.
  for (std::size_t i = 0; i < pool.size(); ++i)
    for (int base = 0; base < 64; ++base) {
      for (int l = 0; l < simd::U64::kWidth; ++l) {
        a[l] = pool[(i + static_cast<std::size_t>(l)) % pool.size()];
        k[l] = static_cast<std::uint64_t>((base + 17 * l) % 64);
      }
      simd::ShrVar(simd::U64::Load(a), simd::U64::Load(k)).Store(r);
      for (int l = 0; l < simd::U64::kWidth; ++l)
        EXPECT_EQ(r[l], a[l] >> k[l])
            << "ShrVar lane " << l << " count " << k[l];
    }
  simd::U64::Iota(7).Store(r);
  for (int l = 0; l < simd::U64::kWidth; ++l)
    EXPECT_EQ(r[l], 7u + static_cast<std::uint64_t>(l));
}

TEST(SimdU64, AccumulateLtCountsOrderedCompares) {
  const auto& pool = Specials();
  double a[simd::F64::kWidth], b[simd::F64::kWidth];
  std::uint64_t acc[simd::U64::kWidth], r[simd::U64::kWidth];
  for (std::size_t i = 0; i < pool.size(); ++i)
    for (std::size_t j = 0; j < pool.size(); ++j) {
      const simd::F64 va = LoadRot(pool, i, a);
      const simd::F64 vb = LoadRot(pool, j, b);
      for (int l = 0; l < simd::U64::kWidth; ++l)
        acc[l] = 1000u * static_cast<std::uint64_t>(l) + i + j;
      simd::AccumulateLt(simd::U64::Load(acc), va, vb).Store(r);
      for (int l = 0; l < simd::U64::kWidth; ++l)
        EXPECT_EQ(r[l], acc[l] + (a[l] < b[l] ? 1u : 0u))
            << "lane " << l << " i=" << i << " j=" << j;
    }
}

// ====================================================================
// Lane kernels: reference loops + tail boundaries + canary guards.
// ====================================================================

constexpr std::size_t kW = static_cast<std::size_t>(simd::F64::kWidth);
constexpr double kCanary = -9.8765e123;

/// Deterministic pseudo-random row mixing normals with the arrival
/// sweep's sentinel (-inf).
std::vector<double> ArrivalRow(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  std::vector<double> row(n);
  for (double& x : row)
    x = (rng() % 7 == 0) ? kNegInf : dist(rng);
  return row;
}

/// Checks row[n..] still holds the canary (kernel never over-writes).
void ExpectCanaryIntact(const std::vector<double>& buf, std::size_t n) {
  for (std::size_t i = n; i < buf.size(); ++i)
    EXPECT_EQ(buf[i], kCanary) << "overwrite at lane " << i;
}

// Div on rows of every length around the lane-width boundaries, the
// way the placer's kernels divide a degree group: whole vectors, then
// the scalar `/` on the tail. Across the rotations every row position
// sees every pair of special values.
TEST(SimdF64, DivMatchesScalarAtEveryTailBoundary) {
  const auto& pool = Specials();
  const std::size_t p = pool.size();
  for (std::size_t n = 1; n <= 2 * kW + 3; ++n)
    for (std::size_t rot = 0; rot < p * p; ++rot) {
      SCOPED_TRACE("n=" + std::to_string(n) + " rot=" + std::to_string(rot));
      std::vector<double> a(n), b(n), out(n + kW, kCanary);
      for (std::size_t k = 0; k < n; ++k) {
        a[k] = pool[(rot + k) % p];
        b[k] = pool[(rot / p + 3 * k) % p];
      }
      std::size_t k = 0;
      for (; k + kW <= n; k += kW)
        simd::Div(simd::F64::Load(&a[k]), simd::F64::Load(&b[k]))
            .Store(&out[k]);
      for (; k < n; ++k) out[k] = a[k] / b[k];
      for (std::size_t l = 0; l < n; ++l)
        EXPECT_TRUE(ArithBits(out[l], a[l] / b[l]))
            << l << ": " << a[l] << " / " << b[l];
      ExpectCanaryIntact(out, n);
    }
}

TEST(LaneKernels, LaunchMatchesReferenceAtEveryTail) {
  for (std::size_t n = 1; n <= 2 * kW + 3; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<double> m = ArrivalRow(n, 100 + n);
    const double base = 0.37, wire = 0.05;

    std::vector<double> out(n + kW, kCanary);
    sta::lanes::Launch(out.data(), m.data(), base, wire, n);
    for (std::size_t l = 0; l < n; ++l)
      EXPECT_TRUE(SameBits(out[l], base * m[l] + wire)) << l;
    ExpectCanaryIntact(out, n);
  }
}

/// Runs the whole-cell kernel instantiation of shape (nin, nout).
void PropagateCellOfShape(int nin, int nout, const double* const* in_rows,
                          const sta::lanes::OutArc* arcs, const double* m,
                          std::size_t n) {
  switch (nin * 10 + nout) {
    case 11: return sta::lanes::PropagateCell<1, 1>(in_rows, arcs, m, n);
    case 12: return sta::lanes::PropagateCell<1, 2>(in_rows, arcs, m, n);
    case 21: return sta::lanes::PropagateCell<2, 1>(in_rows, arcs, m, n);
    case 22: return sta::lanes::PropagateCell<2, 2>(in_rows, arcs, m, n);
    case 31: return sta::lanes::PropagateCell<3, 1>(in_rows, arcs, m, n);
    case 32: return sta::lanes::PropagateCell<3, 2>(in_rows, arcs, m, n);
  }
  FAIL() << "no kernel for shape " << nin << "x" << nout;
}

TEST(LaneKernels, PropagateCellMatchesReferenceForAllArities) {
  for (std::size_t n = 1; n <= 2 * kW + 3; ++n)
    for (int nin = 1; nin <= 3; ++nin)
      for (int nout = 1; nout <= 2; ++nout) {
        SCOPED_TRACE("n=" + std::to_string(n) + " nin=" +
                     std::to_string(nin) + " nout=" +
                     std::to_string(nout));
        const std::vector<double> m = ArrivalRow(n, 600 + n);
        std::vector<std::vector<double>> ins;
        const double* in_rows[3] = {};
        for (int k = 0; k < nin; ++k) {
          ins.push_back(ArrivalRow(
              n, 700 + n + static_cast<std::size_t>(k) * 31));
          in_rows[k] = ins.back().data();
        }
        std::vector<std::vector<double>> outs_buf(
            static_cast<std::size_t>(nout),
            std::vector<double>(n + kW, kCanary));
        sta::lanes::OutArc arcs[2];
        for (int o = 0; o < nout; ++o)
          arcs[o] = {outs_buf[static_cast<std::size_t>(o)].data(),
                     0.3 + 0.1 * o, 0.02 + 0.01 * o};
        PropagateCellOfShape(nin, nout, in_rows, arcs, m.data(), n);
        for (std::size_t l = 0; l < n; ++l) {
          double a = kNegInf;
          for (int k = 0; k < nin; ++k) a = std::max(a, in_rows[k][l]);
          for (int o = 0; o < nout; ++o)
            EXPECT_TRUE(
                SameBits(outs_buf[static_cast<std::size_t>(o)][l],
                         a + arcs[o].base * m[l] + arcs[o].wire))
                << "lane " << l << " out " << o;
        }
        for (int o = 0; o < nout; ++o)
          ExpectCanaryIntact(outs_buf[static_cast<std::size_t>(o)], n);
      }
}

TEST(LaneKernels, EndpointFoldsMatchReferenceAtEveryTail) {
  for (std::size_t n = 1; n <= 2 * kW + 3; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<double> m = ArrivalRow(n, 800 + n);
    const std::vector<double> arr = ArrivalRow(n, 900 + n);
    const double clock = 0.55, setup = 0.06;

    std::vector<double> wns(n, 0.2), wns_ref(wns.begin(), wns.end());
    std::vector<std::uint64_t> viol(n, 3), viol_ref(viol.begin(),
                                                    viol.end());
    wns.resize(n + kW, kCanary);
    viol.resize(n + kW, 77);
    sta::lanes::EndpointFold(wns.data(), viol.data(), m.data(),
                             arr.data(), clock, setup, n);
    for (std::size_t l = 0; l < n; ++l) {
      const double slack = clock - setup * m[l] - arr[l];
      EXPECT_TRUE(SameBits(wns[l], std::min(wns_ref[l], slack))) << l;
      EXPECT_EQ(viol[l], viol_ref[l] + (slack < 0.0 ? 1u : 0u)) << l;
    }
    ExpectCanaryIntact(wns, n);
    for (std::size_t i = n; i < viol.size(); ++i)
      EXPECT_EQ(viol[i], 77u) << i;
  }
}

// ====================================================================
// The full sweep on top of the kernels: batch lanes == scalar Analyze
// across all four generator families x operator widths.
// ====================================================================

struct Generator {
  const char* name;
  gen::Operator (*build)(int);
};
const Generator kGenerators[] = {
    {"booth", &gen::BuildBoothOperator},
    {"butterfly", &gen::BuildButterflyOperator},
    {"fir_mac", &gen::BuildFirMacOperator},
    {"array_mult", &gen::BuildArrayMultOperator},
};

TEST(SimdSta, BatchBitIdenticalToScalarAcrossOperatorsAndWidths) {
  std::mt19937 rng(20260809);
  for (const Generator& g : kGenerators)
    for (const int w : {8, 16, 32}) {
      SCOPED_TRACE(std::string(g.name) + " width " + std::to_string(w));
      core::FlowOptions fopt;
      fopt.grid = {2, 2};
      fopt.clock_ns = 0.55;
      const core::ImplementedDesign d =
          core::RunImplementationFlow(g.build(w), Lib(), fopt);
      sta::TimingAnalyzer an(d.op.nl, Lib(), d.loads);
      const std::uint32_t nmasks = 1u << d.num_domains();
      const netlist::CaseAnalysis ca(d.op.nl,
                                     core::ForcedZeros(d.op, w / 2));
      // Batch widths straddling the vector width, incl. a ragged tail.
      for (const std::size_t W :
           {std::size_t{1}, kW + 1, std::size_t{16}}) {
        std::vector<tech::DomainMask> lanes(W);
        for (tech::DomainMask& mk : lanes) mk = rng() % nmasks;
        const double vdd = 0.7 + 0.05 * static_cast<double>(W % 7);
        const auto batch =
            an.AnalyzeBatch(std::vector<double>(W, vdd), d.clock_ns, lanes,
                            d.domain_of(), &ca);
        ASSERT_EQ(batch.size(), W);

        for (std::size_t l = 0; l < W; ++l) {
          SCOPED_TRACE("lane " + std::to_string(l) + " mask " +
                       std::to_string(lanes[l]));
          const sta::TimingReport scalar = an.Analyze(
              vdd, d.clock_ns, core::BiasVectorFor(d, lanes[l]), &ca);
          EXPECT_EQ(batch[l].wns_ns, scalar.wns_ns);
          EXPECT_EQ(batch[l].num_violations, scalar.num_violations);
          EXPECT_EQ(batch[l].num_active_endpoints,
                    scalar.num_active_endpoints);
          EXPECT_EQ(batch[l].num_disabled_endpoints,
                    scalar.num_disabled_endpoints);
        }
      }
    }
}

TEST(SimdSta, BackendReportsConsistentWidths) {
  // The provenance string names the lane count the bench rows record:
  // "avx2" exactly when AVX2 is on, at 4 lanes; 2 lanes otherwise.
  const std::string b = simd::kBackendName;
  EXPECT_EQ(simd::U64::kWidth, simd::F64::kWidth);
#if defined(__AVX2__)
  EXPECT_EQ(b, "avx2");
  EXPECT_EQ(simd::F64::kWidth, 4);
#else
  EXPECT_TRUE(b == "sse2" || b == "neon" || b == "generic") << b;
  EXPECT_EQ(simd::F64::kWidth, 2);
#endif
}

}  // namespace
}  // namespace adq
