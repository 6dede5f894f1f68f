#pragma once
/// \file lane_kernels.h
/// \brief SIMD lane kernels for the STA arrival sweeps.
///
/// Every hot loop of TimingAnalyzer's arrival sweep is one of the
/// small fixed shapes below, applied to a W-lane SoA row. Each kernel
/// documents the exact scalar expression it computes; the vector body
/// (util/simd.h, one generic-vector implementation at 4 lanes under
/// AVX2 and 2 lanes otherwise) and the scalar tail evaluate that
/// expression with the same operations in the same order, so results are
/// bit-identical to the historical scalar loops — including for
/// lanes == 1, where the main loop never runs and the tail *is* the
/// historical code. That is the property the STA engine is pinned on
/// (tests/test_simd).
///
/// The kernels accept any lane count, but the batched sweep never
/// makes them run a tail: AnalyzeBatch pads every batch wider than
/// one lane up to a multiple of simd::F64::kWidth, so only the
/// single-lane (scalar) analyses take the scalar loop. The whole-cell
/// kernel is specialized on the cell's (live inputs, live outputs)
/// shape: one instantiation per shape, 3 x 2 in all.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/simd.h"

namespace adq::sta::lanes {

/// a[l] = base * m[l] + wire  — the launch / clk->Q expression.
inline void Launch(double* a, const double* m, double base, double wire,
                   std::size_t n) {
  const simd::F64 vb = simd::F64::Broadcast(base);
  const simd::F64 vw = simd::F64::Broadcast(wire);
  std::size_t l = 0;
  for (; l + simd::F64::kWidth <= n; l += simd::F64::kWidth)
    simd::Add(simd::Mul(vb, simd::F64::Load(m + l)), vw).Store(a + l);
  for (; l < n; ++l) a[l] = base * m[l] + wire;
}

/// One output arc of the fused whole-cell kernel below.
struct OutArc {
  double* out = nullptr;
  double base = 0.0;
  double wire = 0.0;
};

/// Whole-cell sweep step in a single pass over the lane row, for a
/// cell of NIN live inputs and NOUT live outputs:
///   acc      = std::max(-inf, in_0[l], in_1[l], ...)   (pin order)
///   out_o[l] = acc + base_o * m[l] + wire_o            (each arc)
/// The shape is a template parameter, so the pin and arc loops are
/// compile-time loops the compiler fully unrolls: no per-cell arity
/// branches and no stack round-trip of the row and arc arrays. The
/// accumulator lives in registers across the fold. Expressions and
/// their order are exactly the scalar sweep's, so lanes stay
/// bit-identical to the oracle. Forced inline: it runs once per cell
/// per sweep.
template <int NIN, int NOUT>
[[gnu::always_inline]] inline void PropagateCell(
    const double* const* in_rows, const OutArc* outs, const double* m,
    std::size_t n) {
  static_assert(NIN >= 1 && NOUT >= 1);
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::size_t l = 0;
  if (n >= static_cast<std::size_t>(simd::F64::kWidth)) {
    simd::F64 vb[NOUT], vw[NOUT];
    for (int o = 0; o < NOUT; ++o) {
      vb[o] = simd::F64::Broadcast(outs[o].base);
      vw[o] = simd::F64::Broadcast(outs[o].wire);
    }
    const simd::F64 vninf = simd::F64::Broadcast(kNegInf);
    for (; l + simd::F64::kWidth <= n; l += simd::F64::kWidth) {
      simd::F64 acc = vninf;
      for (int k = 0; k < NIN; ++k)
        acc = simd::Max(acc, simd::F64::Load(in_rows[k] + l));
      const simd::F64 vm = simd::F64::Load(m + l);
      for (int o = 0; o < NOUT; ++o)
        simd::Add(simd::Add(acc, simd::Mul(vb[o], vm)), vw[o])
            .Store(outs[o].out + l);
    }
  }
  for (; l < n; ++l) {
    double a = kNegInf;
    for (int k = 0; k < NIN; ++k) a = std::max(a, in_rows[k][l]);
    for (int o = 0; o < NOUT; ++o)
      outs[o].out[l] = a + outs[o].base * m[l] + outs[o].wire;
  }
}

/// The endpoint fold over SoA accumulators:
///   slack   = clock - setup * m[l] - arr[l]
///   wns[l]  = std::min(wns[l], slack)
///   viol[l] += (slack < 0.0)
inline void EndpointFold(double* wns, std::uint64_t* viol,
                         const double* m, const double* arr,
                         double clock, double setup, std::size_t n) {
  const simd::F64 vc = simd::F64::Broadcast(clock);
  const simd::F64 vs = simd::F64::Broadcast(setup);
  const simd::F64 vz = simd::F64::Broadcast(0.0);
  std::size_t l = 0;
  for (; l + simd::F64::kWidth <= n; l += simd::F64::kWidth) {
    const simd::F64 slack =
        simd::Sub(simd::Sub(vc, simd::Mul(vs, simd::F64::Load(m + l))),
                  simd::F64::Load(arr + l));
    simd::Min(simd::F64::Load(wns + l), slack).Store(wns + l);
    simd::AccumulateLt(simd::U64::Load(viol + l), slack, vz)
        .Store(viol + l);
  }
  for (; l < n; ++l) {
    const double slack = clock - setup * m[l] - arr[l];
    wns[l] = std::min(wns[l], slack);
    if (slack < 0.0) ++viol[l];
  }
}

}  // namespace adq::sta::lanes
