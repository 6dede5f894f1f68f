#pragma once
/// \file simd.h
/// \brief Portable fixed-width SIMD value lanes (f64 / u64).
///
/// The hot kernels of this repo — the batched STA arrival sweep, the
/// packed logic simulator's byte-sliced toggle counters and the
/// placer's centroid pass — run F64::kWidth lanes per instruction on
/// the explicit vector types of this header: STA and simulation on
/// short per-net lane rows, the placer on kWidth / 2 nets or cells of
/// one degree as (x, y) lane pairs, gathered lane by lane. There is one
/// implementation, on GCC/Clang generic vector types
/// (`__attribute__((vector_size))`); the target ISA (CMake's
/// ADQ_SIMD_ARCH) only picks the lane count:
///
///   * 4 x f64 / u64 under AVX2 (x86-64, `-mavx2`);
///   * 2 x f64 / u64 otherwise (SSE2 on x86-64, NEON on aarch64, or
///     whatever the compiler lowers a 16-byte vector to elsewhere).
///
/// Contract — the reason this layer may sit under bit-pinned kernels:
/// every operation is elementwise and bit-identical to the exact
/// scalar C++ expression documented next to it, including NaN
/// propagation and signed-zero behaviour. Max/Min are the std::max /
/// std::min ternaries on each lane. There are no fused multiply-adds
/// anywhere (the build pins -ffp-contract=off), so every lane count
/// produces the same bits. tests/test_simd.cpp pins all of this
/// against the scalar expressions over special values (±0, ±inf, NaN,
/// denormals) and at every tail-lane boundary.

#include <cstddef>
#include <cstdint>
#include <utility>

namespace adq::simd {

/// Lane count, and the backend name that bench provenance records so
/// the history gate never compares rows of different lane counts.
#if defined(__AVX2__)
inline constexpr int kLanes = 4;
inline constexpr const char* kBackendName = "avx2";
#elif defined(__SSE2__)
inline constexpr int kLanes = 2;
inline constexpr const char* kBackendName = "sse2";
#elif defined(__ARM_NEON)
inline constexpr int kLanes = 2;
inline constexpr const char* kBackendName = "neon";
#else
inline constexpr int kLanes = 2;
inline constexpr const char* kBackendName = "generic";
#endif

namespace detail {
using F64v = double __attribute__((vector_size(kLanes * 8)));
using U64v = std::uint64_t __attribute__((vector_size(kLanes * 8)));
}  // namespace detail

// ====================================================================
// F64 — double lanes.
// ====================================================================

struct F64 {
  static constexpr int kWidth = kLanes;
  detail::F64v v;
  static F64 Load(const double* p) {
    F64 r;
    __builtin_memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  /// Per-lane stores into an array, then one Load: GCC lowers that to
  /// one vbroadcastsd, where setting the vector's lanes directly takes
  /// two shuffles. Never `F64v{} + x`: it turns -0.0 into +0.0.
  static F64 Broadcast(double x) {
    double lanes[kWidth];
    for (double& l : lanes) l = x;
    return Load(lanes);
  }
  /// {f(0), f(1), ..., f(kWidth - 1)}, built in registers: a gather by
  /// per-lane scalar loads, or a lane blend (one vshufpd). Through an
  /// array and a Load, the wide load would wait on kWidth narrow stores
  /// that the CPU cannot forward to it.
  template <typename F>
  static F64 Generate(const F& f) {
    return [&]<int... L>(std::integer_sequence<int, L...>) {
      return F64{detail::F64v{f(L)...}};
    }(std::make_integer_sequence<int, kWidth>{});
  }
  void Store(double* p) const { __builtin_memcpy(p, &v, sizeof(v)); }
  double operator[](int lane) const { return v[lane]; }
};

inline F64 Add(F64 a, F64 b) { return {a.v + b.v}; }
inline F64 Sub(F64 a, F64 b) { return {a.v - b.v}; }
inline F64 Mul(F64 a, F64 b) { return {a.v * b.v}; }
inline F64 Div(F64 a, F64 b) { return {a.v / b.v}; }
/// Elementwise std::max: (a[l] < b[l]) ? b[l] : a[l]. Returns a on
/// NaN in either slot exactly as the scalar ternary would.
inline F64 Max(F64 a, F64 b) { return {a.v < b.v ? b.v : a.v}; }
/// Elementwise std::min: (b[l] < a[l]) ? b[l] : a[l]. So
/// Min(Max(v, lo), hi) is std::clamp(v, lo, hi) for lo <= hi.
inline F64 Min(F64 a, F64 b) { return {b.v < a.v ? b.v : a.v}; }

// ====================================================================
// U64 — unsigned 64-bit lanes (byte-sliced counters, violation
// accumulators). Same lane count as F64 so float compare masks can
// feed integer accumulators. Integer ops are exact by construction;
// shifts with count >= 64 are NOT defined (mirrors C++).
// ====================================================================

struct U64 {
  static constexpr int kWidth = kLanes;
  detail::U64v v;
  static U64 Load(const std::uint64_t* p) {
    U64 r;
    __builtin_memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  static U64 Broadcast(std::uint64_t x) {
    std::uint64_t lanes[kWidth];
    for (std::uint64_t& l : lanes) l = x;
    return Load(lanes);
  }
  /// {start, start+1, ..., start+kWidth-1}. Set lane by lane: GCC
  /// builds this in registers, where an array and a Load would go
  /// through the stack.
  static U64 Iota(std::uint64_t start) {
    U64 r;
    for (int i = 0; i < kWidth; ++i)
      r.v[i] = start + static_cast<std::uint64_t>(i);
    return r;
  }
  void Store(std::uint64_t* p) const { __builtin_memcpy(p, &v, sizeof(v)); }
};

inline U64 Add(U64 a, U64 b) { return {a.v + b.v}; }
inline U64 And(U64 a, U64 b) { return {a.v & b.v}; }
/// a[l] >> k[l], per-lane variable counts (each < 64).
inline U64 ShrVar(U64 a, U64 k) { return {a.v >> k.v}; }
/// acc[l] + (a[l] < b[l] ? 1 : 0) — ordered compare, like C++ `<`.
/// The compare yields -1 (all ones) per true lane.
inline U64 AccumulateLt(U64 acc, F64 a, F64 b) {
  return {acc.v - reinterpret_cast<detail::U64v>(a.v < b.v)};
}

static_assert(U64::kWidth == F64::kWidth,
              "float compare masks feed integer accumulators lane for "
              "lane");

}  // namespace adq::simd
