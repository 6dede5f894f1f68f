#pragma once
/// \file simd.h
/// \brief Portable fixed-width SIMD value lanes (f64 / u64).
///
/// The hot kernels of this repo — the batched STA arrival sweep and
/// the packed logic simulator's byte-sliced toggle counters — both
/// iterate short per-net "lane" rows in structure-of-arrays form.
/// This header gives them explicit vector types so one instruction
/// processes F64::kWidth lanes, with the backend chosen at compile
/// time:
///
///   * AVX2  (x86-64, `-mavx2`): 4 x f64, 4 x u64;
///   * SSE2  (x86-64 baseline):  2 x f64, 2 x u64;
///   * NEON  (aarch64):          2 x f64, 2 x u64;
///   * scalar fallback:          4 x f64, 4 x u64 arrays,
///     forced by defining ADQ_SIMD_DISABLED (cmake -DADQ_SIMD=OFF).
///
/// Contract — the reason this layer may sit under bit-pinned kernels:
/// every operation is elementwise and bit-identical to the exact
/// scalar C++ expression documented next to it, including NaN
/// propagation and signed-zero behaviour. Max/Min mirror std::max /
/// std::min (`(a < b) ? b : a` — NOT the x86 maxpd/minpd NaN or ±0
/// semantics, which is why they are built from compare + select).
/// There are no fused multiply-adds anywhere (the build also pins
/// -ffp-contract=off), so an ADQ_SIMD=OFF build produces bit-identical
/// results to any SIMD backend. tests/test_simd.cpp pins all of this
/// against the scalar expressions over special values (±0, ±inf, NaN,
/// denormals) and at every tail-lane boundary.

#include <cstddef>
#include <cstdint>

#if defined(ADQ_SIMD_DISABLED)
#define ADQ_SIMD_BACKEND_SCALAR 1
#define ADQ_SIMD_BACKEND_NAME "scalar"
#elif defined(__AVX2__)
#define ADQ_SIMD_BACKEND_AVX2 1
#define ADQ_SIMD_BACKEND_NAME "avx2"
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define ADQ_SIMD_BACKEND_SSE2 1
#define ADQ_SIMD_BACKEND_NAME "sse2"
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define ADQ_SIMD_BACKEND_NEON 1
#define ADQ_SIMD_BACKEND_NAME "neon"
#include <arm_neon.h>
#else
#define ADQ_SIMD_BACKEND_SCALAR 1
#define ADQ_SIMD_BACKEND_NAME "scalar"
#endif

namespace adq::simd {

/// Compile-time-selected backend, recorded in bench provenance so the
/// history gate never compares AVX2 rows against scalar rows.
inline constexpr const char* kBackendName = ADQ_SIMD_BACKEND_NAME;

// ====================================================================
// F64 — double lanes.
// ====================================================================

#if defined(ADQ_SIMD_BACKEND_AVX2)

struct F64 {
  static constexpr int kWidth = 4;
  __m256d v;
  static F64 Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static F64 Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
};

inline F64 Add(F64 a, F64 b) { return {_mm256_add_pd(a.v, b.v)}; }
inline F64 Sub(F64 a, F64 b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline F64 Mul(F64 a, F64 b) { return {_mm256_mul_pd(a.v, b.v)}; }
/// Lane mask (all-ones / all-zero per lane) of a[l] < b[l] (ordered:
/// false when either operand is NaN — exactly the C++ `<`).
inline F64 Lt(F64 a, F64 b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
/// m[l] all-ones -> a[l], all-zero -> b[l].
inline F64 Select(F64 m, F64 a, F64 b) {
  return {_mm256_blendv_pd(b.v, a.v, m.v)};
}

#elif defined(ADQ_SIMD_BACKEND_SSE2)

struct F64 {
  static constexpr int kWidth = 2;
  __m128d v;
  static F64 Load(const double* p) { return {_mm_loadu_pd(p)}; }
  static F64 Broadcast(double x) { return {_mm_set1_pd(x)}; }
  void Store(double* p) const { _mm_storeu_pd(p, v); }
};

inline F64 Add(F64 a, F64 b) { return {_mm_add_pd(a.v, b.v)}; }
inline F64 Sub(F64 a, F64 b) { return {_mm_sub_pd(a.v, b.v)}; }
inline F64 Mul(F64 a, F64 b) { return {_mm_mul_pd(a.v, b.v)}; }
inline F64 Lt(F64 a, F64 b) { return {_mm_cmplt_pd(a.v, b.v)}; }
inline F64 Select(F64 m, F64 a, F64 b) {
  return {_mm_or_pd(_mm_and_pd(m.v, a.v), _mm_andnot_pd(m.v, b.v))};
}

#elif defined(ADQ_SIMD_BACKEND_NEON)

struct F64 {
  static constexpr int kWidth = 2;
  float64x2_t v;
  static F64 Load(const double* p) { return {vld1q_f64(p)}; }
  static F64 Broadcast(double x) { return {vdupq_n_f64(x)}; }
  void Store(double* p) const { vst1q_f64(p, v); }
};

inline F64 Add(F64 a, F64 b) { return {vaddq_f64(a.v, b.v)}; }
inline F64 Sub(F64 a, F64 b) { return {vsubq_f64(a.v, b.v)}; }
inline F64 Mul(F64 a, F64 b) { return {vmulq_f64(a.v, b.v)}; }
inline F64 Lt(F64 a, F64 b) {
  return {vreinterpretq_f64_u64(vcltq_f64(a.v, b.v))};
}
inline F64 Select(F64 m, F64 a, F64 b) {
  return {vbslq_f64(vreinterpretq_u64_f64(m.v), a.v, b.v)};
}

#else  // scalar fallback

struct F64 {
  static constexpr int kWidth = 4;
  double v[kWidth];
  static F64 Load(const double* p) {
    F64 r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = p[i];
    return r;
  }
  static F64 Broadcast(double x) {
    F64 r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = x;
    return r;
  }
  void Store(double* p) const {
    for (int i = 0; i < kWidth; ++i) p[i] = v[i];
  }
};

namespace detail {
/// All-ones / all-zero double lane from a bool, for mask lanes.
inline double MaskLane(bool b) {
  const std::uint64_t bits = b ? ~0ull : 0ull;
  double d;
  __builtin_memcpy(&d, &bits, sizeof(d));
  return d;
}
inline bool LaneTrue(double m) {
  std::uint64_t bits;
  __builtin_memcpy(&bits, &m, sizeof(bits));
  return bits != 0;
}
}  // namespace detail

inline F64 Add(F64 a, F64 b) {
  F64 r;
  for (int i = 0; i < F64::kWidth; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline F64 Sub(F64 a, F64 b) {
  F64 r;
  for (int i = 0; i < F64::kWidth; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline F64 Mul(F64 a, F64 b) {
  F64 r;
  for (int i = 0; i < F64::kWidth; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
inline F64 Lt(F64 a, F64 b) {
  F64 r;
  for (int i = 0; i < F64::kWidth; ++i)
    r.v[i] = detail::MaskLane(a.v[i] < b.v[i]);
  return r;
}
inline F64 Select(F64 m, F64 a, F64 b) {
  F64 r;
  for (int i = 0; i < F64::kWidth; ++i)
    r.v[i] = detail::LaneTrue(m.v[i]) ? a.v[i] : b.v[i];
  return r;
}

#endif  // F64 backends

/// Elementwise std::max: (a[l] < b[l]) ? b[l] : a[l]. Returns a on
/// NaN in either slot exactly as the scalar ternary would.
inline F64 Max(F64 a, F64 b) { return Select(Lt(a, b), b, a); }
/// Elementwise std::min: (b[l] < a[l]) ? b[l] : a[l].
inline F64 Min(F64 a, F64 b) { return Select(Lt(b, a), b, a); }

// ====================================================================
// U64 — unsigned 64-bit lanes (byte-sliced counters, violation
// accumulators). Same lane count as F64 so float compare masks can
// feed integer accumulators. Integer ops are exact by construction;
// shifts with count >= 64 are NOT defined (mirrors C++).
// ====================================================================

#if defined(ADQ_SIMD_BACKEND_AVX2)

struct U64 {
  static constexpr int kWidth = 4;
  __m256i v;
  static U64 Load(const std::uint64_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static U64 Broadcast(std::uint64_t x) {
    return {_mm256_set1_epi64x(static_cast<long long>(x))};
  }
  /// {start, start+1, ..., start+kWidth-1}.
  static U64 Iota(std::uint64_t start) {
    return {_mm256_set_epi64x(static_cast<long long>(start + 3),
                              static_cast<long long>(start + 2),
                              static_cast<long long>(start + 1),
                              static_cast<long long>(start))};
  }
  void Store(std::uint64_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
};

inline U64 Add(U64 a, U64 b) { return {_mm256_add_epi64(a.v, b.v)}; }
inline U64 And(U64 a, U64 b) { return {_mm256_and_si256(a.v, b.v)}; }
inline U64 Or(U64 a, U64 b) { return {_mm256_or_si256(a.v, b.v)}; }
inline U64 Xor(U64 a, U64 b) { return {_mm256_xor_si256(a.v, b.v)}; }
inline U64 Shl(U64 a, int k) {
  return {_mm256_sll_epi64(a.v, _mm_cvtsi32_si128(k))};
}
/// a[l] >> k[l], per-lane variable counts (each < 64).
inline U64 ShrVar(U64 a, U64 k) { return {_mm256_srlv_epi64(a.v, k.v)}; }
inline bool AnyNonZero(U64 a) {
  return _mm256_testz_si256(a.v, a.v) == 0;
}
/// acc[l] + (a[l] < b[l] ? 1 : 0) — ordered compare, like C++ `<`.
inline U64 AccumulateLt(U64 acc, F64 a, F64 b) {
  return {_mm256_sub_epi64(acc.v, _mm256_castpd_si256(Lt(a, b).v))};
}

#elif defined(ADQ_SIMD_BACKEND_SSE2)

struct U64 {
  static constexpr int kWidth = 2;
  __m128i v;
  static U64 Load(const std::uint64_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static U64 Broadcast(std::uint64_t x) {
    return {_mm_set1_epi64x(static_cast<long long>(x))};
  }
  static U64 Iota(std::uint64_t start) {
    return {_mm_set_epi64x(static_cast<long long>(start + 1),
                           static_cast<long long>(start))};
  }
  void Store(std::uint64_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
};

inline U64 Add(U64 a, U64 b) { return {_mm_add_epi64(a.v, b.v)}; }
inline U64 And(U64 a, U64 b) { return {_mm_and_si128(a.v, b.v)}; }
inline U64 Or(U64 a, U64 b) { return {_mm_or_si128(a.v, b.v)}; }
inline U64 Xor(U64 a, U64 b) { return {_mm_xor_si128(a.v, b.v)}; }
inline U64 Shl(U64 a, int k) {
  return {_mm_sll_epi64(a.v, _mm_cvtsi32_si128(k))};
}
inline U64 ShrVar(U64 a, U64 k) {
  // SSE2 has no per-lane variable shift; scalarize the two lanes.
  alignas(16) std::uint64_t av[2], kv[2];
  a.Store(av);
  k.Store(kv);
  av[0] >>= kv[0];
  av[1] >>= kv[1];
  return U64::Load(av);
}
inline bool AnyNonZero(U64 a) {
  return _mm_movemask_epi8(_mm_cmpeq_epi8(a.v, _mm_setzero_si128())) !=
         0xffff;
}
inline U64 AccumulateLt(U64 acc, F64 a, F64 b) {
  return {_mm_sub_epi64(acc.v, _mm_castpd_si128(Lt(a, b).v))};
}

#elif defined(ADQ_SIMD_BACKEND_NEON)

struct U64 {
  static constexpr int kWidth = 2;
  uint64x2_t v;
  static U64 Load(const std::uint64_t* p) { return {vld1q_u64(p)}; }
  static U64 Broadcast(std::uint64_t x) { return {vdupq_n_u64(x)}; }
  static U64 Iota(std::uint64_t start) {
    const std::uint64_t vals[2] = {start, start + 1};
    return {vld1q_u64(vals)};
  }
  void Store(std::uint64_t* p) const { vst1q_u64(p, v); }
};

inline U64 Add(U64 a, U64 b) { return {vaddq_u64(a.v, b.v)}; }
inline U64 And(U64 a, U64 b) { return {vandq_u64(a.v, b.v)}; }
inline U64 Or(U64 a, U64 b) { return {vorrq_u64(a.v, b.v)}; }
inline U64 Xor(U64 a, U64 b) { return {veorq_u64(a.v, b.v)}; }
inline U64 Shl(U64 a, int k) {
  return {vshlq_u64(a.v, vdupq_n_s64(k))};
}
inline U64 ShrVar(U64 a, U64 k) {
  return {vshlq_u64(a.v, vnegq_s64(vreinterpretq_s64_u64(k.v)))};
}
inline bool AnyNonZero(U64 a) {
  return (vgetq_lane_u64(a.v, 0) | vgetq_lane_u64(a.v, 1)) != 0;
}
inline U64 AccumulateLt(U64 acc, F64 a, F64 b) {
  return {vsubq_u64(acc.v, vcltq_f64(a.v, b.v))};
}

#else  // scalar fallback

struct U64 {
  static constexpr int kWidth = 4;
  std::uint64_t v[kWidth];
  static U64 Load(const std::uint64_t* p) {
    U64 r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = p[i];
    return r;
  }
  static U64 Broadcast(std::uint64_t x) {
    U64 r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = x;
    return r;
  }
  static U64 Iota(std::uint64_t start) {
    U64 r;
    for (int i = 0; i < kWidth; ++i)
      r.v[i] = start + static_cast<std::uint64_t>(i);
    return r;
  }
  void Store(std::uint64_t* p) const {
    for (int i = 0; i < kWidth; ++i) p[i] = v[i];
  }
};

inline U64 Add(U64 a, U64 b) {
  U64 r;
  for (int i = 0; i < U64::kWidth; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline U64 And(U64 a, U64 b) {
  U64 r;
  for (int i = 0; i < U64::kWidth; ++i) r.v[i] = a.v[i] & b.v[i];
  return r;
}
inline U64 Or(U64 a, U64 b) {
  U64 r;
  for (int i = 0; i < U64::kWidth; ++i) r.v[i] = a.v[i] | b.v[i];
  return r;
}
inline U64 Xor(U64 a, U64 b) {
  U64 r;
  for (int i = 0; i < U64::kWidth; ++i) r.v[i] = a.v[i] ^ b.v[i];
  return r;
}
inline U64 Shl(U64 a, int k) {
  U64 r;
  for (int i = 0; i < U64::kWidth; ++i) r.v[i] = a.v[i] << k;
  return r;
}
inline U64 ShrVar(U64 a, U64 k) {
  U64 r;
  for (int i = 0; i < U64::kWidth; ++i) r.v[i] = a.v[i] >> k.v[i];
  return r;
}
inline bool AnyNonZero(U64 a) {
  std::uint64_t acc = 0;
  for (int i = 0; i < U64::kWidth; ++i) acc |= a.v[i];
  return acc != 0;
}
inline U64 AccumulateLt(U64 acc, F64 a, F64 b) {
  U64 r;
  for (int i = 0; i < U64::kWidth; ++i)
    r.v[i] = acc.v[i] + (a.v[i] < b.v[i] ? 1u : 0u);
  return r;
}

#endif  // U64 backends

static_assert(U64::kWidth == F64::kWidth,
              "float compare masks feed integer accumulators lane for "
              "lane");

}  // namespace adq::simd
