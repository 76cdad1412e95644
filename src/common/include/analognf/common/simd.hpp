// Explicit SIMD kernels with portable scalar fallbacks.
//
// The hot loops of the match path (TCAM bank compares, pruning-bitmap
// intersections, pCAM piecewise-transfer sweeps) are written twice: once
// as plain scalar C++ (the reference — bit-exact with the historical
// auto-vectorized loops) and once with AVX2 intrinsics compiled via GCC
// function-target attributes, so no global -march flags are needed and
// the binary still runs on baseline x86-64. Dispatch happens once per
// process via __builtin_cpu_supports and is cached in a function-local
// static; the per-call cost is one predictable branch.
//
// Bit-identity contract: every AVX2 kernel performs the same IEEE-754
// operations in the same order as its scalar twin — multiplies and adds
// stay separate (the baseline build has no FMA contraction), and ternary
// selects become blendv on the identical compare, so results are
// bit-identical, not merely close. Differential tests in
// tests/test_tcam_engine.cpp and tests/test_core.cpp pin this down.
//
// The flow-table window match is the one SSE2 kernel. SSE2 is part of
// the x86-64 baseline, so it needs no target attribute and no run-time
// dispatch: it is selected at compile time. tests/test_fastpath.cpp
// checks it against its scalar twin at every window position.
//
// Escape hatches:
//   * compile time: -DANALOGNF_FORCE_SCALAR (CMake option of the same
//     name) removes the AVX2 and SSE2 code entirely — the portable-path
//     CI job.
//   * run time: environment variable ANALOGNF_FORCE_SCALAR set to
//     anything but "0" forces the scalar AVX2-twin kernels on AVX2
//     hardware.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(ANALOGNF_FORCE_SCALAR)
#define ANALOGNF_SIMD_AVX2 1
#define ANALOGNF_SIMD_SSE2 1
#include <immintrin.h>
#endif

namespace analognf::simd {

// ------------------------------------------------------------- dispatch

inline bool DetectAvx2() {
#ifdef ANALOGNF_SIMD_AVX2
  const char* force = std::getenv("ANALOGNF_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    return false;
  }
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// Cached once per process; every kernel branches on this.
inline bool UseAvx2() {
  static const bool on = DetectAvx2();
  return on;
}

// "avx2" or "scalar" — recorded in bench JSON so results are attributable.
inline const char* IsaName() { return UseAvx2() ? "avx2" : "scalar"; }

// ----------------------------------------------------- TCAM bank compare
// One TCAM bank is 64 priority-sorted slots; `mask`/`value` point at the
// bank's per-slot words of ONE key lane (columns are padded to whole
// banks by the compiler). Only the first `n` slots (1..64, the bank's
// live slots) are compared: a partial bank scans ceil(n/4) groups of
// four instead of 16. Returns the 64-bit word whose bit s (s < n) is set
// iff (key & mask[s]) == value[s]; bits at and above n are zero. Both
// arrays must be readable up to slot 4 * ceil(n/4) - 1.

inline std::uint64_t LowSlotsMask(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

inline std::uint64_t BankMatchWordScalar(std::uint64_t key,
                                         const std::uint64_t* mask,
                                         const std::uint64_t* value,
                                         std::size_t n) {
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < n; ++s) {
    bits |= static_cast<std::uint64_t>((key & mask[s]) == value[s]) << s;
  }
  return bits;
}

#ifdef ANALOGNF_SIMD_AVX2
__attribute__((target("avx2"))) inline std::uint64_t BankMatchWordAvx2(
    std::uint64_t key, const std::uint64_t* mask, const std::uint64_t* value,
    std::size_t n) {
  const __m256i k = _mm256_set1_epi64x(static_cast<long long>(key));
  const std::size_t groups = (n + 3) / 4;
  std::uint64_t bits = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const __m256i m = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(mask + 4 * g));
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(value + 4 * g));
    const __m256i eq = _mm256_cmpeq_epi64(_mm256_and_si256(k, m), v);
    const auto mm =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    bits |= static_cast<std::uint64_t>(mm) << (4 * g);
  }
  // The last group may cover up to three slots past n.
  return bits & LowSlotsMask(n);
}
#endif

inline std::uint64_t BankMatchWord(std::uint64_t key,
                                   const std::uint64_t* mask,
                                   const std::uint64_t* value,
                                   std::size_t n) {
#ifdef ANALOGNF_SIMD_AVX2
  if (UseAvx2()) return BankMatchWordAvx2(key, mask, value, n);
#endif
  return BankMatchWordScalar(key, mask, value, n);
}

// ------------------------------------------------ bitmap intersection
// ANDs `n` pruning-bitmap rows over the 4 consecutive 64-bit words
// starting at word index w0 (rows are padded to a multiple of 4 words).
// Writes the intersection into out[0..3]; returns true iff any word is
// nonzero (the early-exit test of the pruned search).

inline bool IntersectWords4Scalar(const std::uint64_t* const* rows,
                                  std::size_t n, std::size_t w0,
                                  std::uint64_t out[4]) {
  std::uint64_t any = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    std::uint64_t w = rows[0][w0 + j];
    for (std::size_t i = 1; i < n; ++i) w &= rows[i][w0 + j];
    out[j] = w;
    any |= w;
  }
  return any != 0;
}

#ifdef ANALOGNF_SIMD_AVX2
__attribute__((target("avx2"))) inline bool IntersectWords4Avx2(
    const std::uint64_t* const* rows, std::size_t n, std::size_t w0,
    std::uint64_t out[4]) {
  __m256i acc =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[0] + w0));
  for (std::size_t i = 1; i < n; ++i) {
    acc = _mm256_and_si256(
        acc, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(rows[i] + w0)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc);
  return _mm256_testz_si256(acc, acc) == 0;
}
#endif

inline bool IntersectWords4(const std::uint64_t* const* rows, std::size_t n,
                            std::size_t w0, std::uint64_t out[4]) {
#ifdef ANALOGNF_SIMD_AVX2
  if (UseAvx2()) return IntersectWords4Avx2(rows, n, w0, out);
#endif
  return IntersectWords4Scalar(rows, n, w0, out);
}

// ------------------------------------------- pCAM piecewise transfer
// The five-region piecewise-linear pCAM transfer (pcam_cell.hpp),
// evaluated over structure-of-arrays parameter columns. Two shapes:
//   * PcamColumnEval: one line voltage, many rows (stateless search) —
//     4 rows of conductance accumulation per AVX2 iteration.
//   * PcamCellEvalBatch: one row's parameters, many line voltages
//     (stateful batched search) — 4 queries per iteration.

struct PcamColumnSpan {
  const double* m1;
  const double* m2;
  const double* m3;
  const double* m4;
  const double* sa;
  const double* sb;
  const double* ia;
  const double* ib;
  const double* lo;  // pmin
  const double* hi;  // pmax
};

struct PcamCellParams {
  double m1, m2, m3, m4;
  double sa, sb, ia, ib;
  double lo, hi;
};

// deg[r] *= transfer(v; column params of row r) for r in [r0, r1).
inline void PcamColumnEvalScalar(const PcamColumnSpan& c, double v,
                                 double* deg, std::size_t r0, std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    const double rising = c.sa[r] * v + c.ia[r];
    const double falling = c.sb[r] * v + c.ib[r];
    double o = (v < c.m2[r]) ? rising : c.hi[r];
    o = (v > c.m3[r]) ? falling : o;
    o = (v <= c.m1[r] || v >= c.m4[r]) ? c.lo[r] : o;
    o = (o < c.lo[r]) ? c.lo[r] : o;  // std::max(o, lo)
    o = (c.hi[r] < o) ? c.hi[r] : o;  // std::min(o, hi)
    deg[r] *= o;
  }
}

#ifdef ANALOGNF_SIMD_AVX2
// Same selects as the scalar chain, as blendv on identical compares;
// mul and add stay separate (no FMA) to match the non-contracted
// baseline codegen bit-for-bit.
__attribute__((target("avx2"))) inline void PcamColumnEvalAvx2(
    const PcamColumnSpan& c, double v, double* deg, std::size_t r0,
    std::size_t r1) {
  const __m256d vv = _mm256_set1_pd(v);
  std::size_t r = r0;
  for (; r + 4 <= r1; r += 4) {
    const __m256d m1 = _mm256_loadu_pd(c.m1 + r);
    const __m256d m2 = _mm256_loadu_pd(c.m2 + r);
    const __m256d m3 = _mm256_loadu_pd(c.m3 + r);
    const __m256d m4 = _mm256_loadu_pd(c.m4 + r);
    const __m256d lo = _mm256_loadu_pd(c.lo + r);
    const __m256d hi = _mm256_loadu_pd(c.hi + r);
    const __m256d rising = _mm256_add_pd(
        _mm256_mul_pd(_mm256_loadu_pd(c.sa + r), vv), _mm256_loadu_pd(c.ia + r));
    const __m256d falling = _mm256_add_pd(
        _mm256_mul_pd(_mm256_loadu_pd(c.sb + r), vv), _mm256_loadu_pd(c.ib + r));
    __m256d o = _mm256_blendv_pd(hi, rising, _mm256_cmp_pd(vv, m2, _CMP_LT_OQ));
    o = _mm256_blendv_pd(o, falling, _mm256_cmp_pd(vv, m3, _CMP_GT_OQ));
    const __m256d rail = _mm256_or_pd(_mm256_cmp_pd(vv, m1, _CMP_LE_OQ),
                                      _mm256_cmp_pd(vv, m4, _CMP_GE_OQ));
    o = _mm256_blendv_pd(o, lo, rail);
    o = _mm256_blendv_pd(o, lo, _mm256_cmp_pd(o, lo, _CMP_LT_OQ));
    o = _mm256_blendv_pd(o, hi, _mm256_cmp_pd(hi, o, _CMP_LT_OQ));
    _mm256_storeu_pd(deg + r, _mm256_mul_pd(_mm256_loadu_pd(deg + r), o));
  }
  PcamColumnEvalScalar(c, v, deg, r, r1);
}
#endif

inline void PcamColumnEval(const PcamColumnSpan& c, double v, double* deg,
                           std::size_t r0, std::size_t r1) {
#ifdef ANALOGNF_SIMD_AVX2
  if (UseAvx2()) {
    PcamColumnEvalAvx2(c, v, deg, r0, r1);
    return;
  }
#endif
  PcamColumnEvalScalar(c, v, deg, r0, r1);
}

// deg[q] *= transfer(lv[q]; p) for q in [0, count).
inline void PcamCellEvalBatchScalar(const PcamCellParams& p, const double* lv,
                                    double* deg, std::size_t count) {
  for (std::size_t q = 0; q < count; ++q) {
    const double v = lv[q];
    const double rising = p.sa * v + p.ia;
    const double falling = p.sb * v + p.ib;
    double o = (v < p.m2) ? rising : p.hi;
    o = (v > p.m3) ? falling : o;
    o = (v <= p.m1 || v >= p.m4) ? p.lo : o;
    o = (o < p.lo) ? p.lo : o;
    o = (p.hi < o) ? p.hi : o;
    deg[q] *= o;
  }
}

#ifdef ANALOGNF_SIMD_AVX2
__attribute__((target("avx2"))) inline void PcamCellEvalBatchAvx2(
    const PcamCellParams& p, const double* lv, double* deg,
    std::size_t count) {
  const __m256d m1 = _mm256_set1_pd(p.m1);
  const __m256d m2 = _mm256_set1_pd(p.m2);
  const __m256d m3 = _mm256_set1_pd(p.m3);
  const __m256d m4 = _mm256_set1_pd(p.m4);
  const __m256d sa = _mm256_set1_pd(p.sa);
  const __m256d sb = _mm256_set1_pd(p.sb);
  const __m256d ia = _mm256_set1_pd(p.ia);
  const __m256d ib = _mm256_set1_pd(p.ib);
  const __m256d lo = _mm256_set1_pd(p.lo);
  const __m256d hi = _mm256_set1_pd(p.hi);
  std::size_t q = 0;
  for (; q + 4 <= count; q += 4) {
    const __m256d vv = _mm256_loadu_pd(lv + q);
    const __m256d rising = _mm256_add_pd(_mm256_mul_pd(sa, vv), ia);
    const __m256d falling = _mm256_add_pd(_mm256_mul_pd(sb, vv), ib);
    __m256d o = _mm256_blendv_pd(hi, rising, _mm256_cmp_pd(vv, m2, _CMP_LT_OQ));
    o = _mm256_blendv_pd(o, falling, _mm256_cmp_pd(vv, m3, _CMP_GT_OQ));
    const __m256d rail = _mm256_or_pd(_mm256_cmp_pd(vv, m1, _CMP_LE_OQ),
                                      _mm256_cmp_pd(vv, m4, _CMP_GE_OQ));
    o = _mm256_blendv_pd(o, lo, rail);
    o = _mm256_blendv_pd(o, lo, _mm256_cmp_pd(o, lo, _CMP_LT_OQ));
    o = _mm256_blendv_pd(o, hi, _mm256_cmp_pd(hi, o, _CMP_LT_OQ));
    _mm256_storeu_pd(deg + q, _mm256_mul_pd(_mm256_loadu_pd(deg + q), o));
  }
  PcamCellEvalBatchScalar(p, lv + q, deg + q, count - q);
}
#endif

inline void PcamCellEvalBatch(const PcamCellParams& p, const double* lv,
                              double* deg, std::size_t count) {
#ifdef ANALOGNF_SIMD_AVX2
  if (UseAvx2()) {
    PcamCellEvalBatchAvx2(p, lv, deg, count);
    return;
  }
#endif
  PcamCellEvalBatchScalar(p, lv, deg, count);
}

// --------------------------------------------------- flow-table hashing
// Fibonacci multiplicative hash of raw flow keys: the flow table derives
// its bucket from the HIGH bits of key * phi64, so low-entropy keys
// (tests use literal flow hashes like 1 and 7) still spread across
// buckets. The batched form hashes a whole PacketBatch's flow-hash lane
// up front. Integer ops are exact, so AVX2 and scalar agree bit-for-bit
// by construction; the 64-bit lane product decomposes into 32x32
// partials because AVX2 has no 64x64 multiply.

inline constexpr std::uint64_t kFlowHashMul = 0x9e3779b97f4a7c15ULL;

inline std::uint64_t FlowHash(std::uint64_t key) { return key * kFlowHashMul; }

inline void FlowHashBatchScalar(const std::uint64_t* keys,
                                std::uint64_t* hashes, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) hashes[i] = keys[i] * kFlowHashMul;
}

#ifdef ANALOGNF_SIMD_AVX2
__attribute__((target("avx2"))) inline void FlowHashBatchAvx2(
    const std::uint64_t* keys, std::uint64_t* hashes, std::size_t count) {
  // key * C mod 2^64 = k_lo*c_lo + ((k_lo*c_hi + k_hi*c_lo) << 32)
  const __m256i c_lo =
      _mm256_set1_epi64x(static_cast<long long>(kFlowHashMul & 0xffffffffULL));
  const __m256i c_hi =
      _mm256_set1_epi64x(static_cast<long long>(kFlowHashMul >> 32));
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i k_hi = _mm256_srli_epi64(k, 32);
    const __m256i lolo = _mm256_mul_epu32(k, c_lo);
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(k, c_hi), _mm256_mul_epu32(k_hi, c_lo));
    const __m256i h = _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hashes + i), h);
  }
  FlowHashBatchScalar(keys + i, hashes + i, count - i);
}
#endif

inline void FlowHashBatch(const std::uint64_t* keys, std::uint64_t* hashes,
                          std::size_t count) {
#ifdef ANALOGNF_SIMD_AVX2
  if (UseAvx2()) {
    FlowHashBatchAvx2(keys, hashes, count);
    return;
  }
#endif
  FlowHashBatchScalar(keys, hashes, count);
}

// ------------------------------------------------ flow-table window match
// One flow-table probe window is kProbeWindowBytes consecutive
// fingerprint bytes (flow_table.hpp mirrors the first window's bytes past
// the end of the lane, so a window never wraps in memory). Bit p of
// `match` is set iff window[p] == fp, bit p of `empty` iff window[p] == 0.
// Byte compares are exact, so SSE2 and scalar agree by construction.

inline constexpr std::size_t kProbeWindowBytes = 16;

struct WindowBits {
  std::uint32_t match;
  std::uint32_t empty;
};

inline WindowBits ProbeWindowMatchScalar(const std::uint8_t* window,
                                         std::uint8_t fp) {
  WindowBits bits{0, 0};
  for (std::size_t p = 0; p < kProbeWindowBytes; ++p) {
    bits.match |= static_cast<std::uint32_t>(window[p] == fp) << p;
    bits.empty |= static_cast<std::uint32_t>(window[p] == 0) << p;
  }
  return bits;
}

#ifdef ANALOGNF_SIMD_SSE2
inline WindowBits ProbeWindowMatchSse2(const std::uint8_t* window,
                                       std::uint8_t fp) {
  const __m128i w =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(window));
  const __m128i match =
      _mm_cmpeq_epi8(w, _mm_set1_epi8(static_cast<char>(fp)));
  const __m128i empty = _mm_cmpeq_epi8(w, _mm_setzero_si128());
  return {static_cast<std::uint32_t>(_mm_movemask_epi8(match)),
          static_cast<std::uint32_t>(_mm_movemask_epi8(empty))};
}
#endif

inline WindowBits ProbeWindowMatch(const std::uint8_t* window,
                                   std::uint8_t fp) {
#ifdef ANALOGNF_SIMD_SSE2
  return ProbeWindowMatchSse2(window, fp);
#else
  return ProbeWindowMatchScalar(window, fp);
#endif
}

}  // namespace analognf::simd
