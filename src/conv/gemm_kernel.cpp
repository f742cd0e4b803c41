#include "conv/gemm_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>

#include "common/env.h"
#include "common/logging.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define WINOFAULT_X86_SIMD 1
#include <immintrin.h>
#else
#define WINOFAULT_X86_SIMD 0
#endif

namespace winofault {
namespace {

// Scalar kernel: reads the packed layout and sums exactly in int64, so its
// bits match the vector levels by associativity alone. The level of
// WINOFAULT_ISA=scalar and of non-x86 builds. Rejoins each pair's two
// activation rows once per pair-step, in blocks of columns, so the row
// loops stay contiguous.
void kernel_scalar(std::int64_t* acc, std::int64_t acc_stride,
                   std::int64_t cols, const std::int16_t* lo,
                   const std::int16_t* hi, std::int64_t plane_stride,
                   const std::int16_t* w, std::int64_t w_stride,
                   std::int64_t pairs) {
  constexpr std::int64_t kBlock = 64;
  std::int32_t a0[kBlock], a1[kBlock];
  for (std::int64_t e0 = 0; e0 < cols; e0 += kBlock) {
    const std::int64_t n = std::min(kBlock, cols - e0);
    for (std::int64_t p = 0; p < pairs; ++p) {
      const std::int16_t* l = lo + p * plane_stride + 2 * e0;
      const std::int16_t* h = hi + p * plane_stride + 2 * e0;
      for (std::int64_t e = 0; e < n; ++e) {
        a0[e] = 256 * h[2 * e] + l[2 * e];
        a1[e] = 256 * h[2 * e + 1] + l[2 * e + 1];
      }
      for (int j = 0; j < kPairRows; ++j) {
        const std::int64_t w0 = w[j * w_stride + 2 * p];
        const std::int64_t w1 = w[j * w_stride + 2 * p + 1];
        std::int64_t* a = acc + j * acc_stride + e0;
        for (std::int64_t e = 0; e < n; ++e) a[e] += w0 * a0[e] + w1 * a1[e];
      }
    }
  }
}

#if WINOFAULT_X86_SIMD

// One register tile: kPairRows rows x NV vectors of columns. madd_epi16
// multiplies each int16 pair of an activation vector with the broadcast
// weight pair and adds the two exact products into one int32 lane (one
// column). The lo and hi planes keep separate int32 sums, which widen into
// the int64 accumulators in memory every kPairChunk pair-steps (bounds in
// gemm_kernel.h).
template <int NV>
__attribute__((target("avx2"))) void tile_avx2(
    std::int64_t* acc, std::int64_t acc_stride, const std::int16_t* lo,
    const std::int16_t* hi, std::int64_t plane_stride, const std::int16_t* w,
    std::int64_t w_stride, std::int64_t pairs) {
  for (std::int64_t p0 = 0; p0 < pairs; p0 += kPairChunk) {
    const std::int64_t p1 = std::min(p0 + kPairChunk, pairs);
    __m256i slo[kPairRows][NV], shi[kPairRows][NV];
    for (int j = 0; j < kPairRows; ++j) {
      for (int v = 0; v < NV; ++v) {
        slo[j][v] = _mm256_setzero_si256();
        shi[j][v] = _mm256_setzero_si256();
      }
    }
    for (std::int64_t p = p0; p < p1; ++p) {
      __m256i l[NV], h[NV];
      for (int v = 0; v < NV; ++v) {
        l[v] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(lo + p * plane_stride + 16 * v));
        h[v] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(hi + p * plane_stride + 16 * v));
      }
      for (int j = 0; j < kPairRows; ++j) {
        std::int32_t pair;
        std::memcpy(&pair, w + j * w_stride + 2 * p, sizeof pair);
        const __m256i wv = _mm256_set1_epi32(pair);
        for (int v = 0; v < NV; ++v) {
          slo[j][v] = _mm256_add_epi32(slo[j][v], _mm256_madd_epi16(l[v], wv));
          shi[j][v] = _mm256_add_epi32(shi[j][v], _mm256_madd_epi16(h[v], wv));
        }
      }
    }
    for (int j = 0; j < kPairRows; ++j) {
      for (int v = 0; v < NV; ++v) {
        std::int64_t* a = acc + j * acc_stride + 8 * v;
        for (int half = 0; half < 2; ++half) {
          const __m128i l32 = half == 0
                                  ? _mm256_castsi256_si128(slo[j][v])
                                  : _mm256_extracti128_si256(slo[j][v], 1);
          const __m128i h32 = half == 0
                                  ? _mm256_castsi256_si128(shi[j][v])
                                  : _mm256_extracti128_si256(shi[j][v], 1);
          const __m256i sum = _mm256_add_epi64(
              _mm256_cvtepi32_epi64(l32),
              _mm256_slli_epi64(_mm256_cvtepi32_epi64(h32), 8));
          __m256i* dst = reinterpret_cast<__m256i*>(a + 4 * half);
          _mm256_storeu_si256(dst,
                              _mm256_add_epi64(_mm256_loadu_si256(dst), sum));
        }
      }
    }
  }
}

// AVX2: 4 rows x 8 columns per tile (8 int32 sums, within the 16 ymm
// registers together with the two plane loads and the weight broadcast).
__attribute__((target("avx2"))) void kernel_avx2(
    std::int64_t* acc, std::int64_t acc_stride, std::int64_t cols,
    const std::int16_t* lo, const std::int16_t* hi, std::int64_t plane_stride,
    const std::int16_t* w, std::int64_t w_stride, std::int64_t pairs) {
  for (std::int64_t e0 = 0; e0 < cols; e0 += 8) {
    tile_avx2<1>(acc + e0, acc_stride, lo + 2 * e0, hi + 2 * e0,
                 plane_stride, w, w_stride, pairs);
  }
}

template <int NV>
__attribute__((target("avx512f,avx512bw"))) void tile_avx512(
    std::int64_t* acc, std::int64_t acc_stride, const std::int16_t* lo,
    const std::int16_t* hi, std::int64_t plane_stride, const std::int16_t* w,
    std::int64_t w_stride, std::int64_t pairs) {
  for (std::int64_t p0 = 0; p0 < pairs; p0 += kPairChunk) {
    const std::int64_t p1 = std::min(p0 + kPairChunk, pairs);
    __m512i slo[kPairRows][NV], shi[kPairRows][NV];
    for (int j = 0; j < kPairRows; ++j) {
      for (int v = 0; v < NV; ++v) {
        slo[j][v] = _mm512_setzero_si512();
        shi[j][v] = _mm512_setzero_si512();
      }
    }
    for (std::int64_t p = p0; p < p1; ++p) {
      __m512i l[NV], h[NV];
      for (int v = 0; v < NV; ++v) {
        l[v] = _mm512_loadu_si512(lo + p * plane_stride + 32 * v);
        h[v] = _mm512_loadu_si512(hi + p * plane_stride + 32 * v);
      }
      for (int j = 0; j < kPairRows; ++j) {
        std::int32_t pair;
        std::memcpy(&pair, w + j * w_stride + 2 * p, sizeof pair);
        const __m512i wv = _mm512_set1_epi32(pair);
        for (int v = 0; v < NV; ++v) {
          slo[j][v] = _mm512_add_epi32(slo[j][v], _mm512_madd_epi16(l[v], wv));
          shi[j][v] = _mm512_add_epi32(shi[j][v], _mm512_madd_epi16(h[v], wv));
        }
      }
    }
    for (int j = 0; j < kPairRows; ++j) {
      for (int v = 0; v < NV; ++v) {
        std::int64_t* a = acc + j * acc_stride + 16 * v;
        for (int half = 0; half < 2; ++half) {
          const __m256i l32 =
              half == 0 ? _mm512_castsi512_si256(slo[j][v])
                        : _mm512_extracti64x4_epi64(slo[j][v], 1);
          const __m256i h32 =
              half == 0 ? _mm512_castsi512_si256(shi[j][v])
                        : _mm512_extracti64x4_epi64(shi[j][v], 1);
          const __m512i sum = _mm512_add_epi64(
              _mm512_cvtepi32_epi64(l32),
              _mm512_slli_epi64(_mm512_cvtepi32_epi64(h32), 8));
          std::int64_t* dst = a + 8 * half;
          _mm512_storeu_si512(dst,
                              _mm512_add_epi64(_mm512_loadu_si512(dst), sum));
        }
      }
    }
  }
}

// AVX-512BW: 4 rows x 32 columns per tile (16 int32 sums), then one
// 16-column tile for an odd granule.
__attribute__((target("avx512f,avx512bw"))) void kernel_avx512(
    std::int64_t* acc, std::int64_t acc_stride, std::int64_t cols,
    const std::int16_t* lo, const std::int16_t* hi, std::int64_t plane_stride,
    const std::int16_t* w, std::int64_t w_stride, std::int64_t pairs) {
  std::int64_t e0 = 0;
  for (; e0 + 32 <= cols; e0 += 32) {
    tile_avx512<2>(acc + e0, acc_stride, lo + 2 * e0, hi + 2 * e0,
                   plane_stride, w, w_stride, pairs);
  }
  if (e0 < cols) {
    tile_avx512<1>(acc + e0, acc_stride, lo + 2 * e0, hi + 2 * e0,
                   plane_stride, w, w_stride, pairs);
  }
}

#endif  // WINOFAULT_X86_SIMD

using KernelFn = void (*)(std::int64_t*, std::int64_t, std::int64_t,
                          const std::int16_t*, const std::int16_t*,
                          std::int64_t, const std::int16_t*, std::int64_t,
                          std::int64_t);

KernelFn kernel_for(GemmIsa isa) {
#if WINOFAULT_X86_SIMD
  if (isa == GemmIsa::kAvx512) return kernel_avx512;
  if (isa == GemmIsa::kAvx2) return kernel_avx2;
#endif
  (void)isa;
  return kernel_scalar;
}

std::atomic<KernelFn> g_kernel{nullptr};
std::atomic<int> g_isa{static_cast<int>(GemmIsa::kScalar)};

GemmIsa clamp_to_supported(GemmIsa requested) {
  const GemmIsa best = best_supported_gemm_isa();
  if (requested <= best) return requested;
  WF_WARN << "gemm: requested ISA " << gemm_isa_name(requested)
          << " is not supported on this CPU; clamping to "
          << gemm_isa_name(best);
  return best;
}

void install(GemmIsa isa) {
  g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  g_kernel.store(kernel_for(isa), std::memory_order_release);
}

void resolve_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    GemmIsa isa = best_supported_gemm_isa();
    const std::string env = env_string("WINOFAULT_ISA", "");
    if (!env.empty() && env != "native" && env != "auto") {
      if (env == "scalar") {
        isa = GemmIsa::kScalar;
      } else if (env == "avx2") {
        isa = clamp_to_supported(GemmIsa::kAvx2);
      } else if (env == "avx512") {
        isa = clamp_to_supported(GemmIsa::kAvx512);
      } else {
        WF_WARN << "gemm: unknown WINOFAULT_ISA value \"" << env
                << "\" (want scalar|avx2|avx512|native); using "
                << gemm_isa_name(isa);
      }
    }
    install(isa);
  });
}

}  // namespace

const char* gemm_isa_name(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kScalar: return "scalar";
    case GemmIsa::kAvx2: return "avx2";
    case GemmIsa::kAvx512: return "avx512";
  }
  return "?";
}

GemmIsa best_supported_gemm_isa() {
#if WINOFAULT_X86_SIMD
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    return GemmIsa::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return GemmIsa::kAvx2;
#endif
  return GemmIsa::kScalar;
}

GemmIsa active_gemm_isa() {
  resolve_once();
  return static_cast<GemmIsa>(g_isa.load(std::memory_order_relaxed));
}

GemmIsa set_gemm_isa(GemmIsa isa) {
  resolve_once();
  const GemmIsa clamped = clamp_to_supported(isa);
  install(clamped);
  return clamped;
}

void gemm_pair_microkernel(std::int64_t* acc, std::int64_t acc_stride,
                           std::int64_t cols, const std::int16_t* lo,
                           const std::int16_t* hi, std::int64_t plane_stride,
                           const std::int16_t* w, std::int64_t w_stride,
                           std::int64_t pairs) {
  KernelFn fn = g_kernel.load(std::memory_order_acquire);
  if (fn == nullptr) {
    resolve_once();
    fn = g_kernel.load(std::memory_order_acquire);
  }
  fn(acc, acc_stride, cols, lo, hi, plane_stride, w, w_stride, pairs);
}

}  // namespace winofault
