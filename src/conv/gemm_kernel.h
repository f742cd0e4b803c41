// Exact int16 pair-MAC microkernel behind the direct engine's blocked GEMM
// (gemm_acc in direct_conv.cpp). One kernel per ISA level — scalar, AVX2,
// AVX-512BW — selected once at startup from CPU capability, overridable via
// WINOFAULT_ISA for CI and via set_gemm_isa() for tests.
//
// Operands. Every GEMM operand is an int16-range value (DType is int8 or
// int16), so the kernel multiplies 16-bit pairs:
//  - Weights are plain int16, one row per output channel. Each row's window
//    is zero-padded to an even length, so one 32-bit word holds the pair
//    (w[2p], w[2p+1]); the rows are zero-padded to a multiple of kPairRows.
//  - Each activation a is split as a = 256*hi + lo, with lo in [0, 255] and
//    hi in [-128, 127] (split_activation). The lo and hi values sit in two
//    int16 planes, each laid out [pair p][column e][2]: window rows 2p and
//    2p+1 of column e are adjacent. Columns are zero-padded to a multiple
//    of kPairCols.
//
// Bit-identity contract: every level computes, for each (row j, column e),
// the exact int64 sum  acc[j][e] += sum_r w[j][r] * a[r][e].  A pair sum of
// the lo plane is at most 2*255*32768 < 2^24 in magnitude and one of the hi
// plane at most 2*128*32768 = 2^23, so kPairChunk = 64 pair-steps add up in
// int32 below 2^30 before they widen into int64 as lo + (hi << 8). Products
// are exact and int64 addition is associative, so the accumulators equal
// the instrumented reference (direct_output_acc) for every int16 operand,
// -32768 included, at every dispatch level (tests/simd_kernel_test.cpp pins
// this under WINOFAULT_ISA forcing).
#pragma once

#include <cstdint>
#include <string>

namespace winofault {

enum class GemmIsa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* gemm_isa_name(GemmIsa isa);

// Highest ISA level this CPU can execute. The AVX-512 level needs
// AVX-512BW (the 16-bit multiply-add); a CPU with only AVX-512F gets AVX2.
GemmIsa best_supported_gemm_isa();

// The dispatch level in effect: resolved once on first use to the best
// supported level, unless WINOFAULT_ISA ("scalar" | "avx2" | "avx512" |
// "native") overrides it. A request above the CPU's capability clamps down
// with a warning (so a CI matrix leg can export WINOFAULT_ISA=avx512
// everywhere and still run on AVX2-only machines).
GemmIsa active_gemm_isa();

// Forces the dispatch level (clamped to supported); returns the level
// actually installed. Test hook for the ISA exactness matrix — swap only
// between campaigns/forwards, not while GEMMs are in flight.
GemmIsa set_gemm_isa(GemmIsa isa);

// Register-tile height: output channels per kernel call.
constexpr int kPairRows = 4;
// Column granule: packed planes pad their column count to a multiple.
constexpr std::int64_t kPairCols = 16;
// Pair-steps accumulated in int32 before widening into int64.
constexpr std::int64_t kPairChunk = 64;

// The two-plane split of one int16-range activation: a = 256*hi + lo.
inline void split_activation(std::int32_t a, std::int16_t* lo,
                             std::int16_t* hi) {
  *lo = static_cast<std::int16_t>(a & 0xFF);
  *hi = static_cast<std::int16_t>(a >> 8);
}

// The microkernel: for j < kPairRows and e < cols (a multiple of
// kPairCols), accumulates exactly
//   acc[j*acc_stride + e] += sum_{p<pairs, s<2} w[j*w_stride + 2p + s] *
//       (256 * hi[p*plane_stride + 2e + s] + lo[p*plane_stride + 2e + s]).
void gemm_pair_microkernel(std::int64_t* acc, std::int64_t acc_stride,
                           std::int64_t cols, const std::int16_t* lo,
                           const std::int16_t* hi, std::int64_t plane_stride,
                           const std::int16_t* w, std::int64_t w_stride,
                           std::int64_t pairs);

}  // namespace winofault
