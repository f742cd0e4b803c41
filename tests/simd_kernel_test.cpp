// Exactness matrix for the int16 pair-MAC GEMM kernel: every dispatch
// level (scalar / AVX2 / AVX-512, forced via set_gemm_isa) must be
// bit-identical to exact int64 sums and to the instrumented reference on
// int16 extremes, odd windows (pair padding), pair counts that cross the
// int32 chunk, column tails and gathered position lists. Plus the
// work-stealing determinism contract of parallel_for:
// each index runs exactly once and results never depend on the thread
// count or steal interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "conv/direct_conv.h"
#include "conv/fault_hook.h"
#include "conv/gemm_kernel.h"
#include "test_util.h"

namespace winofault {
namespace {

using testing::ConvProblem;
using testing::expect_tensors_equal;
using testing::make_problem;

std::vector<GemmIsa> supported_isas() {
  std::vector<GemmIsa> isas{GemmIsa::kScalar};
  if (best_supported_gemm_isa() >= GemmIsa::kAvx2)
    isas.push_back(GemmIsa::kAvx2);
  if (best_supported_gemm_isa() >= GemmIsa::kAvx512)
    isas.push_back(GemmIsa::kAvx512);
  return isas;
}

// Restores the startup dispatch level even when an assertion fails, so one
// test's forced ISA can't leak into the rest of the suite.
struct IsaGuard {
  GemmIsa prev = active_gemm_isa();
  ~IsaGuard() { set_gemm_isa(prev); }
};

struct GemmShape {
  std::int64_t in_c, hw, out_c, k;
};

ConvDesc square_desc(const GemmShape& s) {
  ConvDesc desc;
  desc.in_c = s.in_c;
  desc.in_h = s.hw;
  desc.in_w = s.hw;
  desc.out_c = s.out_c;
  desc.kh = desc.kw = s.k;
  desc.pad = s.k / 2;
  return desc;
}

// Values that stress the lo/hi split and the pair sums: both int16 ends,
// the split boundaries, and zero.
constexpr std::int32_t kExtremes[] = {-32768, 32767, -32767, -1,  0,
                                      1,      255,   256,    -256, -129};

std::int32_t pick_operand(Rng& rng) {
  if (rng.next_below(2) == 0) {
    return kExtremes[rng.next_below(std::size(kExtremes))];
  }
  return static_cast<std::int32_t>(rng.next_below(65536)) - 32768;
}

// The microkernel alone against exact int64 sums, on operands drawn half
// from the int16 extremes. Pair counts straddle one and two int32 chunks
// (kPairChunk = 64), the accumulators start non-zero, and the all -32768
// and 32767/-32768 rows hit the largest hi and lo chunk sums.
TEST(SimdKernel, PairKernelExactOnInt16Extremes) {
  IsaGuard guard;
  for (const GemmIsa isa : supported_isas()) {
    ASSERT_EQ(set_gemm_isa(isa), isa);
    SCOPED_TRACE(std::string("isa=") + gemm_isa_name(isa));
    for (const std::int64_t pairs : {1, 2, 63, 64, 65, 128, 129, 200}) {
      for (const std::int64_t cols : {16, 32, 48}) {
        Rng rng(0xE7u + static_cast<std::uint64_t>(pairs * 100 + cols));
        const std::int64_t r_count = 2 * pairs;
        std::vector<std::int32_t> a(static_cast<std::size_t>(r_count * cols));
        std::vector<std::int16_t> w(
            static_cast<std::size_t>(kPairRows * r_count));
        for (auto& v : a) v = pick_operand(rng);
        for (auto& v : w) v = static_cast<std::int16_t>(pick_operand(rng));
        // Row 0: every product -32768 * -32768; row 1: 32767 * -32768.
        for (std::int64_t r = 0; r < r_count; ++r) {
          w[static_cast<std::size_t>(r)] = -32768;
          w[static_cast<std::size_t>(r_count + r)] = -32768;
        }
        for (std::int64_t e = 0; e < cols; e += 2) {
          for (std::int64_t r = 0; r < r_count; ++r) {
            a[static_cast<std::size_t>(r * cols + e)] = e % 4 == 0 ? -32768
                                                                   : 32767;
          }
        }
        std::vector<std::int16_t> lo(static_cast<std::size_t>(r_count * cols));
        std::vector<std::int16_t> hi(lo.size());
        for (std::int64_t r = 0; r < r_count; ++r) {
          for (std::int64_t e = 0; e < cols; ++e) {
            const std::size_t at =
                static_cast<std::size_t>((r / 2) * 2 * cols + 2 * e + r % 2);
            split_activation(a[static_cast<std::size_t>(r * cols + e)],
                             &lo[at], &hi[at]);
          }
        }
        std::vector<std::int64_t> acc(static_cast<std::size_t>(kPairRows * cols));
        std::vector<std::int64_t> expect(acc.size());
        for (int j = 0; j < kPairRows; ++j) {
          for (std::int64_t e = 0; e < cols; ++e) {
            const std::size_t at = static_cast<std::size_t>(j * cols + e);
            acc[at] = expect[at] = (j - 2) * 1000003LL + e;
            for (std::int64_t r = 0; r < r_count; ++r) {
              expect[at] +=
                  std::int64_t{w[static_cast<std::size_t>(j * r_count + r)]} *
                  a[static_cast<std::size_t>(r * cols + e)];
            }
          }
        }
        gemm_pair_microkernel(acc.data(), cols, cols, lo.data(), hi.data(),
                              2 * cols, w.data(), r_count, pairs);
        ASSERT_EQ(acc, expect) << "pairs=" << pairs << " cols=" << cols;
      }
    }
  }
}

TEST(SimdKernel, AllIsaLevelsMatchInstrumentedReference) {
  IsaGuard guard;
  // Windows odd and even (pair padding), pair counts below, at and past
  // the int32 chunk, output extents from 1 column (padded to 16) through
  // tails of every width to several 32-column tiles, out_c off the 4-row
  // tile.
  const GemmShape shapes[] = {
      {3, 2, 8, 3},     // window 27 (odd), e=4
      {16, 2, 128, 3},  // window 144 = 72 pairs, e=4: deep-layer shape
      {8, 3, 5, 3},     // e=9, out_c row tail
      {4, 5, 9, 1},     // 1x1 conv, window 4, e=25
      {5, 4, 6, 1},     // 1x1, odd window 5, e=16
      {15, 3, 4, 3},    // window 135 = 68 pairs, odd
      {29, 2, 7, 3},    // window 261 = 131 pairs: three int32 chunks
      {6, 7, 12, 3},    // e=49: 32-column tile plus a 16-column tile
      {5, 12, 7, 5},    // 5x5 window 125, e=144
      {12, 16, 16, 3},  // e=256: 32-column tiles only
      {2, 1, 3, 3},     // e=1
  };
  for (const GemmIsa isa : supported_isas()) {
    ASSERT_EQ(set_gemm_isa(isa), isa);
    for (const GemmShape& s : shapes) {
      Rng rng(0x5EED0000u + static_cast<std::uint64_t>(
                                s.in_c * 1000 + s.hw * 10 + s.k));
      const ConvDesc desc = square_desc(s);
      const ConvProblem p = make_problem(rng, desc);
      const TensorI32 reference = direct_forward_reference(desc, p.data());
      const TensorI32 gemm = direct_forward_gemm(desc, p.data());
      SCOPED_TRACE(std::string("isa=") + gemm_isa_name(isa));
      expect_tensors_equal(gemm, reference, "gemm vs instrumented ref");
    }
  }
}

// Whole convolutions on extreme operands: the GEMM's raw accumulators
// (through direct_acc_absmax) and its requantized outputs must match the
// reference even where every product is +-2^30.
TEST(SimdKernel, ExtremeOperandsMatchReferenceAccumulators) {
  IsaGuard guard;
  const GemmShape shapes[] = {{3, 5, 5, 3}, {16, 4, 8, 3}, {33, 2, 4, 3}};
  for (const GemmIsa isa : supported_isas()) {
    ASSERT_EQ(set_gemm_isa(isa), isa);
    SCOPED_TRACE(std::string("isa=") + gemm_isa_name(isa));
    for (const GemmShape& s : shapes) {
      Rng rng(0xAB5u + static_cast<std::uint64_t>(s.in_c));
      const ConvDesc desc = square_desc(s);
      ConvProblem p = make_problem(rng, desc);
      for (auto& v : p.input.flat()) v = pick_operand(rng);
      for (auto& v : p.weights.flat()) v = pick_operand(rng);
      std::int64_t absmax = 1;
      FaultHookNone hook;
      for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
        for (std::int64_t oy = 0; oy < desc.out_h(); ++oy) {
          for (std::int64_t ox = 0; ox < desc.out_w(); ++ox) {
            const std::int64_t acc =
                direct_output_acc(desc, p.data(), oc, oy, ox, hook);
            absmax = std::max(absmax, acc < 0 ? -acc : acc);
          }
        }
      }
      EXPECT_EQ(direct_acc_absmax(desc, p.data()), absmax);
      // Requantize so the largest accumulator lands near full range.
      p.out_quant.scale =
          static_cast<double>(absmax) * p.acc_scale / 30000.0;
      expect_tensors_equal(direct_forward_gemm(desc, p.data()),
                           direct_forward_reference(desc, p.data()),
                           "extreme operands");
    }
  }
}

// Gathered columns: direct_recompute_positions rewrites exactly the listed
// output positions (every channel) and leaves the rest of `out` alone.
// Lists of one position, every count 1-17 (column tails), scattered
// subsets and all positions, on a padded and a strided geometry.
TEST(SimdKernel, GatheredPositionsMatchReference) {
  IsaGuard guard;
  ConvDesc padded = square_desc({7, 9, 6, 3});
  ConvDesc strided = square_desc({5, 11, 5, 3});
  strided.stride = 2;
  for (const GemmIsa isa : supported_isas()) {
    ASSERT_EQ(set_gemm_isa(isa), isa);
    SCOPED_TRACE(std::string("isa=") + gemm_isa_name(isa));
    for (const ConvDesc& desc : {padded, strided}) {
      Rng rng(0x6A7u + static_cast<std::uint64_t>(desc.stride));
      const ConvProblem p = make_problem(rng, desc);
      const TensorI32 reference = direct_forward_reference(desc, p.data());
      const std::int64_t ohw = desc.out_h() * desc.out_w();
      std::vector<std::vector<std::int64_t>> lists;
      lists.push_back({0});
      lists.push_back({ohw - 1});
      for (std::int64_t n = 1; n <= 17; ++n) {
        std::vector<std::int64_t> list;
        for (std::int64_t e = 0; e < ohw; ++e) {
          if (rng.next_below(static_cast<std::uint64_t>(ohw)) <
              static_cast<std::uint64_t>(n)) {
            list.push_back(e);
          }
        }
        lists.push_back(std::move(list));
      }
      std::vector<std::int64_t> all(static_cast<std::size_t>(ohw));
      for (std::int64_t e = 0; e < ohw; ++e) all[static_cast<std::size_t>(e)] = e;
      lists.push_back(all);
      for (const std::vector<std::int64_t>& list : lists) {
        TensorI32 out(desc.out_shape());
        for (auto& v : out.flat()) v = -12345;
        direct_recompute_positions(desc, p.data(), list, out);
        std::vector<char> listed(static_cast<std::size_t>(ohw), 0);
        for (const std::int64_t e : list) listed[static_cast<std::size_t>(e)] = 1;
        for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
          for (std::int64_t e = 0; e < ohw; ++e) {
            const std::int64_t i = oc * ohw + e;
            ASSERT_EQ(out[i], listed[static_cast<std::size_t>(e)]
                                  ? reference[i]
                                  : -12345)
                << "list of " << list.size() << ", oc " << oc << " e " << e;
          }
        }
      }
    }
  }
}

// with_weights drops every bank derived from the old weights: a GEMM on a
// view whose clean-weight packed bank was attached must use the new
// weights.
TEST(SimdKernel, WithWeightsDropsDerivedBanks) {
  Rng rng(0xBA4Cu);
  const ConvDesc desc = square_desc({6, 6, 8, 3});
  ConvProblem p = make_problem(rng, desc);
  const std::vector<std::int16_t> clean_pairs =
      pack_pair_weights(desc, p.weights);
  const std::vector<std::int64_t> fake_bank(4, 0);
  ConvData data = p.data();
  data.w_pairs = &clean_pairs;
  data.wg_bank_f2 = &fake_bank;
  data.wg_bank_f4 = &fake_bank;
  TensorI32 corrupted = p.weights;
  for (std::int64_t i = 0; i < corrupted.numel(); i += 7) {
    corrupted[i] = corrupted[i] == 32767 ? -32768 : 32767;
  }
  const ConvData swapped = data.with_weights(corrupted);
  EXPECT_EQ(swapped.weights, &corrupted);
  EXPECT_EQ(swapped.w_pairs, nullptr);
  EXPECT_EQ(swapped.wg_bank_f2, nullptr);
  EXPECT_EQ(swapped.wg_bank_f4, nullptr);
  p.weights = corrupted;
  expect_tensors_equal(direct_forward_gemm(desc, swapped),
                       direct_forward_reference(desc, p.data()),
                       "substituted weights");
}

TEST(SimdKernel, ForcingAboveCpuCapabilityClampsDown) {
  IsaGuard guard;
  const GemmIsa best = best_supported_gemm_isa();
  // Requesting the top level never installs more than the CPU has; on
  // full-AVX-512 machines this degenerates to an exact-match check.
  EXPECT_LE(set_gemm_isa(GemmIsa::kAvx512), best);
  EXPECT_EQ(set_gemm_isa(GemmIsa::kScalar), GemmIsa::kScalar);
}

// ---- Work-stealing determinism -------------------------------------------

// Each index must execute exactly once regardless of how thieves carve up
// the slots, and an i-keyed body must produce thread-count-independent
// results. Uneven per-index cost provokes actual stealing.
TEST(WorkStealing, EachIndexRunsExactlyOnceUnderUnevenLoad) {
  const std::int64_t n = 40000;
  for (const int threads : {1, 2, 3, 8}) {
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
    for (auto& r : runs) r.store(0);
    parallel_for(n, threads, [&](std::int64_t i) {
      // Skewed cost: the first slots' indices are ~100x more expensive, so
      // their initial contiguous ranges must be stolen for the pool to
      // finish balanced.
      volatile std::int64_t sink = 0;
      const std::int64_t spin = (i < n / 8) ? 400 : 4;
      for (std::int64_t s = 0; s < spin; ++s) sink += s;
      runs[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "threads=" << threads << " index " << i;
    }
  }
}

TEST(WorkStealing, ResultsIndependentOfThreadCountAndInterleaving) {
  const std::int64_t n = 10000;
  const auto run = [&](int threads) {
    std::vector<std::uint64_t> out(static_cast<std::size_t>(n), 0);
    parallel_for(n, threads, [&](std::int64_t i) {
      std::uint64_t h = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
      out[static_cast<std::size_t>(i)] = h;
    });
    return out;
  };
  const std::vector<std::uint64_t> reference = run(1);
  for (const int threads : {2, 5, 8}) {
    // Repeat: steal interleavings differ run to run; results must not.
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_EQ(run(threads), reference)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(WorkStealing, NestedParallelForRunsInline) {
  // A body that itself calls parallel_for must not deadlock or double-run
  // indices: the inner call detects pool context and runs inline.
  const std::int64_t outer = 64, inner = 64;
  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(outer * inner));
  for (auto& r : runs) r.store(0);
  parallel_for(outer, 4, [&](std::int64_t i) {
    parallel_for(inner, 4, [&](std::int64_t j) {
      runs[static_cast<std::size_t>(i * inner + j)].fetch_add(1);
    });
  });
  for (auto& r : runs) ASSERT_EQ(r.load(), 1);
}

}  // namespace
}  // namespace winofault
