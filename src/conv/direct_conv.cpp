#include "conv/direct_conv.h"

#include <algorithm>
#include <memory>
#include <new>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "conv/fault_hook.h"
#include "conv/gemm_kernel.h"
#include "fault/fault_model.h"

namespace winofault {
namespace {

// Out-of-range detector for the int16 operand contract: nonzero iff some
// OR-ed value lies outside [-32768, 32767].
inline std::uint32_t int16_excess(std::int32_t v) {
  return (static_cast<std::uint32_t>(v) + 32768u) >> 16;
}

// The im2col column matrix of the listed output positions, packed for the
// pair-MAC kernel: column c is output position positions[c] (or c when
// `positions` is null), window row r = (ic, ky, kx) lands in pair r / 2,
// slot r % 2, split across the lo and hi planes. Out-of-image taps and
// padding columns are zero (padding executes as an im2col datapath would).
struct PairColumns {
  std::int64_t pairs = 0;
  std::int64_t stride = 0;  // int16 per pair row: 2 x padded columns
  const std::int16_t* lo = nullptr;
  const std::int16_t* hi = nullptr;
};

// A run of consecutive columns on one output row: one per row for a full
// forward, a few per marked rectangle for a gathered one.
struct ColumnRun {
  std::int64_t c0, len, base;  // base: tap (0, 0) in the zero-bordered input
};

// A grow-only buffer on a cache-line boundary. The planes' rows are whole
// cache lines, so from an aligned base every vector load of the kernel
// stays inside one line; from malloc's 16-byte alignment most loads would
// split across two, and which base a thread gets would change from run to
// run with the allocator's history. Contents are not kept across growth.
template <typename T>
class AlignedBuffer {
 public:
  T* grow(std::int64_t n) {
    if (capacity_ < n) {
      data_.reset(static_cast<T*>(::operator new(
          static_cast<std::size_t>(n) * sizeof(T), kAlign)));
      capacity_ = n;
    }
    return data_.get();
  }

 private:
  static constexpr std::align_val_t kAlign{64};
  struct Free {
    void operator()(T* p) const { ::operator delete(p, kAlign); }
  };
  std::unique_ptr<T, Free> data_;
  std::int64_t capacity_ = 0;
};

// Per-thread packing buffers, reused across calls: a fresh multi-page
// allocation per GEMM costs more in page faults than the packing itself. A
// thread packs only for its own gemm_acc call and waits for that call's
// pool job before packing again, so the planes stay valid while other
// threads read them.
struct PackWorkspace {
  AlignedBuffer<std::int16_t> lo, hi;
  AlignedBuffer<std::int32_t> bordered;
  std::vector<char> row_used;
  std::vector<ColumnRun> runs;
};
thread_local PackWorkspace tl_pack;

// Splits window rows r0 and r1 (src1 null: the zero row past an odd
// window) of `len` columns into pair slots of the lo and hi planes.
template <std::int64_t kStride>
void split_pair_run(const std::int32_t* src0, const std::int32_t* src1,
                    std::int64_t stride, std::int64_t len, std::int16_t* lo,
                    std::int16_t* hi) {
  const std::int64_t s = kStride > 0 ? kStride : stride;
  for (std::int64_t k = 0; k < len; ++k) {
    split_activation(src0[k * s], lo + 2 * k, hi + 2 * k);
    split_activation(src1 != nullptr ? src1[k * s] : 0, lo + 2 * k + 1,
                     hi + 2 * k + 1);
  }
}

PairColumns pack_columns(const ConvDesc& desc, const TensorI32& input,
                         const std::int64_t* positions, std::int64_t count) {
  const std::int64_t ow = desc.out_w();
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  PackWorkspace& ws = tl_pack;
  PairColumns pc;
  pc.pairs = (window + 1) / 2;
  pc.stride = 2 * ((count + kPairCols - 1) / kPairCols * kPairCols);
  std::int16_t* lo_plane = ws.lo.grow(pc.pairs * pc.stride);
  std::int16_t* hi_plane = ws.hi.grow(pc.pairs * pc.stride);
  pc.lo = lo_plane;
  pc.hi = hi_plane;

  const std::int64_t bh = desc.in_h + 2 * desc.pad;
  const std::int64_t bw = desc.in_w + 2 * desc.pad;
  ws.runs.clear();
  for (std::int64_t c = 0; c < count;) {
    const std::int64_t e = positions != nullptr ? positions[c] : c;
    const std::int64_t oy = e / ow, ox = e % ow;
    std::int64_t len = 1;
    while (c + len < count && ox + len < ow &&
           (positions != nullptr ? positions[c + len] : c + len) == e + len) {
      ++len;
    }
    ws.runs.push_back(
        ColumnRun{c, len, oy * desc.stride * bw + ox * desc.stride});
    c += len;
  }

  // Zero-bordered copy of the input, so every tap of every window indexes
  // it without a bounds check (the last window ends at most pad - 1 past
  // the image). Only the bordered rows some run's windows cover are
  // written, so a gathered pack copies rows in proportion to its distinct
  // output rows. The copy also checks the int16 operand contract.
  ws.row_used.assign(static_cast<std::size_t>(bh), 0);
  for (const ColumnRun& run : ws.runs) {
    const std::int64_t b0 = run.base / bw;
    std::fill(ws.row_used.begin() + b0, ws.row_used.begin() + b0 + desc.kh,
              1);
  }
  std::int32_t* bordered = ws.bordered.grow(desc.in_c * bh * bw);
  std::uint32_t excess = 0;
  for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
    for (std::int64_t b = 0; b < bh; ++b) {
      if (!ws.row_used[static_cast<std::size_t>(b)]) continue;
      std::int32_t* dst = bordered + (ic * bh + b) * bw;
      const std::int64_t iy = b - desc.pad;
      if (iy < 0 || iy >= desc.in_h) {
        std::fill(dst, dst + bw, 0);
        continue;
      }
      const std::int32_t* src =
          input.data() + (ic * desc.in_h + iy) * desc.in_w;
      std::fill(dst, dst + desc.pad, 0);
      for (std::int64_t ix = 0; ix < desc.in_w; ++ix) {
        excess |= int16_excess(src[ix]);
        dst[desc.pad + ix] = src[ix];
      }
      std::fill(dst + desc.pad + desc.in_w, dst + bw, 0);
    }
  }
  const bool activations_in_int16_range = excess == 0;
  WF_CHECK(activations_in_int16_range);

  const std::int64_t khw = desc.kh * desc.kw;
  const auto tap_offset = [&](std::int64_t r) {
    const std::int64_t ic = r / khw, ky = (r % khw) / desc.kw;
    return (ic * bh + ky) * bw + r % desc.kw;
  };
  for (std::int64_t p = 0; p < pc.pairs; ++p) {
    const std::int32_t* tap0 = bordered + tap_offset(2 * p);
    const std::int32_t* tap1 =
        2 * p + 1 < window ? bordered + tap_offset(2 * p + 1) : nullptr;
    std::int16_t* lo = lo_plane + p * pc.stride;
    std::int16_t* hi = hi_plane + p * pc.stride;
    for (const ColumnRun& run : ws.runs) {
      const std::int32_t* src1 = tap1 != nullptr ? tap1 + run.base : nullptr;
      if (desc.stride == 1) {
        split_pair_run<1>(tap0 + run.base, src1, 1, run.len, lo + 2 * run.c0,
                          hi + 2 * run.c0);
      } else {
        split_pair_run<0>(tap0 + run.base, src1, desc.stride, run.len,
                          lo + 2 * run.c0, hi + 2 * run.c0);
      }
    }
    std::fill(lo + 2 * count, lo + pc.stride, 0);
    std::fill(hi + 2 * count, hi + pc.stride, 0);
  }
  return pc;
}

// Blocked GEMM core over the packed columns of `count` output positions
// (all of them, in order, when `positions` is null): accumulates
// acc[oc][c] = bias[oc] + sum_r W[oc][r] * col[r][c] in int64 and hands
// each finished (oc, column-block) accumulator span to `sink(oc, c0,
// accs)`. Parallel over output-channel blocks; sinks touch disjoint data.
// The accumulation runs in the ISA-dispatched pair-MAC kernel
// (conv/gemm_kernel.h) — bit-identical across scalar, AVX2 and AVX-512, so
// the instrumented reference stays the oracle at every level.
template <typename Sink>
void gemm_acc(const ConvDesc& desc, const ConvData& data,
              const std::int64_t* positions, std::int64_t count,
              Sink&& sink) {
  constexpr std::int64_t kEBlock = 512;
  if (count == 0) return;
  const PairColumns cols = pack_columns(desc, *data.input, positions, count);
  std::vector<std::int16_t> w_local;
  if (data.w_pairs == nullptr) w_local = pack_pair_weights(desc, *data.weights);
  const std::int16_t* weights =
      data.w_pairs != nullptr ? data.w_pairs->data() : w_local.data();
  const std::int64_t w_stride = 2 * cols.pairs;
  const std::int64_t padded = cols.stride / 2;
  const std::int64_t oc_blocks = (desc.out_c + kPairRows - 1) / kPairRows;
  parallel_for(oc_blocks, default_thread_count(), [&](std::int64_t ob) {
    const std::int64_t oc0 = ob * kPairRows;
    const std::int64_t oc1 = std::min(oc0 + kPairRows, desc.out_c);
    alignas(64) std::int64_t acc[kPairRows][kEBlock];
    for (std::int64_t e0 = 0; e0 < padded; e0 += kEBlock) {
      const std::int64_t eb = std::min(kEBlock, padded - e0);
      for (std::int64_t j = 0; j < kPairRows; ++j) {
        const std::int64_t init =
            desc.has_bias && oc0 + j < oc1
                ? (*data.bias)[static_cast<std::size_t>(oc0 + j)]
                : 0;
        std::fill(acc[j], acc[j] + eb, init);
      }
      gemm_pair_microkernel(acc[0], kEBlock, eb, cols.lo + 2 * e0,
                            cols.hi + 2 * e0, cols.stride,
                            weights + oc0 * w_stride, w_stride, cols.pairs);
      const std::size_t real =
          static_cast<std::size_t>(std::min(eb, count - e0));
      for (std::int64_t oc = oc0; oc < oc1; ++oc) {
        sink(oc, e0, std::span<const std::int64_t>(acc[oc - oc0], real));
      }
    }
  });
}

}  // namespace

std::vector<std::int16_t> pack_pair_weights(const ConvDesc& desc,
                                            const TensorI32& weights) {
  WF_CHECK(weights.shape() == desc.weight_shape());
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  const std::int64_t row = 2 * ((window + 1) / 2);
  const std::int64_t rows =
      (desc.out_c + kPairRows - 1) / kPairRows * kPairRows;
  std::vector<std::int16_t> packed(static_cast<std::size_t>(rows * row), 0);
  std::uint32_t excess = 0;
  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    const std::int32_t* src = weights.data() + oc * window;
    std::int16_t* dst = packed.data() + oc * row;
    for (std::int64_t r = 0; r < window; ++r) {
      excess |= int16_excess(src[r]);
      dst[r] = static_cast<std::int16_t>(src[r]);
    }
  }
  const bool weights_in_int16_range = excess == 0;
  WF_CHECK(weights_in_int16_range);
  return packed;
}

TensorI32 direct_forward_gemm(const ConvDesc& desc, const ConvData& data) {
  WF_CHECK(data.input && data.weights);
  WF_CHECK(!desc.has_bias || data.bias);
  TensorI32 out(desc.out_shape());
  const std::int64_t e_count = desc.out_h() * desc.out_w();
  std::int32_t* o = out.data();
  gemm_acc(desc, data, nullptr, e_count,
           [&](std::int64_t oc, std::int64_t e0,
               std::span<const std::int64_t> accs) {
             std::int32_t* dst = o + oc * e_count + e0;
             for (std::size_t e = 0; e < accs.size(); ++e) {
               dst[e] = requantize_value(accs[e], data.acc_scale,
                                         data.out_quant);
             }
           });
  return out;
}

void direct_recompute_positions(const ConvDesc& desc, const ConvData& data,
                                std::span<const std::int64_t> positions,
                                TensorI32& out) {
  WF_CHECK(data.input && data.weights);
  WF_CHECK(!desc.has_bias || data.bias);
  WF_CHECK(out.shape() == desc.out_shape());
  const std::int64_t e_count = desc.out_h() * desc.out_w();
  std::int32_t* o = out.data();
  gemm_acc(desc, data, positions.data(),
           static_cast<std::int64_t>(positions.size()),
           [&](std::int64_t oc, std::int64_t c0,
               std::span<const std::int64_t> accs) {
             std::int32_t* dst = o + oc * e_count;
             const std::int64_t* pos = positions.data() + c0;
             for (std::size_t c = 0; c < accs.size(); ++c) {
               dst[pos[c]] = requantize_value(accs[c], data.acc_scale,
                                              data.out_quant);
             }
           });
}

std::int64_t direct_acc_absmax(const ConvDesc& desc, const ConvData& data) {
  std::vector<std::int64_t> per_oc(static_cast<std::size_t>(desc.out_c), 1);
  gemm_acc(desc, data, nullptr, desc.out_h() * desc.out_w(),
           [&](std::int64_t oc, std::int64_t,
               std::span<const std::int64_t> accs) {
             std::int64_t m = per_oc[static_cast<std::size_t>(oc)];
             for (const std::int64_t a : accs) {
               m = std::max(m, a < 0 ? -a : a);
             }
             per_oc[static_cast<std::size_t>(oc)] = m;
           });
  std::int64_t absmax = 1;
  for (const std::int64_t m : per_oc) absmax = std::max(absmax, m);
  return absmax;
}

TensorI32 direct_forward_reference(const ConvDesc& desc,
                                   const ConvData& data) {
  WF_CHECK(data.input && data.weights);
  WF_CHECK(!desc.has_bias || data.bias);
  TensorI32 out(desc.out_shape());
  FaultHookNone hook;
  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    for (std::int64_t oy = 0; oy < desc.out_h(); ++oy) {
      for (std::int64_t ox = 0; ox < desc.out_w(); ++ox) {
        const std::int64_t acc =
            direct_output_acc(desc, data, oc, oy, ox, hook);
        out.at(0, oc, oy, ox) =
            requantize_value(acc, data.acc_scale, data.out_quant);
      }
    }
  }
  return out;
}

OpSpace DirectConvEngine::op_space(const ConvDesc& desc, DType dtype) const {
  const std::int64_t outputs = desc.out_c * desc.out_h() * desc.out_w();
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  OpSpace space;
  space.n_mul = outputs * window;
  space.n_add = outputs * (window + (desc.has_bias ? 1 : 0));
  space.mul_bits = FaultModel::mul_surface_bits(dtype);
  space.add_bits = FaultModel::add_surface_bits(dtype);
  return space;
}

TensorI32 DirectConvEngine::forward(const ConvDesc& desc,
                                    const ConvData& data) const {
  return direct_forward_gemm(desc, data);
}

void DirectConvEngine::apply_faults(const ConvDesc& desc, const ConvData& data,
                                    std::span<const FaultSite> sites,
                                    TensorI32& out) const {
  if (sites.empty()) return;
  WF_CHECK(out.shape() == desc.out_shape());
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  const std::int64_t adds_per = window + (desc.has_bias ? 1 : 0);

  // Group sites by affected output element so each element is recomputed
  // once with all of its flips active (matches the instrumented reference
  // even when several faults land on one output).
  std::vector<std::pair<std::int64_t, FaultSite>> by_element;
  by_element.reserve(sites.size());
  for (const FaultSite& site : sites) {
    const std::int64_t e = site.kind == OpKind::kMul
                               ? site.op_index / window
                               : site.op_index / adds_per;
    by_element.emplace_back(e, site);
  }
  std::stable_sort(by_element.begin(), by_element.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  const std::int64_t ohw = desc.out_h() * desc.out_w();
  std::size_t i = 0;
  std::vector<FaultSite> group;
  while (i < by_element.size()) {
    const std::int64_t e = by_element[i].first;
    group.clear();
    for (; i < by_element.size() && by_element[i].first == e; ++i)
      group.push_back(by_element[i].second);
    const std::int64_t oc = e / ohw;
    const std::int64_t oy = (e % ohw) / desc.out_w();
    const std::int64_t ox = e % desc.out_w();
    SiteFilterHook hook(group);
    const std::int64_t acc = direct_output_acc(desc, data, oc, oy, ox, hook);
    out.at(0, oc, oy, ox) =
        requantize_value(acc, data.acc_scale, data.out_quant);
  }
}

}  // namespace winofault
