#include "core/protect/abft.h"

#include <cmath>

#include "common/logging.h"
#include "conv/direct_conv.h"
#include "conv/fault_hook.h"
#include "fault/fault_model.h"

namespace winofault {
namespace {

// Summed-over-output-channels weight bank: the checksum kernel.
TensorI32 checksum_weights(const ConvDesc& desc, const TensorI32& weights) {
  TensorI32 sum(Shape{1, desc.in_c, desc.kh, desc.kw});
  for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
    for (std::int64_t ic = 0; ic < desc.in_c; ++ic) {
      for (std::int64_t ky = 0; ky < desc.kh; ++ky) {
        for (std::int64_t kx = 0; kx < desc.kw; ++kx) {
          sum.at(0, ic, ky, kx) += weights.at(oc, ic, ky, kx);
        }
      }
    }
  }
  return sum;
}

}  // namespace

std::vector<std::int64_t> ConvAbft::detect(const ConvDesc& desc,
                                           const ConvData& data,
                                           const TensorI32& out) const {
  WF_CHECK(data.input && data.weights);
  const TensorI32 csum_w = checksum_weights(desc, *data.weights);
  ConvDesc csum_desc = desc;
  csum_desc.out_c = 1;
  csum_desc.has_bias = false;
  ConvData csum_data = data.with_weights(csum_w);
  csum_data.bias = nullptr;

  std::int64_t bias_sum = 0;
  if (desc.has_bias) {
    for (const std::int64_t b : *data.bias) bias_sum += b;
  }

  // Worst-case per-channel rounding of requantization is 1/2 quantum, so
  // the channel sum can legitimately drift by OC/2 quanta (+ margin).
  const std::int64_t threshold =
      (desc.out_c + 1) / 2 + tolerance_steps_;

  std::vector<std::int64_t> flagged;
  FaultHookNone hook;
  const double to_steps = data.acc_scale / data.out_quant.scale;
  for (std::int64_t oy = 0; oy < desc.out_h(); ++oy) {
    for (std::int64_t ox = 0; ox < desc.out_w(); ++ox) {
      const std::int64_t checksum_acc =
          direct_output_acc(csum_desc, csum_data, 0, oy, ox, hook) + bias_sum;
      const std::int64_t predicted = static_cast<std::int64_t>(
          std::llround(static_cast<double>(checksum_acc) * to_steps));
      std::int64_t observed = 0;
      for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
        observed += out.at(0, oc, oy, ox);
      }
      if (std::llabs(observed - predicted) > threshold) {
        flagged.push_back(oy * desc.out_w() + ox);
      }
    }
  }
  return flagged;
}

AbftResult ConvAbft::protect(const ConvDesc& desc, const ConvData& data,
                             TensorI32& out) const {
  AbftResult result;
  const std::vector<std::int64_t> flagged = detect(desc, data, out);
  result.flagged_pixels = static_cast<std::int64_t>(flagged.size());
  FaultHookNone hook;
  for (const std::int64_t pixel : flagged) {
    const std::int64_t oy = pixel / desc.out_w();
    const std::int64_t ox = pixel % desc.out_w();
    for (std::int64_t oc = 0; oc < desc.out_c; ++oc) {
      const std::int64_t acc = direct_output_acc(desc, data, oc, oy, ox, hook);
      const std::int32_t clean =
          requantize_value(acc, data.acc_scale, data.out_quant);
      if (out.at(0, oc, oy, ox) != clean) {
        out.at(0, oc, oy, ox) = clean;
        ++result.corrected_values;
      }
    }
  }
  return result;
}

OpSpace ConvAbft::overhead_ops(const ConvDesc& desc, DType dtype) const {
  const std::int64_t pixels = desc.out_h() * desc.out_w();
  const std::int64_t window = desc.in_c * desc.kh * desc.kw;
  OpSpace space;
  // Checksum-channel convolution (the checksum kernel itself is folded
  // offline, like the Winograd filter transform).
  space.n_mul = pixels * window;
  space.n_add = pixels * window;
  // Channel-sum reduction + compare per pixel.
  space.n_add += pixels * desc.out_c + pixels;
  space.mul_bits = FaultModel::mul_surface_bits(dtype);
  space.add_bits = FaultModel::add_surface_bits(dtype);
  return space;
}

}  // namespace winofault
