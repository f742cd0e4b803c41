#include "nn/fault_session.h"

#include "conv/direct_conv.h"
#include "nn/network.h"

namespace winofault {
namespace {

// Shared by the scratch path (apply) and the pre-sampling path (plan):
// binomial count over `bit_space` then uniform (index, bit) draws — the
// identical draw sequence both sides must make for replay to be
// bit-identical to scratch injection.
template <typename FaultT>
std::int64_t sample_cell_faults(Rng& rng, std::int64_t units, int width,
                                double ber, std::vector<FaultT>* out) {
  if (units <= 0) return 0;
  const std::int64_t bit_space = units * width;
  const std::int64_t flips = rng.binomial(bit_space, ber);
  out->reserve(out->size() + static_cast<std::size_t>(flips));
  for (std::int64_t i = 0; i < flips; ++i) {
    const std::uint64_t draw =
        rng.next_below(static_cast<std::uint64_t>(bit_space));
    out->push_back(FaultT{static_cast<std::int64_t>(draw) / width,
                          static_cast<int>(draw % width)});
  }
  return flips;
}

}  // namespace

void FaultSession::apply(int prot_index, const ConvEngine& engine,
                         const ConvDesc& desc, const ConvData& data,
                         TensorI32& out) {
  if (config_.ber <= 0.0) return;
  if (prot_index == config_.fault_free_layer) return;
  // Permanent silicon models inject through the campaign's FaultOverlay
  // (applied during the forward itself); the session samples nothing.
  if (config_.model.uses_overlay()) return;

  if (config_.model.target == FaultTarget::kWeight) {
    // Transient weight-memory upsets: corrupt a copy of the quantized
    // weights, then recompute this layer densely. The direct GEMM is the
    // policy-independent reference (fault-free outputs are bit-identical
    // across engines for ANY weights); the cached banks are derived from
    // the CLEAN weights, so with_weights drops them.
    const int width = bit_width(data.dtype);
    std::vector<WeightFault> faults;
    total_flips_ += sample_cell_faults(rng_, data.weights->numel(), width,
                                       config_.ber, &faults);
    if (faults.empty()) return;
    TensorI32 corrupted = *data.weights;
    for (const WeightFault& f : faults) {
      corrupted[f.index] = static_cast<std::int32_t>(
          apply_fault_kind(config_.model.kind, corrupted[f.index], f.bit,
                           width));
    }
    out = direct_forward_gemm(desc, data.with_weights(corrupted));
    return;
  }

  if (config_.model.target == FaultTarget::kAccum) {
    // Transient accumulator-register upsets: each output element is struck
    // while resident in its PE's accumulator, so the sample space is the
    // output tensor's bits at the stored width.
    const int width = bit_width(data.dtype);
    std::vector<NeuronFault> faults;
    total_flips_ +=
        sample_cell_faults(rng_, out.numel(), width, config_.ber, &faults);
    for (const NeuronFault& f : faults) {
      out[f.index] = static_cast<std::int32_t>(
          apply_fault_kind(config_.model.kind, out[f.index], f.bit, width));
    }
    return;
  }

  if (config_.mode == InjectionMode::kNeuronLevel) {
    // Neuron-level platforms flip stored activation bits; they see the same
    // tensor regardless of the convolution algorithm underneath — the very
    // blindness Fig 1 demonstrates.
    NeuronInjector injector(config_.ber, data.dtype);
    total_flips_ += injector.inject(out, rng_);
    return;
  }

  const OpSpace space = engine.op_space(desc, data.dtype);
  const ProtectionSet* protection = nullptr;
  if (const auto it = config_.protection.find(prot_index);
      it != config_.protection.end()) {
    protection = &it->second;
  }
  std::vector<FaultSite> sites;
  if (config_.only_kind.has_value()) {
    sites = sampler_.sample_kind(space, *config_.only_kind, rng_, protection);
  } else {
    sites = sampler_.sample(space, rng_, protection);
  }
  total_flips_ += static_cast<std::int64_t>(sites.size());
  engine.apply_faults(desc, data, sites, out);
}

FaultPlan FaultSession::plan(const Network& network, ConvPolicy policy) {
  FaultPlan plan;
  plan.layers.resize(static_cast<std::size_t>(network.num_protectable()));
  // Per layer, this mirrors apply()'s draw sequence exactly (including its
  // early-outs, which draw nothing); layers execute in ordinal order, so the
  // RNG stream matches a scratch forward bit-for-bit.
  for (int p = 0; p < network.num_protectable(); ++p) {
    if (config_.ber <= 0.0) continue;
    if (p == config_.fault_free_layer) continue;
    if (config_.model.uses_overlay()) continue;  // overlay injects, not us
    FaultPlan::LayerFaults& faults = plan.layers[static_cast<std::size_t>(p)];

    if (config_.model.target == FaultTarget::kWeight) {
      const int width = bit_width(network.dtype());
      total_flips_ +=
          sample_cell_faults(rng_, network.protectable_param_count(p), width,
                             config_.ber, &faults.weights);
    } else if (config_.model.target == FaultTarget::kAccum) {
      const int width = bit_width(network.dtype());
      total_flips_ +=
          sample_cell_faults(rng_, network.protectable_shape(p).numel(),
                             width, config_.ber, &faults.accums);
    } else if (config_.mode == InjectionMode::kNeuronLevel) {
      const int width = bit_width(network.dtype());
      const std::int64_t numel = network.protectable_shape(p).numel();
      if (numel == 0) continue;
      const std::int64_t bit_space = numel * width;
      const std::int64_t flips = rng_.binomial(bit_space, config_.ber);
      faults.neurons.reserve(static_cast<std::size_t>(flips));
      for (std::int64_t i = 0; i < flips; ++i) {
        const std::uint64_t draw =
            rng_.next_below(static_cast<std::uint64_t>(bit_space));
        faults.neurons.push_back(
            NeuronFault{static_cast<std::int64_t>(draw) / width,
                        static_cast<int>(draw % width)});
      }
      total_flips_ += flips;
    } else {
      const OpSpace space = network.protectable_op_space(p, policy);
      const ProtectionSet* protection = nullptr;
      if (const auto it = config_.protection.find(p);
          it != config_.protection.end()) {
        protection = &it->second;
      }
      if (config_.only_kind.has_value()) {
        faults.sites =
            sampler_.sample_kind(space, *config_.only_kind, rng_, protection);
      } else {
        faults.sites = sampler_.sample(space, rng_, protection);
      }
      total_flips_ += static_cast<std::int64_t>(faults.sites.size());
    }
    if (faults.faulted() && plan.first_faulted < 0) plan.first_faulted = p;
  }
  return plan;
}

}  // namespace winofault
