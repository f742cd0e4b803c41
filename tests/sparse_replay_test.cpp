// Equivalence proofs for index-propagating sparse replay: forward_replay
// with the sparse paths enabled (changed-index sets flowing through relu /
// pool / eltwise / concat, and conv patching via replay_delta) must be
// bit-identical to BOTH the dense-recompute replay (sparse disabled) and a
// scratch forward with the same fault session — on graphs where the dirty
// cone crosses pooling, residual Adds, and channel-concatenations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "fault/site_sampler.h"
#include "nn/dataset.h"
#include "nn/layers/conv_layer.h"
#include "nn/evaluator.h"
#include "nn/network.h"
#include "test_util.h"

namespace winofault {
namespace {

// This suite asserts the numeric semantics of the built-in flip@op
// injector (expected flip counts, degradation curves). Pin the built-in
// model so the registry-model CI leg (WINOFAULT_FAULT_MODEL) can run the
// full suite without changing what this file tests.
const bool kBuiltinModelPinned = [] {
  unsetenv("WINOFAULT_FAULT_MODEL");
  return true;
}();

using testing::expect_tensors_equal;

// Restores the process-wide default even when an assertion bails out of a
// test mid-loop.
struct SparseGuard {
  ~SparseGuard() { set_sparse_replay_enabled(true); }
};

// Residual graph: the cone from the trunk conv reaches the Add through two
// paths of different depth, and pooling shrinks the index sets downstream.
Network eltwise_net() {
  Network net("sparse-eltwise", DType::kInt16);
  Rng rng(171);
  int x = net.add_input(Shape{1, 3, 12, 12});
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  const int trunk = net.add_conv(x, 8, 3, 1, 1, rng);
  const int branch = net.add_conv(trunk, 8, 3, 1, 1, rng);
  x = net.add_add(trunk, branch);
  x = net.add_maxpool(x, 2, 2);
  x = net.add_conv(x, 12, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 18));
  return net;
}

// Concat graph: two conv branches of different widths merge channel-wise,
// so a dirty cone entering from branch B must re-base its indices by A's
// channel count — the concat edge case the index propagation must get
// right. Branch convs are most of the protectable layers, so nearly every
// faulted trial drives a cone across the concat.
Network concat_net() {
  Network net("sparse-concat", DType::kInt16);
  Rng rng(173);
  int x = net.add_input(Shape{1, 3, 12, 12});
  const int stem = net.add_conv(x, 6, 3, 1, 1, rng);
  const int a = net.add_conv(stem, 4, 3, 1, 1, rng);
  const int b = net.add_conv(stem, 6, 5, 1, 2, rng);
  x = net.add_concat({a, b});
  x = net.add_conv(x, 10, 3, 1, 1, rng);
  x = net.add_avgpool(x, 2, 2);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 19));
  return net;
}

// Pool-heavy graph: max, avg, and global-avg pooling back to back, with
// padding so window marking must respect edge clamping.
Network pool_net() {
  Network net("sparse-pool", DType::kInt16);
  Rng rng(177);
  int x = net.add_input(Shape{1, 3, 16, 16});
  x = net.add_conv(x, 8, 3, 1, 1, rng);
  x = net.add_maxpool(x, 3, 2, 1);
  x = net.add_conv(x, 12, 3, 1, 1, rng);
  x = net.add_avgpool(x, 2, 2);
  x = net.add_conv(x, 12, 3, 1, 1, rng);
  x = net.add_global_avgpool(x);
  x = net.add_flatten(x);
  x = net.add_linear(x, 5, rng);
  net.set_output(x);
  net.calibrate(make_images(net.input_shape(), 3, 20));
  return net;
}

// For each (policy, image, seed): scratch forward, dense replay (sparse
// disabled), and sparse replay must all be bit-identical with identical
// flip accounting. Returns how many trials actually flipped bits, so
// callers can assert the sweep wasn't vacuously fault-free.
int check_sparse_dense_scratch(const Network& net, const FaultConfig& config,
                               int seeds, const char* what) {
  SparseGuard guard;
  int faulted_trials = 0;
  const std::vector<TensorF> images = make_images(net.input_shape(), 2, 91);
  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2, ConvPolicy::kWinograd4}) {
    for (const TensorF& image : images) {
      const GoldenCache golden = net.make_golden(image, policy);
      for (int seed = 1; seed <= seeds; ++seed) {
        FaultSession scratch_session(config, static_cast<std::uint64_t>(seed));
        ExecContext ctx;
        ctx.policy = policy;
        ctx.session = &scratch_session;
        const TensorI32 scratch = net.forward(image, ctx);

        set_sparse_replay_enabled(false);
        FaultSession dense_session(config, static_cast<std::uint64_t>(seed));
        const TensorI32 dense = net.forward_replay(golden, dense_session);

        set_sparse_replay_enabled(true);
        FaultSession sparse_session(config, static_cast<std::uint64_t>(seed));
        const TensorI32 sparse = net.forward_replay(golden, sparse_session);

        expect_tensors_equal(scratch, dense, what);
        expect_tensors_equal(dense, sparse, what);
        EXPECT_EQ(dense_session.total_flips(), sparse_session.total_flips())
            << what << " flip accounting (seed " << seed << ")";
        faulted_trials += sparse_session.total_flips() > 0;
      }
    }
  }
  return faulted_trials;
}

TEST(SparseReplay, EltwiseGraphNeuronFaults) {
  const Network net = eltwise_net();
  FaultConfig config;
  config.ber = 1e-4;
  config.mode = InjectionMode::kNeuronLevel;
  EXPECT_GT(check_sparse_dense_scratch(net, config, 12, "eltwise neuron"),
            20);
}

TEST(SparseReplay, EltwiseGraphOpFaults) {
  const Network net = eltwise_net();
  FaultConfig config;
  config.ber = 1e-6;
  EXPECT_GT(check_sparse_dense_scratch(net, config, 12, "eltwise op"), 10);
}

TEST(SparseReplay, ConeCrossesConcat) {
  const Network net = concat_net();
  FaultConfig config;
  config.ber = 1e-4;
  config.mode = InjectionMode::kNeuronLevel;
  EXPECT_GT(check_sparse_dense_scratch(net, config, 16, "concat neuron"),
            25);
}

TEST(SparseReplay, ConcatGraphOpFaults) {
  const Network net = concat_net();
  FaultConfig config;
  config.ber = 1e-6;
  EXPECT_GT(check_sparse_dense_scratch(net, config, 12, "concat op"), 10);
}

TEST(SparseReplay, PoolGraphBothModes) {
  const Network net = pool_net();
  FaultConfig neuron;
  neuron.ber = 1e-4;
  neuron.mode = InjectionMode::kNeuronLevel;
  EXPECT_GT(check_sparse_dense_scratch(net, neuron, 10, "pool neuron"), 15);
  FaultConfig op;
  op.ber = 1e-6;
  EXPECT_GT(check_sparse_dense_scratch(net, op, 10, "pool op"), 8);
}

TEST(SparseReplay, HighFootprintFallsBackDenseAndStaysExact) {
  // A destruction-adjacent BER makes nearly every index dirty: the sparse
  // paths must bail to dense recomputes without changing a bit.
  const Network net = pool_net();
  FaultConfig config;
  config.ber = 1e-3;
  config.mode = InjectionMode::kNeuronLevel;
  EXPECT_GT(check_sparse_dense_scratch(net, config, 6, "high footprint"),
            30);
}

// ConvLayer::replay_delta recomputes the marked output positions through
// gathered GEMM columns at every marked fraction. Fractions just below and
// above 25% and 50% (where a direct and a Winograd layer once switched to
// a dense recompute) must equal the scratch path: a dense forward of the
// perturbed input with the same sites applied.
TEST(SparseReplay, ReplayDeltaAcrossFormerDenseCutoversMatchesScratch) {
  ConvDesc desc;
  desc.in_c = 4;
  desc.in_h = desc.in_w = 16;
  desc.out_c = 6;
  Rng rng(0xC11F);
  TensorF weights(desc.weight_shape());
  for (auto& v : weights.flat()) {
    v = static_cast<float>(rng.next_below(2001)) / 1000.0f - 1.0f;
  }
  std::vector<float> bias(static_cast<std::size_t>(desc.out_c));
  for (auto& b : bias) b = static_cast<float>(rng.next_below(101)) / 100.0f;
  const ConvLayer layer(desc, weights, bias, DType::kInt16);
  NodeOutput clean{TensorI32(desc.in_shape()), QuantParams{1.0 / 4096,
                                                           DType::kInt16}};
  for (auto& v : clean.tensor.flat()) {
    v = static_cast<std::int32_t>(rng.next_below(16001)) - 8000;
  }
  const QuantParams out_quant{0.05, DType::kInt16};
  const std::int64_t ohw = desc.out_h() * desc.out_w();
  // Output positions a changed input pixel marks (3x3, pad 1, stride 1).
  const auto mark = [&](std::vector<char>& marked, std::int64_t y,
                        std::int64_t x) {
    std::int64_t added = 0;
    for (std::int64_t oy = std::max<std::int64_t>(y - 1, 0);
         oy <= std::min(y + 1, desc.out_h() - 1); ++oy) {
      for (std::int64_t ox = std::max<std::int64_t>(x - 1, 0);
           ox <= std::min(x + 1, desc.out_w() - 1); ++ox) {
        char& m = marked[static_cast<std::size_t>(oy * desc.out_w() + ox)];
        added += m == 0;
        m = 1;
      }
    }
    return added;
  };

  for (const ConvPolicy policy :
       {ConvPolicy::kDirect, ConvPolicy::kWinograd2}) {
    ExecContext ctx;
    ctx.policy = policy;
    const NodeOutput* clean_in[] = {&clean};
    const TensorI32 golden = layer.forward(clean_in, out_quant, ctx, -1);
    const OpSpace space = layer.op_space(DType::kInt16, policy);
    const SiteSampler sampler(FaultModel{8.0 / space.total_bits()});
    // [lo, hi] marked-position windows around 25% and 50% of 256.
    for (const auto& [lo, hi] : {std::pair<std::int64_t, std::int64_t>{58, 63},
                                 {65, 70},
                                 {122, 127},
                                 {129, 134}}) {
      // Greedily perturb pixels in a shuffled order while the marked count
      // stays within the window's upper bound.
      std::vector<std::int64_t> order(static_cast<std::size_t>(ohw));
      for (std::int64_t i = 0; i < ohw; ++i) {
        order[static_cast<std::size_t>(i)] = i;
      }
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.next_below(i + 1)]);
      }
      std::vector<char> marked(static_cast<std::size_t>(ohw), 0);
      std::int64_t count = 0;
      NodeOutput perturbed = clean;
      std::vector<std::int64_t> changed;
      for (const std::int64_t pixel : order) {
        if (count >= lo) break;
        std::vector<char> trial = marked;
        const std::int64_t added =
            mark(trial, pixel / desc.in_w, pixel % desc.in_w);
        if (count + added > hi) continue;
        marked = std::move(trial);
        count += added;
        const std::int64_t ic = pixel % desc.in_c;
        const std::int64_t flat = ic * desc.in_h * desc.in_w + pixel;
        perturbed.tensor[flat] = -perturbed.tensor[flat] + 17;
        changed.push_back(flat);
      }
      ASSERT_GE(count, lo);
      ASSERT_LE(count, hi);
      std::sort(changed.begin(), changed.end());
      for (int trial = 0; trial < 3; ++trial) {
        const std::vector<FaultSite> sites = sampler.sample(space, rng);
        const NodeOutput* perturbed_in[] = {&perturbed};
        const TensorI32 scratch = layer.forward_replay(
            perturbed_in, out_quant, policy, sites, nullptr);
        const TensorI32 delta = layer.replay_delta(
            perturbed, out_quant, policy, sites, golden, changed);
        SCOPED_TRACE(std::string(conv_policy_name(policy)) + " marked " +
                     std::to_string(count) + "/" + std::to_string(ohw));
        expect_tensors_equal(delta, scratch, "replay_delta vs scratch");
      }
    }
  }
}

TEST(SparseReplay, ToggleRoundTrip) {
  EXPECT_TRUE(sparse_replay_enabled());
  set_sparse_replay_enabled(false);
  EXPECT_FALSE(sparse_replay_enabled());
  set_sparse_replay_enabled(true);
  EXPECT_TRUE(sparse_replay_enabled());
}

}  // namespace
}  // namespace winofault
