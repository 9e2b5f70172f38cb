// Finite-difference gradient checks and semantic tests for every dense
// autodiff op. These are the foundation the souping results rest on: if
// Eq. 4's gradients are right here, LS/PLS optimise the true objective.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ag/loss.hpp"
#include "ag/ops.hpp"
#include "ag/value.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gsoup {
namespace {

using testing::check_gradients;

Tensor random_tensor(Shape shape, Rng& rng, float scale = 1.0f) {
  Tensor t = Tensor::empty(std::move(shape));
  init::normal(t, rng, 0.0f, scale);
  return t;
}

TEST(Value, LeafAndConstantSemantics) {
  auto leaf = ag::make_leaf(Tensor::of({1.0f, 2.0f}), true);
  auto con = ag::constant(Tensor::of({3.0f}));
  EXPECT_TRUE(leaf->requires_grad);
  EXPECT_FALSE(con->requires_grad);
  EXPECT_FALSE(leaf->grad.defined());
  leaf->ensure_grad();
  EXPECT_TRUE(leaf->grad.defined());
  EXPECT_EQ(leaf->grad.numel(), 2);
  EXPECT_FLOAT_EQ(leaf->grad.at(0), 0.0f);
}

TEST(Value, BackwardRequiresScalar) {
  auto leaf = ag::make_leaf(Tensor::of({1.0f, 2.0f}), true);
  auto doubled = ag::scale(leaf, 2.0f);
  EXPECT_THROW(ag::backward(doubled), CheckError);
}

TEST(Value, BackwardAccumulatesThroughDiamond) {
  // loss = sum(x + x): gradient must be 2 everywhere (diamond reuse).
  auto x = ag::make_leaf(Tensor::of({1.0f, -2.0f, 3.0f}), true);
  auto loss = ag::sum(ag::add(x, x));
  ag::backward(loss);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(x->grad.at(i), 2.0f);
  }
}

TEST(Value, NoGradGuardSkipsTape) {
  auto x = ag::make_leaf(Tensor::of({1.0f}), true);
  ag::NoGradGuard guard;
  auto y = ag::scale(x, 3.0f);
  EXPECT_FALSE(y->requires_grad);
  EXPECT_TRUE(y->parents.empty());
}

TEST(Value, InferenceModeRestoresOnScopeExit) {
  EXPECT_TRUE(ag::grad_enabled());
  {
    ag::NoGradGuard guard;
    EXPECT_FALSE(ag::grad_enabled());
    {
      ag::NoGradGuard nested;
      EXPECT_FALSE(ag::grad_enabled());
    }
    EXPECT_FALSE(ag::grad_enabled());
  }
  EXPECT_TRUE(ag::grad_enabled());
}

TEST(AutogradOps, MatmulGradient) {
  Rng rng(1);
  auto a = ag::make_leaf(random_tensor({3, 4}, rng), true);
  auto b = ag::make_leaf(random_tensor({4, 2}, rng), true);
  const std::vector<ag::Value> leaves{a, b};
  check_gradients([&] { return ag::sum(ag::matmul(a, b)); }, leaves);
}

TEST(AutogradOps, MatmulChainGradient) {
  Rng rng(2);
  auto a = ag::make_leaf(random_tensor({2, 3}, rng, 0.5f), true);
  auto b = ag::make_leaf(random_tensor({3, 3}, rng, 0.5f), true);
  auto c = ag::make_leaf(random_tensor({3, 2}, rng, 0.5f), true);
  const std::vector<ag::Value> leaves{a, b, c};
  check_gradients(
      [&] { return ag::sum(ag::matmul(ag::matmul(a, b), c)); }, leaves);
}

TEST(AutogradOps, AddAndScaleGradient) {
  Rng rng(3);
  auto a = ag::make_leaf(random_tensor({4, 3}, rng), true);
  auto b = ag::make_leaf(random_tensor({4, 3}, rng), true);
  const std::vector<ag::Value> leaves{a, b};
  check_gradients(
      [&] { return ag::sum(ag::add(ag::scale(a, 2.5f), b)); }, leaves);
}

TEST(AutogradOps, AddBiasGradient) {
  Rng rng(4);
  auto x = ag::make_leaf(random_tensor({5, 3}, rng), true);
  auto b = ag::make_leaf(random_tensor({3}, rng), true);
  const std::vector<ag::Value> leaves{x, b};
  check_gradients([&] { return ag::sum(ag::add_bias(x, b)); }, leaves);
}

TEST(AutogradOps, ReluGradient) {
  // Values away from the kink so finite differences are valid.
  auto x = ag::make_leaf(Tensor::of({-1.5f, -0.4f, 0.3f, 2.0f}), true);
  const std::vector<ag::Value> leaves{x};
  check_gradients([&] { return ag::sum(ag::relu(x)); }, leaves);
}

TEST(AutogradOps, EluGradient) {
  auto x = ag::make_leaf(Tensor::of({-2.0f, -0.5f, 0.4f, 1.5f}), true);
  const std::vector<ag::Value> leaves{x};
  check_gradients([&] { return ag::sum(ag::elu(x)); }, leaves);
}

TEST(AutogradOps, LeakyReluGradient) {
  auto x = ag::make_leaf(Tensor::of({-2.0f, -0.5f, 0.4f, 1.5f}), true);
  const std::vector<ag::Value> leaves{x};
  check_gradients([&] { return ag::sum(ag::leaky_relu(x, 0.2f)); }, leaves);
}

TEST(AutogradOps, HeadMeanGradient) {
  Rng rng(5);
  auto x = ag::make_leaf(random_tensor({3, 6}, rng), true);  // 2 heads × 3
  const std::vector<ag::Value> leaves{x};
  check_gradients([&] { return ag::sum(ag::head_mean(x, 2)); }, leaves);
}

TEST(AutogradOps, HeadMeanValue) {
  auto x = ag::make_leaf(
      Tensor::from_vector({1, 2, 3, 5, 6, 7}, {1, 6}), false);
  auto y = ag::head_mean(x, 2);
  EXPECT_FLOAT_EQ(y->value.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y->value.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(y->value.at(0, 2), 5.0f);
}

TEST(AutogradOps, VecSoftmaxGradient) {
  auto x = ag::make_leaf(Tensor::of({0.5f, -1.0f, 2.0f, 0.1f}), true);
  // Distinct scalar "ingredients" give each softmax output its own
  // upstream gradient, exercising the full jacobian.
  const std::vector<Tensor> scalars{Tensor::of({3.0f}), Tensor::of({-1.0f}),
                                    Tensor::of({2.0f}), Tensor::of({0.5f})};
  const std::vector<ag::Value> leaves{x};
  check_gradients(
      [&] {
        auto s = ag::vec_softmax(x);
        return ag::sum(ag::linear_combination(scalars, s));
      },
      leaves, 1e-2f, 5e-3f, 5e-2f);
}

TEST(AutogradOps, VecSoftmaxSumsToOne) {
  auto x = ag::make_leaf(Tensor::of({2.0f, -3.0f, 0.7f}), true);
  auto s = ag::vec_softmax(x);
  float total = 0.0f;
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_GT(s->value.at(i), 0.0f);
    total += s->value.at(i);
  }
  EXPECT_NEAR(total, 1.0f, 1e-6f);
}

TEST(AutogradOps, PerHeadDotGradient) {
  Rng rng(6);
  auto x = ag::make_leaf(random_tensor({4, 6}, rng), true);
  auto a = ag::make_leaf(random_tensor({6}, rng), true);
  const std::vector<ag::Value> leaves{x, a};
  check_gradients([&] { return ag::sum(ag::per_head_dot(x, a, 2)); },
                  leaves);
}

TEST(AutogradOps, PerHeadDotValue) {
  // One node, two heads of width 2: s[0] = 1*1+2*2 = 5, s[1] = 3*(-1)+4*0.
  auto x = ag::make_leaf(Tensor::from_vector({1, 2, 3, 4}, {1, 4}), false);
  auto a = ag::make_leaf(Tensor::of({1, 2, -1, 0}), false);
  auto s = ag::per_head_dot(x, a, 2);
  EXPECT_FLOAT_EQ(s->value.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(s->value.at(0, 1), -3.0f);
}

TEST(AutogradOps, LinearCombinationGradient) {
  Rng rng(7);
  const std::vector<Tensor> ingredients{random_tensor({3, 2}, rng),
                                        random_tensor({3, 2}, rng),
                                        random_tensor({3, 2}, rng)};
  auto w = ag::make_leaf(Tensor::of({0.2f, 0.5f, -0.1f}), true);
  const std::vector<ag::Value> leaves{w};
  check_gradients(
      [&] { return ag::sum(ag::linear_combination(ingredients, w)); },
      leaves);
}

TEST(AutogradOps, LinearCombinationValue) {
  const std::vector<Tensor> ingredients{Tensor::full({2, 2}, 1.0f),
                                        Tensor::full({2, 2}, 10.0f)};
  auto w = ag::make_leaf(Tensor::of({0.5f, 0.25f}), false);
  auto out = ag::linear_combination(ingredients, w);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(out->value.at(i), 3.0f);
  }
}

TEST(AutogradOps, SoftmaxedCombinationGradient) {
  // The exact composite LS uses: Σ softmax(logits)_i · W_i feeding a loss.
  Rng rng(8);
  const std::vector<Tensor> ingredients{random_tensor({4, 3}, rng),
                                        random_tensor({4, 3}, rng),
                                        random_tensor({4, 3}, rng),
                                        random_tensor({4, 3}, rng)};
  auto logits = ag::make_leaf(random_tensor({4}, rng), true);
  const std::vector<ag::Value> leaves{logits};
  check_gradients(
      [&] {
        auto weights = ag::vec_softmax(logits);
        return ag::sum(ag::linear_combination(ingredients, weights));
      },
      leaves);
}

TEST(AutogradOps, DropoutTrainEvalSemantics) {
  Rng rng(9);
  auto x = ag::make_leaf(Tensor::full({64, 8}, 1.0f), true);
  // Eval mode: identity (same node).
  auto eval_out = ag::dropout(x, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(eval_out.get(), x.get());
  // Train mode: survivors scaled by 1/keep, expectation preserved.
  auto train_out = ag::dropout(x, 0.5f, rng, /*training=*/true);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < train_out->value.numel(); ++i) {
    const float v = train_out->value.at(i);
    EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-6f);
    zeros += v == 0.0f ? 1 : 0;
  }
  // With 512 elements and p = 0.5 the zero count concentrates near 256.
  EXPECT_GT(zeros, 150);
  EXPECT_LT(zeros, 360);
}

TEST(AutogradOps, DropoutGradientMatchesMask) {
  Rng rng(10);
  auto x = ag::make_leaf(Tensor::full({8, 4}, 3.0f), true);
  auto out = ag::dropout(x, 0.25f, rng, true);
  auto loss = ag::sum(out);
  ag::backward(loss);
  for (std::int64_t i = 0; i < x->value.numel(); ++i) {
    const float g = x->grad.at(i);
    const float o = out->value.at(i);
    if (o == 0.0f) {
      EXPECT_FLOAT_EQ(g, 0.0f);
    } else {
      EXPECT_NEAR(g, 1.0f / 0.75f, 1e-5f);
    }
  }
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

/// The dropout formulation the tape reproduces bit for bit: a float mask of
/// per-element rng.bernoulli(keep) draws in element order, then a multiply.
Tensor reference_dropout_mask(std::int64_t n, float p, Rng& rng) {
  const float keep = 1.0f - p;
  const float inv_keep = 1.0f / keep;
  Tensor mask = Tensor::empty({n, 1});
  for (std::int64_t i = 0; i < n; ++i) {
    mask.at(i) = rng.bernoulli(keep) ? inv_keep : 0.0f;
  }
  return mask;
}

TEST(AutogradOps, DropoutMatchesPerElementBernoulliStreamBitwise) {
  for (const std::int64_t n : {1, 255, 256, 257, 10000}) {
    for (const float p : {0.1f, 0.3f, 0.5f, 0.9f}) {
      for (const bool dropout_first : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p
                                          << " dropout_first="
                                          << dropout_first);
        Rng data(static_cast<std::uint64_t>(n) * 131 + 7);
        auto x = ag::make_leaf(random_tensor({n, 1}, data), true);
        auto w = ag::constant(random_tensor({3, n}, data));
        auto v = ag::constant(random_tensor({3, n}, data));
        Rng rng(static_cast<std::uint64_t>(1000 * p) + n);
        Rng ref_rng = rng;

        // x feeds the dropout and a second matmul, so its gradient takes
        // two contributions; the operand order of the final add decides
        // whether the dropout's is the first or the second.
        auto dropped = ag::dropout(x, p, rng, /*training=*/true);
        auto through_dropout = ag::matmul(w, dropped);
        auto direct = ag::matmul(v, x);
        ag::backward(ag::sum(dropout_first ? ag::add(direct, through_dropout)
                                           : ag::add(through_dropout, direct)));

        const Tensor mask = reference_dropout_mask(n, p, ref_rng);
        EXPECT_TRUE(bits_equal(dropped->value, ops::mul(x->value, mask)));
        // The generator ends where the per-element loop leaves it.
        for (int draw = 0; draw < 4; ++draw) EXPECT_EQ(rng(), ref_rng());

        // Old backward: each contribution added into a zeroed gradient.
        const Tensor ones = Tensor::full({3, 1}, 1.0f);
        const Tensor via_dropout =
            ops::mul(ops::matmul_tn(w->value, ones), mask);
        const Tensor via_direct = ops::matmul_tn(v->value, ones);
        Tensor expected = Tensor::zeros({n, 1});
        expected.add_(dropout_first ? via_dropout : via_direct);
        expected.add_(dropout_first ? via_direct : via_dropout);
        EXPECT_TRUE(bits_equal(x->grad, expected));
      }
    }
  }
}

TEST(AutogradOps, GradientHandOverSumsPathsWithoutSharingStorage) {
  Rng rng(41);
  auto h = ag::make_leaf(random_tensor({70, 24}, rng), true);
  auto w1 = ag::make_leaf(random_tensor({24, 24}, rng), true);
  auto w2 = ag::make_leaf(random_tensor({24, 24}, rng), true);
  // h feeds two matmuls and an add.
  auto p1 = ag::matmul(h, w1);
  auto p2 = ag::matmul(h, w2);
  auto both = ag::add(p1, p2);
  auto out = ag::add(both, h);
  ag::backward(ag::sum(out));

  // Reverse topological order: the outer add reaches h first, then the
  // second matmul, then the first.
  const Tensor ones = Tensor::full({70, 24}, 1.0f);
  Tensor expected = Tensor::zeros({70, 24});
  expected.add_(ones);
  expected.add_(ops::matmul_nt(ones, w2->value));
  expected.add_(ops::matmul_nt(ones, w1->value));
  EXPECT_TRUE(bits_equal(h->grad, expected));
  Tensor w1_expected = Tensor::zeros({24, 24});
  w1_expected.add_(ops::matmul_tn(h->value, ones));
  EXPECT_TRUE(bits_equal(w1->grad, w1_expected));

  // Path-sum check independent of the order argument above.
  Tensor paths = ops::matmul_nt(ones, w1->value);
  paths.add_(ops::matmul_nt(ones, w2->value));
  paths.add_(ones);
  EXPECT_LE(ops::max_abs_diff(h->grad, paths), 1e-5f);

  // Every gradient owns its storage: writing one leaves the rest as is.
  const std::vector<ag::Value> nodes{h, w1, w2, p1, p2, both, out};
  for (const auto& target : nodes) {
    std::vector<Tensor> before;
    for (const auto& node : nodes) before.push_back(node->grad.clone());
    target->grad.fill_(123.0f);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == target) continue;
      EXPECT_FALSE(nodes[i]->grad.shares_storage_with(target->grad));
      EXPECT_TRUE(bits_equal(nodes[i]->grad, before[i]));
    }
  }
}

TEST(AutogradOps, AddBiasAndReluGradientsMatchSerialLoopsBitwise) {
  Rng rng(43);
  auto x = ag::make_leaf(random_tensor({300, 40}, rng), true);
  auto bias = ag::make_leaf(random_tensor({40}, rng), true);
  auto w = ag::constant(random_tensor({40, 5}, rng));
  // x also feeds a relu directly. With the direct branch as the add's
  // first operand the backward reaches x through add_bias first, so that
  // relu's contribution lands on an existing gradient while the other
  // relu's is its node's first.
  auto y = ag::relu(ag::add_bias(x, bias));
  ag::backward(ag::sum(ag::add(ag::matmul(ag::relu(x), w), ag::matmul(y, w))));

  const Tensor g = ops::matmul_nt(Tensor::full({300, 5}, 1.0f), w->value);
  Tensor pre = ops::add_row_broadcast(x->value, bias->value);
  Tensor bias_expected = Tensor::zeros({40});
  Tensor x_expected = Tensor::zeros({300, 40});
  for (std::int64_t i = 0; i < 300; ++i) {
    for (std::int64_t j = 0; j < 40; ++j) {
      const float gy = pre.at(i, j) > 0.0f ? 0.0f + g.at(i, j) : 0.0f;
      bias_expected.at(j) += gy;
    }
  }
  // x: first the add_bias path, then the direct relu path (reverse topo).
  for (std::int64_t i = 0; i < 300; ++i) {
    for (std::int64_t j = 0; j < 40; ++j) {
      const float gy = pre.at(i, j) > 0.0f ? 0.0f + g.at(i, j) : 0.0f;
      x_expected.at(i, j) = 0.0f + gy;
    }
  }
  for (std::int64_t i = 0; i < x_expected.numel(); ++i) {
    if (x->value.at(i) > 0.0f) x_expected.at(i) += g.at(i);
  }
  EXPECT_TRUE(bits_equal(bias->grad, bias_expected));
  EXPECT_TRUE(bits_equal(x->grad, x_expected));
}

TEST(AutogradLoss, CrossEntropyMatchesManual) {
  // Two rows, two classes, uniform logits -> loss = ln(2).
  auto logits = ag::make_leaf(Tensor::zeros({2, 2}), true);
  const std::vector<std::int32_t> labels{0, 1};
  const std::vector<std::int64_t> nodes{0, 1};
  auto loss = ag::cross_entropy(logits, labels, nodes);
  EXPECT_NEAR(loss->value.at(0), std::log(2.0f), 1e-5f);
}

TEST(AutogradLoss, CrossEntropyGradient) {
  Rng rng(11);
  auto logits = ag::make_leaf(random_tensor({5, 4}, rng), true);
  const std::vector<std::int32_t> labels{0, 1, 2, 3, 1};
  const std::vector<std::int64_t> nodes{0, 2, 4};
  const std::vector<ag::Value> leaves{logits};
  check_gradients(
      [&] { return ag::cross_entropy(logits, labels, nodes); }, leaves);
}

TEST(AutogradLoss, CrossEntropyIgnoresUnmaskedRows) {
  Rng rng(12);
  auto logits = ag::make_leaf(random_tensor({4, 3}, rng), true);
  const std::vector<std::int32_t> labels{0, 1, 2, 0};
  const std::vector<std::int64_t> nodes{1};
  auto loss = ag::cross_entropy(logits, labels, nodes);
  ag::backward(loss);
  // Rows 0, 2, 3 receive no gradient.
  for (const std::int64_t row : {0, 2, 3}) {
    for (std::int64_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(logits->grad.at(row, j), 0.0f);
    }
  }
  // Masked row gradient sums to ~0 (softmax minus one-hot property).
  float row_sum = 0.0f;
  for (std::int64_t j = 0; j < 3; ++j) row_sum += logits->grad.at(1, j);
  EXPECT_NEAR(row_sum, 0.0f, 1e-6f);
}

TEST(AutogradLoss, PerfectPredictionHasTinyLoss) {
  Tensor t = Tensor::zeros({2, 3});
  t.at(0, 1) = 30.0f;
  t.at(1, 2) = 30.0f;
  auto logits = ag::make_leaf(std::move(t), false);
  const std::vector<std::int32_t> labels{1, 2};
  const std::vector<std::int64_t> nodes{0, 1};
  ag::NoGradGuard guard;
  auto loss = ag::cross_entropy(logits, labels, nodes);
  EXPECT_LT(loss->value.at(0), 1e-6f);
}

}  // namespace
}  // namespace gsoup
