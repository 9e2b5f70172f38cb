// Head-fused GAT attention kernel suite: fused-vs-reference parity on
// randomized and degenerate shapes, 16/32-bit plan-index parity for the
// attention gather, backward parity against the seed kernel, gradcheck
// through the layout-aware path, and the zero-alloc contract of the
// reusable dz workspace. Completes the equivalence coverage the SpMM
// kernels get in test_kernels.cpp.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "ag/graph_ops.hpp"
#include "ag/ops.hpp"
#include "ag/value.hpp"
#include "graph/builder.hpp"
#include "graph/locality.hpp"
#include "graph/sampling.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"

namespace gsoup {
namespace {

using testing::check_gradients;
using testing::tiny_graph;

Tensor random_tensor(Shape shape, std::uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  Tensor t = Tensor::empty(std::move(shape));
  init::normal(t, rng, 0.0f, scale);
  return t;
}

/// Random symmetrised graph with self loops (every row non-empty).
Csr random_graph(std::int64_t n, std::int64_t num_edges, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges));
  for (std::int64_t k = 0; k < num_edges; ++k) {
    edges.push_back(
        {static_cast<std::int32_t>(rng.uniform_int(
             static_cast<std::uint64_t>(n))),
         static_cast<std::int32_t>(
             rng.uniform_int(static_cast<std::uint64_t>(n)))});
  }
  return build_csr(n, std::move(edges));
}

struct GatShape {
  std::int64_t heads;
  std::int64_t d;
};

/// Shapes covering the specialised kernels (heads 1/2/4/8 × d 8/16/...),
/// the runtime fallback (heads 3, d 5: neither specialised), head counts
/// that do not divide the SIMD width, the >16-head tiling path, and a
/// single head at a width with no fixed body (a GAT output layer).
const GatShape kShapes[] = {{1, 16}, {2, 8}, {4, 16}, {8, 4},
                            {3, 5},  {18, 3}, {1, 41}};

struct GatOperands {
  Tensor h, sd, ss;
};

GatOperands make_operands(std::int64_t n, const GatShape& s,
                          std::uint64_t seed) {
  return {random_tensor({n, s.heads * s.d}, seed, 0.7f),
          random_tensor({n, s.heads}, seed + 1, 0.7f),
          random_tensor({n, s.heads}, seed + 2, 0.7f)};
}

TEST(GatFused, MatchesReferenceRandomized) {
  const Csr g = random_graph(120, 600, 7);
  for (const auto& s : kShapes) {
    const auto ops = make_operands(g.num_nodes, s, 100 + s.heads);
    Tensor alpha_ref = Tensor::empty({g.num_edges(), s.heads});
    Tensor out_ref = Tensor::empty({g.num_nodes, s.heads * s.d});
    ag::gat_attention_forward_reference(g.indptr, g.indices, ops.h, ops.sd,
                                        ops.ss, s.heads, 0.2f, alpha_ref,
                                        out_ref);
    Tensor alpha = Tensor::empty({g.num_edges(), s.heads});
    Tensor out = Tensor::empty({g.num_nodes, s.heads * s.d});
    ag::gat_attention_forward(g.indptr, g.indices, ops.h, ops.sd, ops.ss,
                              s.heads, 0.2f, alpha, out);
    EXPECT_LT(ops::max_abs_diff(out, out_ref), 1e-5f)
        << "heads=" << s.heads << " d=" << s.d;
    EXPECT_LT(ops::max_abs_diff(alpha, alpha_ref), 1e-5f)
        << "heads=" << s.heads << " d=" << s.d;
  }
}

TEST(GatFused, HandlesIsolatedNodes) {
  // Nodes 4 and 5 have no edges at all (no self loops either): their
  // softmax denominator is empty and the output row must be exactly zero.
  std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const Csr g = build_csr(6, edges,
                          {.symmetrize = true, .add_self_loops = false});
  ASSERT_EQ(g.degree(4), 0);
  for (const auto& s : kShapes) {
    const auto ops = make_operands(g.num_nodes, s, 200 + s.heads);
    Tensor alpha_ref = Tensor::empty({g.num_edges(), s.heads});
    Tensor out_ref = Tensor::empty({g.num_nodes, s.heads * s.d});
    ag::gat_attention_forward_reference(g.indptr, g.indices, ops.h, ops.sd,
                                        ops.ss, s.heads, 0.2f, alpha_ref,
                                        out_ref);
    Tensor alpha = Tensor::empty({g.num_edges(), s.heads});
    Tensor out = Tensor::full({g.num_nodes, s.heads * s.d}, 123.0f);
    ag::gat_attention_forward(g.indptr, g.indices, ops.h, ops.sd, ops.ss,
                              s.heads, 0.2f, alpha, out);
    EXPECT_LT(ops::max_abs_diff(out, out_ref), 1e-5f) << "heads=" << s.heads;
    for (std::int64_t j = 0; j < s.heads * s.d; ++j) {
      EXPECT_EQ(out.at(4, j), 0.0f) << "isolated row must be zeroed";
    }
  }
}

TEST(GatFused, ZeroEdgeGraphThroughLayoutPath) {
  // A graph of isolated nodes only: the cached transpose has no edge
  // positions to fill, which must not trip the layout_t precondition —
  // forward yields zero rows and backward is a no-op.
  const Csr g = build_csr(4, {}, {.symmetrize = false,
                                  .add_self_loops = false});
  ASSERT_EQ(g.num_edges(), 0);
  const CsrTranspose gt = g.transpose();
  const graph::BlockedCsr layout = graph::build_blocked_csr(g);
  const graph::BlockedCsr layout_t = graph::build_blocked_transpose(g);
  auto h = ag::make_leaf(random_tensor({4, 4}, 900), true);
  auto sd = ag::make_leaf(random_tensor({4, 2}, 901), true);
  auto ss = ag::make_leaf(random_tensor({4, 2}, 902), true);
  auto out = ag::gat_attention(g, gt, h, sd, ss, 2, 0.2f, &layout,
                               &layout_t);
  for (std::int64_t i = 0; i < out->value.numel(); ++i) {
    EXPECT_EQ(out->value.at(i), 0.0f);
  }
  ag::backward(ag::sum(out));  // must not crash or scribble
}

TEST(GatFused, PlanLayoutMatchesSpanBitExact) {
  // The BlockedCsr path differs from the span path only in index width
  // and chunk boundaries — the float operations are identical, so the
  // results must agree bit-for-bit, at both index widths.
  const Csr g = random_graph(200, 900, 11);
  const graph::BlockedCsr narrow = graph::build_blocked_csr(g);
  const graph::BlockedCsr wide =
      graph::build_blocked_csr(g, /*force_wide=*/true);
  ASSERT_TRUE(narrow.narrow());
  ASSERT_FALSE(wide.narrow());
  for (const auto& s : kShapes) {
    const auto ops = make_operands(g.num_nodes, s, 300 + s.heads);
    Tensor alpha_span = Tensor::empty({g.num_edges(), s.heads});
    Tensor out_span = Tensor::empty({g.num_nodes, s.heads * s.d});
    ag::gat_attention_forward(g.indptr, g.indices, ops.h, ops.sd, ops.ss,
                              s.heads, 0.2f, alpha_span, out_span);
    for (const auto* layout : {&narrow, &wide}) {
      Tensor alpha = Tensor::empty({g.num_edges(), s.heads});
      Tensor out = Tensor::empty({g.num_nodes, s.heads * s.d});
      ag::gat_attention_forward(*layout, ops.h, ops.sd, ops.ss, s.heads,
                                0.2f, alpha, out);
      EXPECT_EQ(ops::max_abs_diff(out, out_span), 0.0f)
          << "heads=" << s.heads << " narrow=" << layout->narrow();
      EXPECT_EQ(ops::max_abs_diff(alpha, alpha_span), 0.0f)
          << "heads=" << s.heads << " narrow=" << layout->narrow();
    }
  }
}

TEST(GatFused, BackwardMatchesReference) {
  const Csr g = random_graph(90, 400, 13);
  const CsrTranspose gt = g.transpose();
  const graph::BlockedCsr layout = graph::build_blocked_csr(g);
  const graph::BlockedCsr layout_t = graph::build_blocked_transpose(g);
  for (const auto& s : kShapes) {
    const auto ops = make_operands(g.num_nodes, s, 400 + s.heads);
    Tensor alpha = Tensor::empty({g.num_edges(), s.heads});
    Tensor out = Tensor::empty({g.num_nodes, s.heads * s.d});
    ag::gat_attention_forward(g.indptr, g.indices, ops.h, ops.sd, ops.ss,
                              s.heads, 0.2f, alpha, out);
    const Tensor grad =
        random_tensor({g.num_nodes, s.heads * s.d}, 500 + s.heads, 0.7f);

    const Shape hs{g.num_nodes, s.heads * s.d};
    const Shape ss_shape{g.num_nodes, s.heads};
    Tensor dh_ref = Tensor::zeros(hs), dsl_ref = Tensor::zeros(ss_shape),
           dsr_ref = Tensor::zeros(ss_shape);
    ag::gat_attention_backward_reference(g.indptr, g.indices, gt, ops.h,
                                         ops.sd, ops.ss, alpha, grad,
                                         s.heads, 0.2f, &dh_ref, &dsl_ref,
                                         &dsr_ref);

    Tensor dh = Tensor::zeros(hs), dsl = Tensor::zeros(ss_shape),
           dsr = Tensor::zeros(ss_shape);
    ag::gat_attention_backward(g.indptr, g.indices, gt, ops.h, ops.sd,
                               ops.ss, alpha, grad, s.heads, 0.2f, &dh,
                               &dsl, &dsr);
    EXPECT_LT(ops::max_abs_diff(dh, dh_ref), 1e-5f) << "heads=" << s.heads;
    EXPECT_LT(ops::max_abs_diff(dsl, dsl_ref), 1e-5f) << "heads=" << s.heads;
    EXPECT_LT(ops::max_abs_diff(dsr, dsr_ref), 1e-5f) << "heads=" << s.heads;

    // Plan-aware variant: cached layouts with 16-bit indices + edge
    // positions must agree with the span path bit-for-bit.
    Tensor dh_p = Tensor::zeros(hs), dsl_p = Tensor::zeros(ss_shape),
           dsr_p = Tensor::zeros(ss_shape);
    ag::gat_attention_backward(layout, layout_t, ops.h, ops.sd, ops.ss,
                               alpha, grad, s.heads, 0.2f, &dh_p, &dsl_p,
                               &dsr_p);
    EXPECT_LT(ops::max_abs_diff(dh_p, dh_ref), 1e-5f) << "heads=" << s.heads;
    EXPECT_LT(ops::max_abs_diff(dsl_p, dsl_ref), 1e-5f)
        << "heads=" << s.heads;
    EXPECT_LT(ops::max_abs_diff(dsr_p, dsr_ref), 1e-5f)
        << "heads=" << s.heads;
  }
}

TEST(GatFused, GradcheckThroughLayoutPath) {
  // End-to-end tape gradcheck through the plan-aware overload (cached
  // structure + cached transpose with edge positions). The scores are
  // drawn so that no edge's pre-activation z = sd_i + ss_j sits within
  // the finite-difference step of the LeakyReLU kink at 0 — at a kink
  // the central difference disagrees with the (correct) one-sided
  // analytic gradient and the check would fail spuriously.
  const Csr g = tiny_graph();
  const CsrTranspose gt = g.transpose();
  const graph::BlockedCsr layout = graph::build_blocked_csr(g);
  const graph::BlockedCsr layout_t = graph::build_blocked_transpose(g);
  const std::int64_t heads = 2;
  Tensor sdt, sst;
  for (std::uint64_t seed = 5;; ++seed) {
    sdt = random_tensor({6, heads}, seed, 0.5f);
    sst = random_tensor({6, heads}, seed + 100, 0.5f);
    float min_abs_z = 1e9f;
    for (std::int64_t i = 0; i < 6; ++i) {
      for (const auto j : g.neighbors(i)) {
        for (std::int64_t hh = 0; hh < heads; ++hh) {
          min_abs_z = std::min(
              min_abs_z, std::abs(sdt.at(i, hh) + sst.at(j, hh)));
        }
      }
    }
    if (min_abs_z > 0.15f) break;
  }
  auto h = ag::make_leaf(random_tensor({6, heads * 2}, 3, 0.5f), true);
  auto sd = ag::make_leaf(std::move(sdt), true);
  auto ss = ag::make_leaf(std::move(sst), true);
  const std::vector<ag::Value> leaves{h, sd, ss};
  check_gradients(
      [&] {
        return ag::sum(ag::gat_attention(g, gt, h, sd, ss, heads, 0.2f,
                                         &layout, &layout_t));
      },
      leaves, 1e-2f, 3e-3f, 3e-2f);
}

TEST(GatFused, DzWorkspaceZeroAllocAfterWarmup) {
  const Csr g = random_graph(150, 700, 17);
  const CsrTranspose gt = g.transpose();
  const GatShape s{4, 16};
  const auto ops = make_operands(g.num_nodes, s, 600);
  Tensor alpha = Tensor::empty({g.num_edges(), s.heads});
  Tensor out = Tensor::empty({g.num_nodes, s.heads * s.d});
  ag::gat_attention_forward(g.indptr, g.indices, ops.h, ops.sd, ops.ss,
                            s.heads, 0.2f, alpha, out);
  const Tensor grad = random_tensor({g.num_nodes, s.heads * s.d}, 601);
  Tensor dh = Tensor::zeros({g.num_nodes, s.heads * s.d});
  Tensor dsl = Tensor::zeros({g.num_nodes, s.heads});
  Tensor dsr = Tensor::zeros({g.num_nodes, s.heads});
  // Warm-up sizes the thread-local dz workspace.
  ag::gat_attention_backward(g.indptr, g.indices, gt, ops.h, ops.sd, ops.ss,
                             alpha, grad, s.heads, 0.2f, &dh, &dsl, &dsr);
  const std::uint64_t allocs = MemoryTracker::alloc_count();
  for (int i = 0; i < 3; ++i) {
    ag::gat_attention_backward(g.indptr, g.indices, gt, ops.h, ops.sd,
                               ops.ss, alpha, grad, s.heads, 0.2f, &dh, &dsl,
                               &dsr);
  }
  EXPECT_EQ(MemoryTracker::alloc_count(), allocs)
      << "warm GAT backward must not allocate (reused dz workspace)";
}

TEST(BlockSpmmBackward, TransposeGatherMatchesScatter) {
  const Csr g = tiny_graph();
  Rng sample_rng(19);
  const std::vector<std::int64_t> seeds{0, 2, 5};
  const std::vector<std::int64_t> fanouts{-1};
  const auto blocks = sample_blocks(g, seeds, fanouts, sample_rng);
  const Block& block = blocks.front();
  for (const std::int64_t d : {3, 16}) {
    const Tensor grad = random_tensor({block.num_dst, d}, 700 + d);
    Tensor xg_scatter = Tensor::zeros({block.num_src(), d});
    ag::block_spmm_backward_scatter(block, grad, xg_scatter);
    const graph::BlockedCsr bt = graph::build_blocked_transpose_spans(
        block.indptr, block.indices, block.values, block.num_src());
    Tensor xg_gather = Tensor::zeros({block.num_src(), d});
    ag::spmm_blocked_accumulate(bt, grad, xg_gather);
    EXPECT_LT(ops::max_abs_diff(xg_gather, xg_scatter), 1e-5f) << "d=" << d;
  }
}

TEST(BlockSpmmBackward, TapeUsesTransposeAndMatchesScatter) {
  // The autodiff path must produce the same dX the seed scatter did.
  const Csr g = random_graph(40, 160, 23);
  Rng sample_rng(29);
  const std::vector<std::int64_t> seeds{1, 7, 13, 21};
  const std::vector<std::int64_t> fanouts{-1};
  const auto blocks = sample_blocks(g, seeds, fanouts, sample_rng);
  const Block& block = blocks.front();
  const std::int64_t d = 8;
  auto x = ag::make_leaf(random_tensor({block.num_src(), d}, 800), true);
  auto y = ag::block_spmm(block, x);
  ag::backward(ag::sum(y));

  // Scatter oracle for d(sum)/dX: grad_out is all ones.
  const Tensor ones = Tensor::full({block.num_dst, d}, 1.0f);
  Tensor xg_ref = Tensor::zeros({block.num_src(), d});
  ag::block_spmm_backward_scatter(block, ones, xg_ref);
  EXPECT_LT(ops::max_abs_diff(x->grad, xg_ref), 1e-5f);
}

}  // namespace
}  // namespace gsoup
