// Kernel microbenchmarks with a machine-readable artifact.
//
// Times the compute primitives every souping strategy is built from —
// blocked GEMM vs the naive reference, edge-balanced SpMM vs the naive
// row-parallel loop on a power-law graph, GAT attention, transpose,
// the training tape's layer epilogue, elementwise maps and reductions —
// and writes BENCH_kernels.json (schema gsoup-bench-kernels/v1, see
// README.md). The committed JSON is the perf baseline later PRs are
// compared against.
//
// Usage: bench_kernels [--smoke] [--out PATH]
//   --smoke   tiny shapes + minimal iterations (CI regression gate)
//   --out     artifact path (default BENCH_kernels.json in the CWD)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "ag/graph_ops.hpp"
#include "ag/ops.hpp"
#include "ag/value.hpp"
#include "exec/executor.hpp"
#include "graph/generator.hpp"
#include "graph/locality.hpp"
#include "graph/normalize.hpp"
#include "graph/sampling.hpp"
#include "harness/kernel_report.hpp"
#include "nn/model.hpp"
#include "tensor/half.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace gsoup;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::empty(std::move(shape));
  init::normal(t, rng, 0.0f, 1.0f);
  return t;
}

std::string dense_shape(std::int64_t m, std::int64_t k, std::int64_t n) {
  return "m=" + std::to_string(m) + ",k=" + std::to_string(k) +
         ",n=" + std::to_string(n);
}

struct BenchConfig {
  bool smoke = false;
  std::string out = "BENCH_kernels.json";
  std::int64_t min_iters = 3;
  double min_seconds = 0.25;
};

void bench_gemm(const BenchConfig& cfg, bench::KernelReport& report) {
  const std::vector<std::int64_t> sizes =
      cfg.smoke ? std::vector<std::int64_t>{32, 64}
                : std::vector<std::int64_t>{128, 256, 512};
  for (const auto n : sizes) {
    const Tensor a = random_tensor({n, n}, 1);
    const Tensor b = random_tensor({n, n}, 2);
    Tensor c = Tensor::zeros({n, n});
    const double flops = 2.0 * n * n * n;
    const double bytes = 3.0 * n * n * sizeof(float);

    bench::KernelResult naive{"matmul", "naive", dense_shape(n, n, n)};
    naive.flops = flops;
    naive.bytes = bytes;
    bench::time_kernel(
        naive,
        [&] {
          c.zero_();
          ops::matmul_naive_acc(a, b, c);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(naive);

    bench::KernelResult blocked{"matmul", "blocked", dense_shape(n, n, n)};
    blocked.flops = flops;
    blocked.bytes = bytes;
    bench::time_kernel(
        blocked,
        [&] {
          c.zero_();
          ops::matmul_acc(a, b, c);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(blocked);

    // Both operands stored fp16 (the serving half-lowering's layer GEMM:
    // half activations x half weight panels), widened in the pack step,
    // fp32 accumulate. Same blocked schedule, half the operand traffic.
    const HalfBuffer ha = HalfBuffer::quantize(a, Precision::kFp16);
    const HalfBuffer hb = HalfBuffer::quantize(b, Precision::kFp16);
    bench::KernelResult half{"matmul", "blocked_fp16", dense_shape(n, n, n)};
    half.flops = flops;
    half.bytes = 2.0 * n * n * sizeof(std::uint16_t) + n * n * sizeof(float);
    bench::time_kernel(
        half,
        [&] {
          c.zero_();
          ops::matmul_acc(ha, hb, c);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(half);
  }

  // Transposed variants (the backward-pass GEMMs) at one mid size.
  const std::int64_t n = cfg.smoke ? 48 : 256;
  const Tensor a = random_tensor({n, n}, 3);
  const Tensor b = random_tensor({n, n}, 4);
  const double flops = 2.0 * n * n * n;
  const double bytes = 3.0 * n * n * sizeof(float);
  for (const bool naive : {true, false}) {
    bench::KernelResult tn{"matmul_tn", naive ? "naive" : "blocked",
                           dense_shape(n, n, n)};
    tn.flops = flops;
    tn.bytes = bytes;
    bench::time_kernel(
        tn,
        [&] {
          if (naive) {
            ops::matmul_tn_naive(a, b);
          } else {
            ops::matmul_tn(a, b);
          }
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(tn);

    bench::KernelResult nt{"matmul_nt", naive ? "naive" : "blocked",
                           dense_shape(n, n, n)};
    nt.flops = flops;
    nt.bytes = bytes;
    bench::time_kernel(
        nt,
        [&] {
          if (naive) {
            ops::matmul_nt_naive(a, b);
          } else {
            ops::matmul_nt(a, b);
          }
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(nt);
  }

  // The training tape's real shapes on the products-like SAGE cell: the
  // 47-class layer's forward GEMM (n % 16 != 0, so a partial column tile
  // in every row strip) and the layer-0 weight gradient Xᵀ·dY, a tall
  // contraction over every node.
  const std::int64_t rows = cfg.smoke ? 1000 : 16000;
  {
    const Tensor x = random_tensor({rows, 64}, 5);
    const Tensor w = random_tensor({64, 47}, 6);
    Tensor y = Tensor::zeros({rows, 47});
    for (const bool naive : {true, false}) {
      bench::KernelResult r{"matmul", naive ? "naive" : "blocked",
                            dense_shape(rows, 64, 47)};
      r.flops = 2.0 * rows * 64 * 47;
      r.bytes = (rows * 64 + 64 * 47 + rows * 47) * sizeof(float);
      bench::time_kernel(
          r,
          [&] {
            y.zero_();
            if (naive) {
              ops::matmul_naive_acc(x, w, y);
            } else {
              ops::matmul_acc(x, w, y);
            }
          },
          cfg.min_iters, cfg.min_seconds);
      report.add(r);
    }
  }
  {
    const Tensor x = random_tensor({rows, 80}, 7);
    const Tensor dy = random_tensor({rows, 64}, 8);
    for (const bool naive : {true, false}) {
      bench::KernelResult r{"matmul_tn", naive ? "naive" : "blocked",
                            dense_shape(80, rows, 64)};
      r.flops = 2.0 * 80 * rows * 64;
      r.bytes = (rows * 80 + rows * 64 + 80 * 64) * sizeof(float);
      bench::time_kernel(
          r,
          [&] {
            if (naive) {
              ops::matmul_tn_naive(x, dy);
            } else {
              ops::matmul_tn(x, dy);
            }
          },
          cfg.min_iters, cfg.min_seconds);
      report.add(r);
    }
  }
  // The same weight gradients over a row-sparse dY, as learned souping's
  // validation-only loss leaves them: the 80-wide layer-0 gradient at 30%
  // nonzero rows and the 47-class layer's at 2%. The blocked record finds
  // the rows and contracts only those (the tape's path, row scan
  // included); its naive twin contracts every row.
  struct SparseTn {
    std::int64_t m, n;
    double density;
    const char* tag;
  };
  for (const SparseTn& s : {SparseTn{80, 64, 0.30, ",rows=30%"},
                            SparseTn{64, 47, 0.02, ",rows=2%"}}) {
    const Tensor x = random_tensor({rows, s.m}, 9);
    Tensor dy = random_tensor({rows, s.n}, 10);
    Rng rng(11);
    for (std::int64_t i = 0; i < rows; ++i) {
      if (rng.uniform() >= s.density) {
        std::fill(dy.data() + i * s.n, dy.data() + (i + 1) * s.n, 0.0f);
      }
    }
    for (const bool naive : {true, false}) {
      bench::KernelResult r{"matmul_tn", naive ? "naive" : "blocked",
                            dense_shape(s.m, rows, s.n) + s.tag};
      r.flops = 2.0 * s.m * rows * s.n;
      r.bytes = (rows * s.m + rows * s.n + s.m * s.n) * sizeof(float);
      bench::time_kernel(
          r,
          [&] {
            if (naive) {
              ops::matmul_tn_naive(x, dy);
            } else {
              ops::matmul_tn(x, dy, ops::row_support(dy).rows);
            }
          },
          cfg.min_iters, cfg.min_seconds);
      report.add(r);
    }
  }
}

/// Power-law-degree graph: high lognormal sigma gives the skewed indptr
/// the edge-balanced schedule exists for. Shared by the SpMM, GAT and
/// block-SpMM benches so every sparse record refers to the same graph.
Dataset power_law_dataset(bool smoke) {
  SyntheticSpec spec;
  spec.num_nodes = smoke ? 500 : 20000;
  spec.avg_degree = smoke ? 8 : 20;
  spec.degree_sigma = 2.0;
  spec.num_classes = 8;
  spec.feature_dim = 8;
  spec.seed = 3;
  return generate_dataset(spec);
}

void bench_spmm(const BenchConfig& cfg, bench::KernelReport& report) {
  const Dataset data = power_law_dataset(cfg.smoke);
  const Csr norm = gcn_normalize(data.graph);
  const std::int64_t e = norm.num_edges();

  // The graph locality layer's operands, built once per graph exactly as
  // GraphContext does for a GraphPlan context: "cached" is the BlockedCsr
  // layout of the adjacency as-is (pre-computed row blocks + narrow
  // indices), "reordered" additionally RCM-permutes the vertex numbering.
  // Layout/permutation build time is excluded — it is amortised over every
  // epoch and query of a training or serving run.
  const graph::BlockedCsr cached_layout = graph::build_blocked_csr(norm);
  const graph::GraphPlan plan(data.graph, graph::Reorder::kRcm);
  const graph::BlockedCsr reordered_layout =
      graph::build_blocked_csr(plan.apply(norm));

  // 80 (the products-like feature width) has no dual-accumulator body,
  // so it times the register row accumulator.
  const std::vector<std::int64_t> dims =
      cfg.smoke ? std::vector<std::int64_t>{16}
                : std::vector<std::int64_t>{16, 32, 64, 128, 80};
  for (const auto d : dims) {
    const Tensor x = random_tensor({data.num_nodes(), d}, 5);
    Tensor y = Tensor::zeros({data.num_nodes(), d});
    const std::string shape = "n=" + std::to_string(data.num_nodes()) +
                              ",nnz=" + std::to_string(e) +
                              ",d=" + std::to_string(d);
    const double flops = 2.0 * e * d;
    const double bytes =
        e * (sizeof(std::int32_t) + sizeof(float))  // indices + values
        + static_cast<double>(e) * d * sizeof(float)  // gathered X rows
        + 2.0 * data.num_nodes() * d * sizeof(float);  // Y read+write

    bench::KernelResult naive{"spmm", "naive", shape};
    naive.flops = flops;
    naive.bytes = bytes;
    bench::time_kernel(
        naive,
        [&] {
          y.zero_();
          ag::spmm_reference(norm, x, y);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(naive);

    // The production path: edge-balanced schedule + width-specialised
    // dual-accumulator kernel, fused with output init (so no zero_() —
    // same end-to-end Y = A·X as the naive zero+accumulate above).
    bench::KernelResult fused{"spmm", "fused", shape};
    fused.flops = flops;
    fused.bytes = bytes;
    bench::time_kernel(
        fused, [&] { ag::spmm_overwrite(norm, x, y); }, cfg.min_iters,
        cfg.min_seconds);
    report.add(fused);

    // Same fused kernels over the cached layout (no per-launch chunking
    // pass, 16-bit gather indices on this sub-2^16-node graph).
    bench::KernelResult cached{"spmm", "cached", shape};
    cached.flops = flops;
    cached.bytes = bytes;
    bench::time_kernel(
        cached, [&] { ag::spmm_blocked_overwrite(cached_layout, x, y); },
        cfg.min_iters, cfg.min_seconds);
    report.add(cached);

    // Cached layout over a half-stored X (the serving half-lowering's
    // aggregation: rows widened to fp32 in registers inside the gather,
    // accumulation order unchanged) — half the X gather traffic, which is
    // most of this kernel's byte budget on a skewed graph.
    const HalfBuffer hx = HalfBuffer::quantize(x, Precision::kFp16);
    bench::KernelResult cached_half{"spmm", "cached_fp16", shape};
    cached_half.flops = flops;
    cached_half.bytes = e * (sizeof(std::int32_t) + sizeof(float)) +
                        static_cast<double>(e) * d * sizeof(std::uint16_t) +
                        2.0 * data.num_nodes() * d * sizeof(float);
    bench::time_kernel(
        cached_half,
        [&] { ag::spmm_blocked_overwrite(cached_layout, hx, y); },
        cfg.min_iters, cfg.min_seconds);
    report.add(cached_half);

    // Cached layout over the RCM-reordered numbering; X is permuted once
    // outside the timed region, the way a GraphPlan pipeline holds all
    // per-node data in plan space.
    const Tensor px = plan.permute_rows(x);
    bench::KernelResult reordered{"spmm", "reordered", shape};
    reordered.flops = flops;
    reordered.bytes = bytes;
    bench::time_kernel(
        reordered,
        [&] { ag::spmm_blocked_overwrite(reordered_layout, px, y); },
        cfg.min_iters, cfg.min_seconds);
    report.add(reordered);
  }

}

void bench_gat(const BenchConfig& cfg, bench::KernelReport& report) {
  // GAT attention forward and backward on the skewed graph: "naive" is
  // the seed kernel (per-(dst,head) serial walks, fresh dz per backward
  // call), "fused" the head-fused width-specialised kernels over raw
  // int32 spans, "plan" the same kernels over the cached BlockedCsr
  // structure/transpose layouts (16-bit indices, pre-computed blocks,
  // 32-bit edge positions) — speedup_vs_naive is the speedup over the
  // seed, speedup_vs_fused isolates the locality layer's contribution.
  const Dataset data = power_law_dataset(cfg.smoke);
  const Csr& g = data.graph;
  const std::int64_t n = data.num_nodes();
  const std::int64_t e = data.num_edges();
  const CsrTranspose gt = g.transpose();
  const graph::BlockedCsr layout = graph::build_blocked_csr(g);
  const graph::BlockedCsr layout_t = graph::build_blocked_transpose(g);
  const float slope = 0.2f;

  // (heads, per-head dim): the fixed bodies at d = 16, and one head at
  // d = 41 (the reddit-like output layer), whose aggregates run the
  // register row accumulator.
  struct GatShape {
    std::int64_t heads, d;
  };
  const std::vector<GatShape> gat_shapes =
      cfg.smoke ? std::vector<GatShape>{{4, 16}}
                : std::vector<GatShape>{{1, 16}, {4, 16}, {8, 16}, {1, 41}};
  for (const GatShape& gs : gat_shapes) {
    const std::int64_t heads = gs.heads, d = gs.d;
    const Tensor h = random_tensor({n, heads * d}, 6);
    const Tensor sd = random_tensor({n, heads}, 7);
    const Tensor ss = random_tensor({n, heads}, 8);
    Tensor alpha = Tensor::empty({e, heads});
    Tensor out = Tensor::empty({n, heads * d});
    const std::string shape = "n=" + std::to_string(n) +
                              ",nnz=" + std::to_string(e) +
                              ",heads=" + std::to_string(heads) +
                              ",d=" + std::to_string(d);
    const double fwd_flops = 2.0 * e * heads * d;
    const double fwd_bytes = static_cast<double>(e) * heads * d *
                             sizeof(float);

    bench::KernelResult fwd_naive{"gat_attention", "naive", shape};
    fwd_naive.flops = fwd_flops;
    fwd_naive.bytes = fwd_bytes;
    bench::time_kernel(
        fwd_naive,
        [&] {
          ag::gat_attention_forward_reference(g.indptr, g.indices, h, sd, ss,
                                              heads, slope, alpha, out);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(fwd_naive);

    bench::KernelResult fwd_fused{"gat_attention", "fused", shape};
    fwd_fused.flops = fwd_flops;
    fwd_fused.bytes = fwd_bytes;
    bench::time_kernel(
        fwd_fused,
        [&] {
          ag::gat_attention_forward(g.indptr, g.indices, h, sd, ss, heads,
                                    slope, alpha, out);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(fwd_fused);

    bench::KernelResult fwd_plan{"gat_attention", "plan", shape};
    fwd_plan.flops = fwd_flops;
    fwd_plan.bytes = fwd_bytes;
    bench::time_kernel(
        fwd_plan,
        [&] {
          ag::gat_attention_forward(layout, h, sd, ss, heads, slope, alpha,
                                    out);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(fwd_plan);

    // Inference-only forward (exec-layer infer lowering): no alpha store,
    // no normalisation walk — the serving engine never reads the
    // attention coefficients. Bit-identical output to fused/plan.
    bench::KernelResult fwd_infer{"gat_attention", "infer", shape};
    fwd_infer.flops = fwd_flops;
    fwd_infer.bytes = fwd_bytes;
    bench::time_kernel(
        fwd_infer,
        [&] { ag::gat_attention_infer(layout, h, sd, ss, heads, slope, out); },
        cfg.min_iters, cfg.min_seconds);
    report.add(fwd_infer);

    // Backward: alpha holds the forward's coefficients; gradients
    // accumulate into preallocated tensors (growth across iterations does
    // not change the instruction stream).
    const Tensor grad = random_tensor({n, heads * d}, 9);
    Tensor dh = Tensor::zeros({n, heads * d});
    Tensor dsl = Tensor::zeros({n, heads});
    Tensor dsr = Tensor::zeros({n, heads});
    const double bwd_flops = 4.0 * e * heads * d;
    const double bwd_bytes = 2.0 * e * heads * d * sizeof(float);

    bench::KernelResult bwd_naive{"gat_attention_bwd", "naive", shape};
    bwd_naive.flops = bwd_flops;
    bwd_naive.bytes = bwd_bytes;
    bench::time_kernel(
        bwd_naive,
        [&] {
          ag::gat_attention_backward_reference(g.indptr, g.indices, gt, h,
                                               sd, ss, alpha, grad, heads,
                                               slope, &dh, &dsl, &dsr);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(bwd_naive);

    bench::KernelResult bwd_fused{"gat_attention_bwd", "fused", shape};
    bwd_fused.flops = bwd_flops;
    bwd_fused.bytes = bwd_bytes;
    bench::time_kernel(
        bwd_fused,
        [&] {
          ag::gat_attention_backward(g.indptr, g.indices, gt, h, sd, ss,
                                     alpha, grad, heads, slope, &dh, &dsl,
                                     &dsr);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(bwd_fused);

    bench::KernelResult bwd_plan{"gat_attention_bwd", "plan", shape};
    bwd_plan.flops = bwd_flops;
    bwd_plan.bytes = bwd_bytes;
    bench::time_kernel(
        bwd_plan,
        [&] {
          ag::gat_attention_backward(layout, layout_t, h, sd, ss, alpha,
                                     grad, heads, slope, &dh, &dsl, &dsr);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(bwd_plan);
  }
}

void bench_block_spmm_bwd(const BenchConfig& cfg,
                          bench::KernelReport& report) {
  // block_spmm backward dX = Bᵀ·dY: "naive" is the seed scatter (every
  // thread walks all E edges, team clamped to ~d), "transpose" the
  // edge-balanced SpMM gather over the block's cached BlockedCsr
  // transpose. Two block shapes from the power-law graph:
  //   - the full-neighbourhood block over every node (the PLS
  //     union-subgraph shape), gated against its scatter twin;
  //   - a sampled 4096-seed minibatch block, recorded without a naive
  //     twin (trajectory only — its smaller gradient matrix fits cache
  //     for both kernels, so the ratio is noise-fragile on CI runners).
  // The counting-sort build the forward pays once per block is recorded
  // separately (block_transpose_build, no naive twin) so the
  // amortisation story stays inspectable.
  const Dataset data = power_law_dataset(cfg.smoke);
  Rng rng(17);
  const std::vector<std::int64_t> fanouts{-1};

  std::vector<std::int64_t> all_nodes(
      static_cast<std::size_t>(data.num_nodes()));
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  const auto full_blocks = sample_blocks(data.graph, all_nodes, fanouts, rng);
  const Block& full = full_blocks.front();
  const graph::BlockedCsr full_t = graph::build_blocked_transpose_spans(
      full.indptr, full.indices, full.values, full.num_src());

  const std::vector<std::int64_t> dims =
      cfg.smoke ? std::vector<std::int64_t>{16}
                : std::vector<std::int64_t>{16, 64};
  for (const auto d : dims) {
    const Tensor grad = random_tensor({full.num_dst, d}, 21);
    Tensor xg = Tensor::zeros({full.num_src(), d});
    const std::string shape = "dst=" + std::to_string(full.num_dst) +
                              ",src=" + std::to_string(full.num_src()) +
                              ",nnz=" + std::to_string(full.num_edges()) +
                              ",d=" + std::to_string(d);
    const double flops = 2.0 * full.num_edges() * d;
    const double bytes =
        full.num_edges() *
            (sizeof(std::int32_t) + sizeof(float) +
             static_cast<double>(d) * sizeof(float)) +
        2.0 * full.num_src() * d * sizeof(float);

    bench::KernelResult naive{"block_spmm_bwd", "naive", shape};
    naive.flops = flops;
    naive.bytes = bytes;
    bench::time_kernel(
        naive, [&] { ag::block_spmm_backward_scatter(full, grad, xg); },
        cfg.min_iters, cfg.min_seconds);
    report.add(naive);

    bench::KernelResult gather{"block_spmm_bwd", "transpose", shape};
    gather.flops = flops;
    gather.bytes = bytes;
    bench::time_kernel(
        gather, [&] { ag::spmm_blocked_accumulate(full_t, grad, xg); },
        cfg.min_iters, cfg.min_seconds);
    report.add(gather);
  }

  // Sampled minibatch block, transpose path only (see above).
  std::vector<std::int64_t> seeds(cfg.smoke ? 128 : 4096);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    seeds[i] = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(data.num_nodes())));
  }
  const auto blocks = sample_blocks(data.graph, seeds, fanouts, rng);
  const Block& block = blocks.front();
  const graph::BlockedCsr bt = graph::build_blocked_transpose_spans(
      block.indptr, block.indices, block.values, block.num_src());
  {
    const std::int64_t d = 16;
    const Tensor grad = random_tensor({block.num_dst, d}, 22);
    Tensor xg = Tensor::zeros({block.num_src(), d});
    bench::KernelResult gather{"block_spmm_bwd", "transpose",
                               "dst=" + std::to_string(block.num_dst) +
                                   ",src=" + std::to_string(block.num_src()) +
                                   ",nnz=" +
                                   std::to_string(block.num_edges()) +
                                   ",d=" + std::to_string(d)};
    gather.flops = 2.0 * block.num_edges() * d;
    gather.bytes = block.num_edges() *
                       (sizeof(std::int32_t) + sizeof(float) +
                        static_cast<double>(d) * sizeof(float)) +
                   2.0 * block.num_src() * d * sizeof(float);
    bench::time_kernel(
        gather, [&] { ag::spmm_blocked_accumulate(bt, grad, xg); },
        cfg.min_iters, cfg.min_seconds);
    report.add(gather);
  }

  // The build the block_spmm forward actually pays: no edge positions
  // (the SpMM gather never reads them).
  bench::KernelResult build{"block_transpose_build", "counting-sort",
                            "dst=" + std::to_string(block.num_dst) +
                                ",src=" + std::to_string(block.num_src()) +
                                ",nnz=" + std::to_string(block.num_edges())};
  build.bytes = block.num_edges() *
                (sizeof(std::int32_t) + sizeof(float) +
                 sizeof(std::uint16_t));
  bench::time_kernel(
      build,
      [&] {
        graph::build_blocked_transpose_spans(
            block.indptr, block.indices, block.values, block.num_src(),
            /*force_wide=*/false, /*with_epos=*/false);
      },
      cfg.min_iters, cfg.min_seconds);
  report.add(build);
}

void bench_exec_forward(const BenchConfig& cfg,
                        bench::KernelReport& report) {
  // End-to-end compiled-forward records per architecture on the shared
  // power-law graph: the tape forward under NoGradGuard (what evaluation
  // sweeps pay — a Value node, fresh output tensor and closure per op)
  // vs "exec", the infer-mode Executor over the same LayerPlan
  // (plan-declared workspaces, in-place epilogues, GAT alpha-skip
  // lowering). Same kernels underneath, bit-identical logits — the delta
  // is pure execution-model overhead, which is exactly what the exec
  // layer exists to remove from the serving path. The tape twin carries
  // the variant name "fused" so the exec record is gated through the
  // speedup_vs_fused CI invocation (relative tolerance, no absolute
  // floor): the ratio is small by design at kernel-dominated shapes —
  // GAT measures ~1.03x, all attention — and the 1.15x floor of the
  // speedup_vs_naive gate is meant for optimised-kernel-vs-seed records,
  // not an execution-model delta.
  const Dataset data = power_law_dataset(cfg.smoke);
  const std::string graph_shape = "n=" + std::to_string(data.num_nodes()) +
                                  ",nnz=" + std::to_string(data.num_edges());
  struct ArchCase {
    Arch arch;
    const char* tag;
  };
  for (const ArchCase c : {ArchCase{Arch::kGcn, "gcn"},
                           ArchCase{Arch::kSage, "sage"},
                           ArchCase{Arch::kGat, "gat"}}) {
    ModelConfig mcfg;
    mcfg.arch = c.arch;
    mcfg.in_dim = data.feature_dim();
    mcfg.out_dim = data.num_classes;
    mcfg.num_layers = 2;
    mcfg.hidden_dim = c.arch == Arch::kGat ? 16 : 64;
    mcfg.heads = 4;
    const GnnModel model(mcfg);
    Rng rng(31);
    const ParamStore params = model.init_params(rng);
    const auto ctx = std::make_shared<const GraphContext>(data.graph, c.arch);
    const exec::LayerPlan& plan = ctx->layer_plan(mcfg);
    exec::Executor executor(plan, params);
    Tensor out = Tensor::empty({data.num_nodes(), mcfg.out_dim});
    const ag::Value features = ag::constant(data.features);
    const ParamMap leaves = as_leaves(params, /*requires_grad=*/false);
    const std::string shape = graph_shape + ",arch=" + c.tag;

    bench::KernelResult tape{"full_forward", "fused", shape};
    bench::time_kernel(
        tape,
        [&] {
          ag::NoGradGuard guard;
          exec::run_train(plan, features, leaves, /*training=*/false,
                          nullptr);
        },
        cfg.min_iters, cfg.min_seconds);
    report.add(tape);

    bench::KernelResult ex{"full_forward", "exec", shape};
    bench::time_kernel(
        ex, [&] { executor.run_full(data.features, out); }, cfg.min_iters,
        cfg.min_seconds);
    report.add(ex);

    // The same LayerPlan compiled at fp16 storage: half features, half
    // weight panels and half inter-layer slabs, fp32 accumulate. Gated
    // through speedup_vs_fused like the exec record (relative to the tape
    // twin — no absolute floor; the fp16 gain over exec itself is the
    // serving artifact's speedup_vs_fp32 story).
    const exec::LayerPlan& plan16 = ctx->layer_plan(mcfg, Precision::kFp16);
    exec::Executor executor16(plan16, params);
    const HalfBuffer hfeatures =
        HalfBuffer::quantize(data.features, Precision::kFp16);
    bench::KernelResult ex16{"full_forward", "exec_fp16", shape};
    bench::time_kernel(
        ex16, [&] { executor16.run_full(hfeatures, out); }, cfg.min_iters,
        cfg.min_seconds);
    report.add(ex16);
  }
}

void bench_gather(const BenchConfig& cfg, bench::KernelReport& report) {
  // The serving engine's row lookups: gathering scattered rows out of a
  // resident matrix (cached logits table, feature matrix). fp32 is a row
  // memcpy; fp16 reads 16-bit rows and widens on the copy (F16C when the
  // CPU has it) — half the read traffic against an extra convert. No
  // naive/fused twin, so these records ride ungated in the artifact; the
  // end-to-end effect is gated via the serving speedup_vs_fp32 records.
  const std::int64_t rows = cfg.smoke ? 4096 : 262144;
  const std::int64_t d = 64;
  const Tensor src = random_tensor({rows, d}, 23);
  const HalfBuffer hsrc = HalfBuffer::quantize(src, Precision::kFp16);
  Rng rng(29);
  std::vector<std::int64_t> ids(cfg.smoke ? 1024 : 65536);
  for (auto& id : ids) {
    id = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(rows)));
  }
  Tensor out = Tensor::empty({static_cast<std::int64_t>(ids.size()), d});
  const std::string shape = "rows=" + std::to_string(rows) +
                            ",ids=" + std::to_string(ids.size()) +
                            ",d=" + std::to_string(d);
  const double out_bytes =
      static_cast<double>(ids.size()) * d * sizeof(float);

  bench::KernelResult fp32{"gather_rows", "fp32", shape};
  fp32.bytes = static_cast<double>(ids.size()) * d * sizeof(float) +
               out_bytes;
  bench::time_kernel(
      fp32,
      [&] {
        ops::gather_rows_into(src, std::span<const std::int64_t>(ids), out);
      },
      cfg.min_iters, cfg.min_seconds);
  report.add(fp32);

  bench::KernelResult fp16{"gather_rows", "fp16", shape};
  fp16.bytes =
      static_cast<double>(ids.size()) * d * sizeof(std::uint16_t) + out_bytes;
  bench::time_kernel(
      fp16,
      [&] {
        ops::gather_rows_into(hsrc, std::span<const std::int64_t>(ids), out);
      },
      cfg.min_iters, cfg.min_seconds);
  report.add(fp16);

  // Half-to-half (subgraph input-row gather in half mode): 16-bit memcpy.
  HalfBuffer hout =
      HalfBuffer::empty({static_cast<std::int64_t>(ids.size()), d},
                        Precision::kFp16);
  bench::KernelResult fp16s{"gather_rows", "fp16_store", shape};
  fp16s.bytes =
      2.0 * static_cast<double>(ids.size()) * d * sizeof(std::uint16_t);
  bench::time_kernel(
      fp16s,
      [&] {
        ops::gather_rows_into(hsrc, std::span<const std::int64_t>(ids), hout);
      },
      cfg.min_iters, cfg.min_seconds);
  report.add(fp16s);
}

void bench_epilogue(const BenchConfig& cfg, bench::KernelReport& report) {
  // One layer's epilogue on the training tape at the products-like SAGE
  // shape: act((self + neigh) + bias), forward then backward, the
  // backward seeded with a fixed gradient so nothing else runs. `naive`
  // records the op chain (add → add_bias → relu/elu) and `fused` the one
  // ag::combine_bias_act node. A fused pass that falls back to a scalar
  // loop loses its margin here.
  const std::int64_t rows = cfg.smoke ? 1000 : 16000;
  const std::int64_t cols = 64;
  const Tensor a = random_tensor({rows, cols}, 12);
  const Tensor b = random_tensor({rows, cols}, 13);
  const Tensor bias = random_tensor({cols}, 14);
  const Tensor seed = random_tensor({rows, cols}, 15);
  for (const ops::Activation act :
       {ops::Activation::kRelu, ops::Activation::kElu}) {
    const bool relu = act == ops::Activation::kRelu;
    for (const bool naive : {true, false}) {
      bench::KernelResult r{"epilogue", naive ? "naive" : "fused",
                            "m=" + std::to_string(rows) +
                                ",n=" + std::to_string(cols) +
                                (relu ? ",act=relu" : ",act=elu")};
      // The fused node's traffic: a, b and out forward; out, the seed, the
      // masked gradient, its bias-sum read and b's copy backward.
      r.bytes = 9.0 * rows * cols * sizeof(float);
      bench::time_kernel(
          r,
          [&] {
            const ag::Value av = ag::make_leaf(a, true);
            const ag::Value bv = ag::make_leaf(b, true);
            const ag::Value biasv = ag::make_leaf(bias, true);
            ag::Value y;
            if (naive) {
              const ag::Value pre = ag::add_bias(ag::add(av, bv), biasv);
              y = relu ? ag::relu(pre) : ag::elu(pre);
            } else {
              y = ag::combine_bias_act(av, bv, biasv, act);
            }
            ag::backward(y, seed);
          },
          cfg.min_iters, cfg.min_seconds);
      report.add(r);
    }
  }
}

void bench_elementwise(const BenchConfig& cfg, bench::KernelReport& report) {
  const std::int64_t numel = cfg.smoke ? (1 << 14) : (1 << 22);
  const Tensor a = random_tensor({numel}, 9);
  const Tensor b = random_tensor({numel}, 10);
  const std::string shape = "numel=" + std::to_string(numel);

  bench::KernelResult relu{"relu", "parallel", shape};
  relu.bytes = 2.0 * numel * sizeof(float);
  bench::time_kernel(relu, [&] { ops::relu(a); }, cfg.min_iters,
                     cfg.min_seconds);
  report.add(relu);

  bench::KernelResult mul{"mul", "parallel", shape};
  mul.flops = static_cast<double>(numel);
  mul.bytes = 3.0 * numel * sizeof(float);
  bench::time_kernel(mul, [&] { ops::mul(a, b); }, cfg.min_iters,
                     cfg.min_seconds);
  report.add(mul);

  bench::KernelResult sum{"sum", "compensated", shape};
  sum.flops = static_cast<double>(numel);
  sum.bytes = static_cast<double>(numel) * sizeof(float);
  float sink = 0.0f;
  bench::time_kernel(sum, [&] { sink += ops::sum(a); }, cfg.min_iters,
                     cfg.min_seconds);
  report.add(sum);

  bench::KernelResult dot{"dot", "compensated", shape};
  dot.flops = 2.0 * numel;
  dot.bytes = 2.0 * numel * sizeof(float);
  bench::time_kernel(dot, [&] { sink += ops::dot(a, b); }, cfg.min_iters,
                     cfg.min_seconds);
  report.add(dot);
  if (sink == 12345.6789f) std::printf("-");  // keep the sums live

  const std::int64_t t = cfg.smoke ? 128 : 2048;
  const Tensor m = random_tensor({t, t}, 11);
  bench::KernelResult tr{"transpose", "tiled",
                         "m=" + std::to_string(t) + ",n=" + std::to_string(t)};
  tr.bytes = 2.0 * t * t * sizeof(float);
  bench::time_kernel(tr, [&] { ops::transpose(m); }, cfg.min_iters,
                     cfg.min_seconds);
  report.add(tr);
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
      cfg.min_iters = 2;
      cfg.min_seconds = 0.0;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::KernelReport report(cfg.smoke ? "smoke" : "full");
  bench_gemm(cfg, report);
  bench_spmm(cfg, report);
  bench_gat(cfg, report);
  bench_block_spmm_bwd(cfg, report);
  bench_exec_forward(cfg, report);
  bench_gather(cfg, report);
  bench_epilogue(cfg, report);
  bench_elementwise(cfg, report);
  report.compute_speedups();
  report.print_table();
  if (!report.write_json(cfg.out)) return 1;
  std::printf("wrote %s\n", cfg.out.c_str());
  return 0;
}
