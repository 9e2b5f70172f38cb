#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <type_traits>

#include "ag/graph_ops.hpp"
#include "ag/ops.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace gsoup::exec {

namespace {

// In-place building blocks for infer mode: identical numerics to the
// tape ops (ag::matmul is zeros + matmul_acc; ag::add_bias / relu / elu
// apply the same scalar expressions) without the per-op allocation.

/// out = x · w into a preallocated view; x and w at either storage type.
template <class X, class W>
void linear_into(const X& x, const W& w, Tensor& out) {
  out.zero_();
  ops::matmul_acc(x, w, out);
}

/// Storage point: the fp32 product `x` as a stored activation. At fp32
/// that is `x` itself (no copy); a half plan quantizes it into `slab`.
const Tensor& stored(const Tensor& x, const Tensor& /*slab*/) { return x; }
HalfBuffer stored(const Tensor& x, const HalfBuffer& slab) {
  HalfBuffer h = slab.view_prefix(x.shape());
  h.quantize_from(x);
  return h;
}

/// Storage precision of a matrix: kFp32 for a Tensor.
Precision storage_precision(const Tensor& /*t*/) { return Precision::kFp32; }
Precision storage_precision(const HalfBuffer& h) { return h.precision(); }

/// Features must be stored at the plan's precision.
template <class Act>
void check_storage(const Act& features, Precision plan, const char* where) {
  GSOUP_CHECK_MSG(storage_precision(features) == plan,
                  where << ": " << precision_name(storage_precision(features))
                        << " features on a " << precision_name(plan)
                        << " plan");
}

void add_bias_inplace(Tensor& x, const Tensor& bias) {
  const std::int64_t m = x.shape(0), n = x.shape(1);
  GSOUP_CHECK_MSG(bias.numel() == n, "bias width mismatch");
  float* __restrict__ px = x.data();
  const float* __restrict__ pb = bias.data();
#pragma omp parallel for schedule(static) if (m * n >= (1 << 15))
  for (std::int64_t i = 0; i < m; ++i) {
    float* __restrict__ row = px + i * n;
#pragma omp simd
    for (std::int64_t j = 0; j < n; ++j) row[j] += pb[j];
  }
}

void relu_inplace(Tensor& x) {
  float* __restrict__ p = x.data();
  const std::int64_t n = x.numel();
#pragma omp parallel for simd schedule(static) if (n >= (1 << 15))
  for (std::int64_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
}

void elu_inplace(Tensor& x) {
  float* __restrict__ p = x.data();
  const std::int64_t n = x.numel();
#pragma omp parallel for schedule(static) if (n >= (1 << 15))
  for (std::int64_t i = 0; i < n; ++i)
    p[i] = p[i] > 0.0f ? p[i] : std::expm1(p[i]);
}

/// Times the enclosing block into one of the executor's pre-resolved
/// stage histograms. Profiling off — the default — construction is a
/// single relaxed atomic load and a branch, no clock read (the same
/// discipline as util/failpoint's disarmed path).
class StageTimer {
 public:
  StageTimer(obs::Histogram* const* hists, Stage stage) noexcept {
    if (obs::profiling_enabled()) {
      hist_ = hists[static_cast<int>(stage)];
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~StageTimer() {
    if (hist_ != nullptr) {
      hist_->observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  obs::Histogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

/// Lowercase arch tag for metric labels. arch_name() is the display
/// name ("GraphSAGE"); labels follow the lowercase convention from the
/// observability naming scheme.
const char* arch_label(Arch arch) {
  switch (arch) {
    case Arch::kGcn: return "gcn";
    case Arch::kSage: return "sage";
    case Arch::kGat: return "gat";
  }
  return "unknown";
}

}  // namespace

// ---- Train mode -----------------------------------------------------------

TapeBindings::TapeBindings(const LayerPlan& plan, const ParamMap& params) {
  steps_.reserve(plan.steps().size());
  for (const LayerStep& step : plan.steps()) {
    Bound b;
    const auto resolve = [&](const std::string& name) -> ag::Value {
      return name.empty() ? ag::Value{} : params.at(name);
    };
    b.weight = resolve(step.weight);
    b.weight_self = resolve(step.weight_self);
    b.weight_neigh = resolve(step.weight_neigh);
    b.bias = resolve(step.bias);
    b.attn_dst = resolve(step.attn_dst);
    b.attn_src = resolve(step.attn_src);
    steps_.push_back(std::move(b));
  }
}

ag::Value run_train(const LayerPlan& plan, const ag::Value& features,
                    const ParamMap& params, bool training, Rng* rng) {
  return run_train(plan, features, TapeBindings(plan, params), training, rng);
}

ag::Value run_train(const LayerPlan& plan, const ag::Value& features,
                    const TapeBindings& bindings, bool training, Rng* rng) {
  const ModelConfig& cfg = plan.config();
  const GraphContext& ctx = plan.ctx();
  GSOUP_CHECK_MSG(!training || rng != nullptr,
                  "training forward needs an rng for dropout");
  GSOUP_CHECK_MSG(features->value.shape(1) == cfg.in_dim,
                  "feature dim " << features->value.shape_str()
                                 << " != model in_dim " << cfg.in_dim);
  GSOUP_CHECK_MSG(
      bindings.steps().size() == plan.steps().size(),
      "tape bindings were built from a plan with a different depth");

  ag::Value h = features;
  for (std::size_t l = 0; l < plan.steps().size(); ++l) {
    const LayerStep& step = plan.steps()[l];
    const TapeBindings::Bound& p = bindings.steps()[l];
    if (training && cfg.dropout > 0.0f) {
      h = ag::dropout(h, cfg.dropout, *rng, true);
    }
    switch (cfg.arch) {
      case Arch::kGcn: {
        // H' = Â (H W) + b over the context's cached layout when one was
        // compiled in. The transpose layout only feeds the backward, so
        // no-grad passes never trigger its lazy build.
        ag::Value hw = ag::matmul(h, p.weight);
        ag::Value agg = ag::spmm(
            ctx.gcn(), ctx.gcn_t(), hw, step.spmm_layout,
            ag::grad_enabled() ? ctx.spmm_layout_t() : nullptr);
        h = ag::add_bias(agg, p.bias);
        if (!step.last) h = ag::relu(h);
        break;
      }
      case Arch::kSage: {
        // H' = H W_self + (D⁻¹A H) W_neigh + b
        ag::Value self_part = ag::matmul(h, p.weight_self);
        ag::Value agg = ag::spmm(
            ctx.mean(), ctx.mean_t(), h, step.spmm_layout,
            ag::grad_enabled() ? ctx.spmm_layout_t() : nullptr);
        ag::Value neigh_part = ag::matmul(agg, p.weight_neigh);
        h = ag::add_bias(ag::add(self_part, neigh_part), p.bias);
        if (!step.last) h = ag::relu(h);
        break;
      }
      case Arch::kGat: {
        ag::Value hw = ag::matmul(h, p.weight);
        ag::Value s_dst = ag::per_head_dot(hw, p.attn_dst, step.heads);
        ag::Value s_src = ag::per_head_dot(hw, p.attn_src, step.heads);
        // Backward routing was decided at compile time
        // (step.attn_layout_backward): single-head steps keep the span
        // kernels, and forward-only passes never force the lazy
        // transpose build.
        const graph::BlockedCsr* layout_t =
            ag::grad_enabled() && step.attn_layout_backward
                ? ctx.attn_layout_t()
                : nullptr;
        ag::Value agg = ag::gat_attention(ctx.raw(), ctx.raw_t(), hw, s_dst,
                                          s_src, step.heads, cfg.attn_slope,
                                          step.attn_layout, layout_t);
        h = ag::add_bias(agg, p.bias);
        if (!step.last) h = ag::elu(h);
        break;
      }
    }
  }
  return h;
}

ag::Value run_train_blocks(const ModelConfig& cfg,
                           std::span<const Block> blocks,
                           const ag::Value& features, const ParamMap& params,
                           bool training, Rng* rng) {
  GSOUP_CHECK_MSG(cfg.arch == Arch::kSage,
                  "minibatch forward is implemented for GraphSAGE");
  GSOUP_CHECK_MSG(
      static_cast<std::int64_t>(blocks.size()) == cfg.num_layers,
      "need one block per layer");
  GSOUP_CHECK_MSG(!training || rng != nullptr,
                  "training forward needs an rng for dropout");

  ag::Value h = features;  // rows: blocks[0].src_nodes
  for (std::int64_t l = 0; l < cfg.num_layers; ++l) {
    const Block& block = blocks[static_cast<std::size_t>(l)];
    const bool last = l + 1 == cfg.num_layers;
    GSOUP_CHECK_MSG(h->value.shape(0) == block.num_src(),
                    "block/source row mismatch at layer " << l);
    if (training && cfg.dropout > 0.0f) {
      h = ag::dropout(h, cfg.dropout, *rng, true);
    }
    // Destination rows are a prefix of source rows (DGL block convention).
    ag::Value h_dst = ag::narrow_rows(h, block.num_dst);
    ag::Value self_part =
        ag::matmul(h_dst, params.at(layer_param_name(l, "weight_self")));
    ag::Value agg = ag::block_spmm(block, h);
    ag::Value neigh_part =
        ag::matmul(agg, params.at(layer_param_name(l, "weight_neigh")));
    h = ag::add_bias(ag::add(self_part, neigh_part),
                     params.at(layer_param_name(l, "bias")));
    if (!last) h = ag::relu(h);
  }
  return h;
}

// ---- Infer mode -----------------------------------------------------------

Executor::Executor(const LayerPlan& plan, const ParamStore& params)
    : Executor(plan, params, plan.num_nodes()) {}

Executor::Executor(const LayerPlan& plan, const ParamStore& params,
                   std::int64_t row_capacity)
    : plan_(plan), row_capacity_(row_capacity) {
  GSOUP_CHECK_MSG(row_capacity_ >= 1 && row_capacity_ <= plan.num_nodes(),
                  "executor row capacity " << row_capacity_
                                           << " outside [1, "
                                           << plan.num_nodes() << "]");
  const Precision prec = plan.precision();
  step_params_.reserve(plan.steps().size());
  for (const LayerStep& step : plan.steps()) {
    StepParams p;
    const auto resolve = [&](const std::string& name) -> const Tensor* {
      return name.empty() ? nullptr : &params.get(name);
    };
    const auto panel = [&](const std::string& name) -> Tensor {
      return name.empty() ? Tensor{} : params.get(name);
    };
    auto& w32 = std::get<Panels<Tensor>>(p.gemm);
    w32.weight = panel(step.weight);
    w32.weight_self = panel(step.weight_self);
    w32.weight_neigh = panel(step.weight_neigh);
    p.bias = resolve(step.bias);
    p.attn_dst = resolve(step.attn_dst);
    p.attn_src = resolve(step.attn_src);
    // Half plans: weight panels quantized once here, so the half run_*
    // paths allocate nothing either.
    if (prec != Precision::kFp32) {
      const auto quant = [&](const Tensor& t) -> HalfBuffer {
        return t.defined() ? HalfBuffer::quantize(t, prec) : HalfBuffer{};
      };
      auto& w16 = std::get<Panels<HalfBuffer>>(p.gemm);
      w16.weight = quant(w32.weight);
      w16.weight_self = quant(w32.weight_self);
      w16.weight_neigh = quant(w32.weight_neigh);
    }
    step_params_.push_back(std::move(p));
  }

  // Stage histograms resolved once per executor — registry lookups (and
  // their string building) stay out of every run_* call.
  for (int s = 0; s < kNumStages; ++s) {
    const std::string labels =
        std::string("arch=\"") + arch_label(plan.config().arch) +
        "\",stage=\"" + stage_name(static_cast<Stage>(s)) + "\"";
    stage_hist_[s] = &obs::histogram(
        "exec.stage_ms", labels, {},
        "Per-stage infer execution time in milliseconds");
  }

  // Everything any run_* call will ever touch, allocated once from the
  // plan's declared geometry. Half plans add the 16-bit inter-layer slabs.
  const std::int64_t slab_numel = row_capacity_ * plan.max_width();
  for (auto& buf : buf_) buf = Tensor::empty({slab_numel});
  if (plan.score_width() > 0) {
    score_dst_ws_ = Tensor::empty({row_capacity_ * plan.score_width()});
    score_src_ws_ = Tensor::empty({row_capacity_ * plan.score_width()});
  }
  if (prec != Precision::kFp32) {
    for (auto& buf : hbuf_) buf = HalfBuffer::empty({slab_numel}, prec);
  }
}

Tensor Executor::ws(int idx, std::int64_t rows, std::int64_t cols) {
  return buf_[idx].view_prefix({rows, cols});
}

template <class Act>
Act* Executor::act_slabs() {
  if constexpr (std::is_same_v<Act, Tensor>) {
    return buf_;
  } else {
    return hbuf_;
  }
}

std::size_t Executor::workspace_bytes() const {
  std::size_t total = 0;
  for (const auto& buf : buf_) total += buf.bytes();
  for (const auto& buf : hbuf_) {
    if (buf.defined()) total += buf.bytes();
  }
  if (score_dst_ws_.defined()) {
    total += score_dst_ws_.bytes() + score_src_ws_.bytes();
  }
  return total;
}

template <class Act>
Tensor Executor::run_layer(const LayerStep& step, const StepParams& p,
                           std::span<const std::int64_t> indptr,
                           std::span<const std::int32_t> indices,
                           std::span<const float> values, Act& h,
                           std::int64_t num_dst, Tensor* final_out,
                           const graph::BlockedCsr* spmm_layout,
                           const graph::BlockedCsr* attn_layout) {
  const ModelConfig& cfg = plan_.config();
  const Panels<Act>& w = std::get<Panels<Act>>(p.gemm);
  const std::int64_t num_src = h.shape(0);

  // Buffer discipline: h occupies one of the three activation slabs (or
  // is the external feature storage); the layer's stored output takes the
  // next one, GCN's stored H·W the one after. Identity is tracked by
  // storage, not index. At fp32 the activation slabs ARE the fp32 slabs,
  // so the fp32 output / scratch / fallback-combine roles rotate with h.
  // A half plan's fp32 slabs hold no value across a layer boundary, so
  // their roles stay where an external input puts them.
  Act* slabs = act_slabs<Act>();
  int in_idx = -1;
  for (int b = 0; b < 3; ++b) {
    if (h.shares_storage_with(slabs[b])) in_idx = b;
  }
  const int out_idx = (in_idx + 1) % 3;  // in_idx == -1 maps to 0
  const int extra_idx = (out_idx + 1) % 3;
  const int f_out = std::is_same_v<Act, Tensor> ? out_idx : 0;
  const int f_scratch = (f_out + 1) % 3;
  Tensor out = final_out != nullptr ? *final_out
                                    : ws(f_out, num_dst, step.out_width);

  switch (cfg.arch) {
    case Arch::kGcn: {
      // H' = Â (H W) + b. A half plan quantizes the H·W product (a
      // storage point) so the SpMM — which re-reads each row once per
      // incident edge — gathers 16-bit rows.
      Tensor hw = ws(f_scratch, num_src, step.out_width);
      {
        StageTimer t(stage_hist_, Stage::kGemm);
        linear_into(h, w.weight, hw);
      }
      {
        StageTimer t(stage_hist_, Stage::kSpmm);
        const Act& hw_stored = stored(hw, slabs[extra_idx]);
        if (spmm_layout != nullptr) {
          ag::spmm_blocked_overwrite(*spmm_layout, hw_stored, out);
        } else {
          ag::spmm_spans_overwrite(indptr, indices, values, hw_stored, out);
        }
      }
      StageTimer t(stage_hist_, Stage::kEpilogue);
      add_bias_inplace(out, *p.bias);
      if (!step.last) relu_inplace(out);
      break;
    }
    case Arch::kSage: {
      // H' = H_dst W_self + (D⁻¹A H) W_neigh + b; destinations are a
      // prefix of sources, so H_dst is a leading-rows view of H. The
      // combine keeps the tape's exact float order — (self + neigh) +
      // bias, with `self` the complete self GEMM product — in one of two
      // ways. When the whole contraction fits one blocked k-panel
      // (gemm_can_combine_bias), the neigh GEMM lands in `out` first and
      // the self GEMM's register-tile store applies (acc + out) + bias
      // directly: each output element's `acc` is the full self product,
      // so the fused store computes the identical expression without the
      // extra slab write+read+combine pass. Otherwise the two GEMMs land
      // in separate buffers and an elementwise epilogue combines them —
      // never accumulating one GEMM into the other's output, whose
      // different partial-sum order would break the bit-exact
      // train/infer parity contract. After agg and self are computed
      // h is dead, so its buffer (or the third buffer when the input is
      // external) holds neigh on the fallback path. In a half plan the
      // SpMM gathers 16-bit H rows into the fp32 aggregate, the neigh
      // GEMM runs fp32 A x half W, and the self GEMM reads half A and W.
      const Act h_dst = h.view_prefix({num_dst, step.in_dim});
      Tensor agg = ws(f_scratch, num_dst, step.in_dim);
      {
        StageTimer t(stage_hist_, Stage::kSpmm);
        if (spmm_layout != nullptr) {
          ag::spmm_blocked_overwrite(*spmm_layout, h, agg);
        } else {
          ag::spmm_spans_overwrite(indptr, indices, values, h, agg);
        }
      }
      if (ops::gemm_can_combine_bias(num_dst, step.out_width, step.in_dim)) {
        StageTimer t(stage_hist_, Stage::kGemm);
        linear_into(agg, w.weight_neigh, out);
        ops::matmul_combine_bias(h_dst, w.weight_self, *p.bias, out);
      } else {
        Tensor neigh = ws((f_scratch + 1) % 3, num_dst, step.out_width);
        {
          StageTimer t(stage_hist_, Stage::kGemm);
          linear_into(h_dst, w.weight_self, out);
          linear_into(agg, w.weight_neigh, neigh);
        }
        StageTimer epilogue_timer(stage_hist_, Stage::kEpilogue);
        const std::int64_t m = out.shape(0), n = out.shape(1);
        float* __restrict__ po = out.data();
        const float* __restrict__ pn = neigh.data();
        const float* __restrict__ pb = p.bias->data();
#pragma omp parallel for schedule(static) if (m * n >= (1 << 15))
        for (std::int64_t i = 0; i < m; ++i) {
          float* __restrict__ orow = po + i * n;
          const float* __restrict__ nrow = pn + i * n;
#pragma omp simd
          for (std::int64_t j = 0; j < n; ++j) {
            orow[j] = (orow[j] + nrow[j]) + pb[j];
          }
        }
      }
      if (!step.last) {
        StageTimer t(stage_hist_, Stage::kEpilogue);
        relu_inplace(out);
      }
      break;
    }
    case Arch::kGat: {
      // Only the GEMM operands are stored at the plan's precision: the
      // attention kernels read the fp32 H·W product and per-head scores,
      // so attention numerics are untouched by precision.
      Tensor hw = ws(f_scratch, num_src, step.out_width);
      Tensor s_src = score_src_ws_.view_prefix({num_src, step.heads});
      Tensor s_dst = score_dst_ws_.view_prefix({num_dst, step.heads});
      {
        StageTimer t(stage_hist_, Stage::kGemm);
        linear_into(h, w.weight, hw);
        ops::per_head_dot_into(hw, *p.attn_src, step.heads, s_src);
        Tensor hw_dst = hw.view_prefix({num_dst, step.out_width});
        ops::per_head_dot_into(hw_dst, *p.attn_dst, step.heads, s_dst);
      }
      // Infer lowering: the alpha-skip kernel — no [E, heads] store, no
      // normalisation walk; bit-identical output to the training forward.
      {
        StageTimer t(stage_hist_, Stage::kAttention);
        if (attn_layout != nullptr) {
          ag::gat_attention_infer(*attn_layout, hw, s_dst, s_src, step.heads,
                                  cfg.attn_slope, out);
        } else {
          ag::gat_attention_infer(indptr, indices, hw, s_dst, s_src,
                                  step.heads, cfg.attn_slope, out);
        }
      }
      StageTimer t(stage_hist_, Stage::kEpilogue);
      add_bias_inplace(out, *p.bias);
      if (!step.last) elu_inplace(out);
      break;
    }
  }
  // Storage point: the activated output becomes the next layer's input —
  // `out` itself at fp32, quantized into the next half slab otherwise.
  if constexpr (std::is_same_v<Act, Tensor>) {
    h = out;
  } else if (!step.last) {
    StageTimer t(stage_hist_, Stage::kEpilogue);
    h = stored(out, slabs[out_idx]);
  }
  return out;
}

template <class Act>
void Executor::run_full(const Act& features, Tensor& out) {
  const std::int64_t n = plan_.num_nodes();
  GSOUP_CHECK_MSG(row_capacity_ == n,
                  "run_full: executor sized for " << row_capacity_
                                                  << " of " << n << " rows");
  check_storage(features, plan_.precision(), "run_full");
  GSOUP_CHECK_MSG(features.rank() == 2 && features.shape(0) == n &&
                      features.shape(1) == plan_.config().in_dim,
                  "run_full: feature matrix " << features.shape_str()
                                              << " does not match the plan");
  GSOUP_CHECK_MSG(out.rank() == 2 && out.shape(0) == n &&
                      out.shape(1) == plan_.config().out_dim,
                  "run_full: bad output shape " << out.shape_str());
  const Csr& g = plan_.message_graph();
  Act h = features;
  for (std::size_t l = 0; l < plan_.steps().size(); ++l) {
    const LayerStep& step = plan_.steps()[l];
    run_layer(step, step_params_[l], g.indptr, g.indices, g.values, h, n,
              step.last ? &out : nullptr, step.spmm_layout,
              step.attn_layout);
  }
}

template <class Act>
const Tensor& Executor::run_subgraph(const SubgraphPlan& sp,
                                     const Act& features) {
  GSOUP_CHECK_MSG(
      static_cast<std::int64_t>(sp.layers.size()) == plan_.num_layers(),
      "run_subgraph: plan has " << sp.layers.size() << " layers, model "
                                << plan_.num_layers());
  GSOUP_CHECK_MSG(sp.max_rows() <= row_capacity_,
                  "run_subgraph: plan needs " << sp.max_rows()
                                              << " rows, executor sized for "
                                              << row_capacity_);
  check_storage(features, plan_.precision(), "run_subgraph");
  // The input rows are gathered at storage width (a half plan copies
  // 16-bit rows — half the gather traffic); the first layer's kernels
  // read them like any other activation slab.
  const Block& input = sp.layers.front();
  Act h = act_slabs<Act>()[0].view_prefix(
      {input.num_src(), plan_.config().in_dim});
  {
    StageTimer t(stage_hist_, Stage::kGather);
    ops::gather_rows_into(features, input.src_nodes, h);
  }
  for (std::size_t l = 0; l < plan_.steps().size(); ++l) {
    const Block& P = sp.layers[l];
    subgraph_out_ = run_layer(plan_.steps()[l], step_params_[l], P.indptr,
                              P.indices, P.values, h, P.num_dst, nullptr,
                              nullptr, nullptr);
  }
  return subgraph_out_;
}

template void Executor::run_full(const Tensor&, Tensor&);
template void Executor::run_full(const HalfBuffer&, Tensor&);
template const Tensor& Executor::run_subgraph(const SubgraphPlan&,
                                              const Tensor&);
template const Tensor& Executor::run_subgraph(const SubgraphPlan&,
                                              const HalfBuffer&);

}  // namespace gsoup::exec
