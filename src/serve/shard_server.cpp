#include "serve/shard_server.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace gsoup::serve {

namespace {
std::future<QueryResult> ready_future(QueryResult result) {
  std::promise<QueryResult> out;
  out.set_value(std::move(result));
  return out.get_future();
}
}  // namespace

const char* replica_health_name(ReplicaHealth h) {
  switch (h) {
    case ReplicaHealth::kHealthy: return "healthy";
    case ReplicaHealth::kSuspect: return "suspect";
    case ReplicaHealth::kDown: return "down";
    case ReplicaHealth::kRecovering: return "recovering";
  }
  return "unknown";
}

std::string replica_exec_failpoint(std::int64_t shard, std::int64_t replica) {
  return "serve.replica_exec.s" + std::to_string(shard) + ".r" +
         std::to_string(replica);
}

ShardSet make_serving_shards(const Csr& graph, const ModelConfig& config,
                             const ShardServerOptions& opt) {
  // The partitioners refuse num_parts > num_nodes; a caller asking for
  // more shards than nodes still gets the shard count it asked for —
  // partition what exists, pad with empty shards (never routed to).
  GSOUP_CHECK_MSG(opt.num_shards >= 1, "need >= 1 shard");
  const std::int64_t effective =
      std::min<std::int64_t>(opt.num_shards, graph.num_nodes);
  GSOUP_CHECK_MSG(effective >= 1, "cannot shard an empty graph");
  PartitionOptions popt;
  popt.num_parts = effective;
  popt.seed = opt.seed;
  // Serving has no validation split: balance node counts only.
  const std::vector<std::uint8_t> no_mask(
      static_cast<std::size_t>(graph.num_nodes), 0);
  Partitioning parts;
  if (opt.partitioner == "random") {
    parts = random_partition(graph, popt);
  } else if (opt.partitioner == "ldg") {
    parts = ldg_partition(graph, popt, no_mask);
  } else if (opt.partitioner == "multilevel") {
    parts = multilevel_partition(graph, popt, no_mask);
  } else {
    GSOUP_CHECK_MSG(false, "unknown partitioner '"
                               << opt.partitioner
                               << "' (random | ldg | multilevel)");
  }
  // halo = layer count: the minimal depth that keeps an L-layer query —
  // including the source degrees its normalisation weights read —
  // entirely shard-local (see partition/sharding.hpp).
  ShardSet set = build_shard_set(graph, parts,
                                 std::max<std::int64_t>(1, config.num_layers));
  for (std::int64_t s = effective; s < opt.num_shards; ++s) {
    ShardGraph empty;
    empty.index = s;
    empty.graph.num_nodes = 0;
    empty.graph.indptr = {0};
    set.shards.push_back(std::move(empty));
  }
  set.num_shards = opt.num_shards;
  return set;
}

ShardedServer::ShardedServer(const Snapshot& snapshot, const ShardSet& shards,
                             const Tensor& features, ShardServerOptions opt)
    : opt_(std::move(opt)),
      num_shards_(shards.num_shards),
      replicas_(opt_.replication_factor),
      out_dim_(snapshot.config.out_dim),
      owner_(shards.owner),
      local_id_(shards.local_id) {
  snapshot.validate();
  GSOUP_CHECK_MSG(num_shards_ >= 1, "sharded server needs >= 1 shard");
  GSOUP_CHECK_MSG(replicas_ >= 1 && replicas_ <= 32,
                  "replication_factor must be in [1, 32], got " << replicas_);
  GSOUP_CHECK_MSG(opt_.suspect_after >= 1 &&
                      opt_.down_after >= opt_.suspect_after,
                  "need down_after >= suspect_after >= 1");
  GSOUP_CHECK_MSG(snapshot.graph.num_nodes == shards.num_nodes(),
                  "snapshot was souped on " << snapshot.graph.num_nodes
                                            << " nodes; the shard set covers "
                                            << shards.num_nodes());
  GSOUP_CHECK_MSG(shards.halo_hops >= snapshot.config.num_layers,
                  "shard halo depth " << shards.halo_hops
                                      << " cannot serve a "
                                      << snapshot.config.num_layers
                                      << "-layer model shard-locally");
  GSOUP_CHECK_MSG(features.rank() == 2 &&
                      features.shape(0) == shards.num_nodes() &&
                      features.shape(1) == snapshot.config.in_dim,
                  "feature matrix " << features.shape_str()
                                    << " does not match graph/model");

  m_router_failed_ = &obs::counter(
      "serve.shard.router_failed", "",
      "Queries failed at shard dispatch (serve.shard_dispatch faults)");
  m_retries_ = &obs::counter(
      "serve.shard.retries_observed", "",
      "Client-side retries reported to the shard router");
  m_failover_ = &obs::counter("serve.replica.failover", "",
                              "Queries re-dispatched to a live sibling "
                              "replica after a replica failure");
  m_hedge_ = &obs::counter("serve.replica.hedge", "",
                           "Hedged dispatches fired to a second replica");
  m_hedge_wins_ = &obs::counter(
      "serve.replica.hedge_wins", "",
      "Hedged dispatches that answered before the primary");
  m_probe_ = &obs::counter("serve.replica.probe", "",
                           "Canary probes issued against down replicas");
  m_readmit_ = &obs::counter(
      "serve.replica.readmissions", "",
      "Down replicas readmitted to rotation by a canary probe");
  m_stale_ = &obs::counter(
      "serve.replica.stale_served", "",
      "Queries answered from the stale table (shard fully down)");
  m_exhausted_ = &obs::counter(
      "serve.replica.exhausted", "",
      "Queries failed ReplicasExhausted (no live replica left)");

  if (opt_.degraded == DegradedPolicy::kServeStale) {
    stale_logits_ = Tensor::empty({shards.num_nodes(), out_dim_});
  }

  shards_ = std::vector<Shard>(static_cast<std::size_t>(num_shards_));
  owned_counts_.assign(static_cast<std::size_t>(num_shards_), 0);
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    const ShardGraph& shard = shards.shards[static_cast<std::size_t>(s)];
    Shard& state = shards_[static_cast<std::size_t>(s)];
    owned_counts_[static_cast<std::size_t>(s)] = shard.num_owned;
    if (shard.num_local() == 0) continue;  // empty shard: never routed to

    // Per-shard engine stack, built ONCE and shared by every replica:
    // local GraphPlan (optional reordering of the shard-local numbering),
    // context with cached layouts, and the feature slice in shard-local
    // row order. Replication duplicates engine workspaces only.
    auto plan =
        std::make_shared<graph::GraphPlan>(shard.graph, opt_.reorder);
    auto ctx = std::make_shared<GraphContext>(std::move(plan),
                                              snapshot.config.arch);
    Tensor local_features =
        Tensor::empty({shard.num_local(), features.shape(1)});
    ops::gather_rows_into(features, shard.nodes, local_features);

    // Half-precision serving: quantize the shard's (plan-space) feature
    // slice ONCE here; every replica's BatchServer — and each of its
    // worker engines — shares this buffer, so replication still
    // duplicates only engine workspaces, now at half the feature cost.
    const StoredMatrix shard_features =
        opt_.server.precision == Precision::kFp32
            ? StoredMatrix(local_features)
            : forward_features(*ctx, local_features, FeatureSpace::kOriginal,
                               opt_.server.precision);

    // The inner server validates its snapshot against the shard-local
    // graph: rewrite the counts (parameters stay storage-shared with the
    // caller's snapshot — a shard is a view, not a copy, of the model).
    Snapshot local_snap = snapshot;
    local_snap.graph.num_nodes = shard.num_local();
    local_snap.graph.num_edges = shard.graph.num_edges();

    if (opt_.degraded == DegradedPolicy::kServeStale) {
      // Stale fallback: one cached-full pass over the shard-local graph;
      // the halo contract makes the OWNED rows bit-exact to the global
      // cached-full oracle (tests/test_shard.cpp CachedFullMode...), so
      // scattering them by shard.nodes assembles the global table
      // without ever needing the global CSR.
      InferenceEngine oracle(local_snap.config, local_snap.params, ctx,
                             shard_features, QueryMode::kCachedFull,
                             FeatureSpace::kOriginal, opt_.server.precision);
      const Tensor& local_logits = oracle.full_logits();
      for (std::int64_t i = 0; i < shard.num_owned; ++i) {
        const float* src = local_logits.data() + i * out_dim_;
        float* dst = stale_logits_.data() +
                     shard.nodes[static_cast<std::size_t>(i)] * out_dim_;
        std::copy(src, src + out_dim_, dst);
      }
    }

    state.probe_local = 0;  // first owned node: ring-0, always present
    state.hedge_delay_ms.store(opt_.hedge_min_delay_ms,
                               std::memory_order_relaxed);
    state.replicas.resize(static_cast<std::size_t>(replicas_));
    for (std::int64_t r = 0; r < replicas_; ++r) {
      ServerConfig cfg = opt_.server;
      cfg.metric_prefix = "serve.shard.";
      cfg.metric_labels = obs::format_label("shard", std::to_string(s)) +
                          "," +
                          obs::format_label("replica", std::to_string(r));
      cfg.report_ids =
          std::make_shared<const std::vector<std::int64_t>>(shard.nodes);
      cfg.row_guard = std::make_shared<const std::vector<std::uint8_t>>(
          shard.row_complete);
      cfg.exec_failpoint = replica_exec_failpoint(s, r);
      Replica& rep = state.replicas[static_cast<std::size_t>(r)];
      rep.server = std::make_unique<BatchServer>(local_snap, ctx,
                                                 shard_features, cfg);
      rep.m_health = &obs::gauge(
          "serve.replica.health", cfg.metric_labels,
          "Replica health (0 healthy, 1 suspect, 2 down, 3 recovering)");
      rep.m_health->set(0.0);
    }
  }

  router_ = std::thread([this] { router_loop(); });
}

ShardedServer::~ShardedServer() {
  // Phase 1: close intake — every further submit resolves kShutdown —
  // and forbid new failovers, hedges and probes; retire the router.
  {
    std::lock_guard lock(inflight_mutex_);
    closed_ = true;
  }
  router_cv_.notify_all();
  if (router_.joinable()) router_.join();
  // Phase 2: every outstanding dispatch — queries, hedge losers, probes —
  // calls back with the verdict the still-alive inner servers give it by
  // their own contract; the last callback of each entry erases it.
  {
    std::unique_lock lock(inflight_mutex_);
    inflight_cv_.wait(lock, [this] { return inflight_.empty(); });
  }
  // Phase 3: inner servers tear down (drain/fail-fast per their config)
  // and join their threads while the router members they called back
  // into are still alive.
  for (Shard& st : shards_) {
    for (Replica& r : st.replicas) r.server.reset();
  }
}

std::int32_t ShardedServer::shard_of(std::int64_t node) const {
  GSOUP_CHECK_MSG(node >= 0 && node < num_nodes(),
                  "node " << node << " out of range [0, " << num_nodes()
                          << ")");
  return owner_[static_cast<std::size_t>(node)];
}

bool ShardedServer::dispatch_allowed() {
  try {
    FAILPOINT("serve.shard_dispatch");
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

int ShardedServer::pick_replica(std::int64_t shard, std::uint32_t exclude) {
  Shard& st = shards_[static_cast<std::size_t>(shard)];
  const int n = static_cast<int>(st.replicas.size());
  if (n == 0) return -1;
  std::lock_guard lock(health_mutex_);
  const std::uint64_t start = st.rr++;
  int suspect = -1;
  for (int k = 0; k < n; ++k) {
    const int r = static_cast<int>((start + static_cast<std::uint64_t>(k)) %
                                   static_cast<std::uint64_t>(n));
    if ((exclude >> r) & 1u) continue;
    const ReplicaHealth h = st.replicas[static_cast<std::size_t>(r)].health;
    if (h == ReplicaHealth::kHealthy || h == ReplicaHealth::kRecovering) {
      return r;
    }
    if (h == ReplicaHealth::kSuspect && suspect < 0) suspect = r;
  }
  return suspect;
}

bool ShardedServer::shard_all_down(std::int64_t shard) const {
  const Shard& st = shards_[static_cast<std::size_t>(shard)];
  std::lock_guard lock(health_mutex_);
  for (const Replica& r : st.replicas) {
    if (r.health != ReplicaHealth::kDown) return false;
  }
  return !st.replicas.empty();
}

void ShardedServer::set_health_locked(std::int64_t shard, int replica,
                                      ReplicaHealth h) {
  Replica& rep =
      shards_[static_cast<std::size_t>(shard)].replicas[static_cast<std::size_t>(
          replica)];
  rep.health = h;
  rep.m_health->set(static_cast<double>(static_cast<int>(h)));
}

void ShardedServer::note_result(std::int64_t shard, int replica,
                                const QueryResult& result) {
  std::lock_guard lock(health_mutex_);
  Replica& rep =
      shards_[static_cast<std::size_t>(shard)].replicas[static_cast<std::size_t>(
          replica)];
  if (result.ok()) {
    rep.failure_streak = 0;
    if (rep.health != ReplicaHealth::kHealthy) {
      set_health_locked(shard, replica, ReplicaHealth::kHealthy);
    }
    return;
  }
  // Only execution failures and deadline expiries indict the replica;
  // overload is load (the router's, not the replica's, problem) and
  // shutdown is teardown.
  const ServeErrorCode code = result.error().code;
  if (code != ServeErrorCode::kExecFailed &&
      code != ServeErrorCode::kDeadlineExceeded) {
    return;
  }
  ++rep.failure_streak;
  if (rep.health == ReplicaHealth::kRecovering) {
    // One strike while on probation: straight back down.
    set_health_locked(shard, replica, ReplicaHealth::kDown);
  } else if (rep.failure_streak >= opt_.down_after) {
    set_health_locked(shard, replica, ReplicaHealth::kDown);
  } else if (rep.failure_streak >= opt_.suspect_after &&
             rep.health == ReplicaHealth::kHealthy) {
    set_health_locked(shard, replica, ReplicaHealth::kSuspect);
  }
}

QueryResult ShardedServer::stale_answer(std::int64_t global_node) const {
  const float* row = stale_logits_.data() + global_node * out_dim_;
  Prediction pred;
  pred.node = global_node;
  pred.label = static_cast<std::int32_t>(ops::argmax_row(row, out_dim_));
  pred.score = row[pred.label];
  pred.stale = true;
  return QueryResult::success(pred);
}

std::future<QueryResult> ShardedServer::submit(std::int64_t node) {
  return submit(node, opt_.server.default_deadline_ms);
}

std::future<QueryResult> ShardedServer::submit(std::int64_t node,
                                               double deadline_ms) {
  const std::int32_t s = shard_of(node);
  GSOUP_CHECK_MSG(!shards_[static_cast<std::size_t>(s)].replicas.empty(),
                  "node " << node << " routed to empty shard " << s);
  if (!dispatch_allowed()) {
    router_failed_.fetch_add(1, std::memory_order_relaxed);
    m_router_failed_->inc();
    return ready_future(QueryResult::failure(
        ServeErrorCode::kExecFailed,
        "shard dispatch fault (shard " + std::to_string(s) + ")"));
  }
  return routed_submit(node, deadline_ms);
}

std::future<QueryResult> ShardedServer::routed_submit(std::int64_t node,
                                                      double deadline_ms) {
  const std::int32_t s = owner_[static_cast<std::size_t>(node)];
  Shard& st = shards_[static_cast<std::size_t>(s)];

  std::unique_lock lock(inflight_mutex_);
  if (closed_) {
    return ready_future(QueryResult::failure(
        ServeErrorCode::kShutdown, "sharded server is shutting down"));
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  const int r = pick_replica(s, 0);
  if (r < 0) {
    // Every replica down: the degraded-mode policy decides, without
    // burning an inner submission on a server known to be dead.
    return ready_future(degraded_result(
        node, /*all_down=*/true,
        "no live replica for shard " + std::to_string(s)));
  }
  const Entry e = inflight_.emplace(inflight_.end());
  InFlight& q = *e;
  q.node = node;
  q.local = local_id_[static_cast<std::size_t>(node)];
  q.shard = s;
  q.outstanding = q.submitting = 1;
  q.tried = 1u << r;
  const auto now = Clock::now();
  if (deadline_ms > 0.0) {
    q.has_deadline = true;
    q.deadline = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               deadline_ms));
  }
  if (opt_.hedge && replicas_ > 1) {
    q.hedge_timer = hedge_timers_.emplace(
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      st.hedge_delay_ms.load(std::memory_order_relaxed))),
        e);
    // The new earliest timer: the router may be sleeping past it.
    if (*q.hedge_timer == hedge_timers_.begin()) router_cv_.notify_one();
  }
  std::future<QueryResult> fut = q.out.get_future();
  lock.unlock();
  dispatch(e, r, deadline_ms);
  return fut;
}

std::vector<QueryResult> ShardedServer::query(
    std::span<const std::int64_t> nodes) {
  const std::size_t n = nodes.size();
  std::vector<QueryResult> results(n);
  std::vector<std::future<QueryResult>> futures(n);
  std::vector<std::vector<std::size_t>> by_shard(
      static_cast<std::size_t>(num_shards_));
  for (std::size_t i = 0; i < n; ++i) {
    by_shard[static_cast<std::size_t>(shard_of(nodes[i]))].push_back(i);
  }

  // Dispatch every shard's sub-batch first (submits are non-blocking, so
  // shards execute concurrently), then collect shard by shard. A
  // serve.shard_dispatch fault fails exactly that shard's slots; with a
  // `once` spec the first non-empty shard (ascending id) faults
  // deterministically.
  std::vector<std::uint64_t> span_ids(static_cast<std::size_t>(num_shards_),
                                      0);
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    const auto& slots = by_shard[static_cast<std::size_t>(s)];
    if (slots.empty()) continue;
    if (!dispatch_allowed()) {
      router_failed_.fetch_add(slots.size(), std::memory_order_relaxed);
      m_router_failed_->inc(static_cast<std::uint64_t>(slots.size()));
      for (const std::size_t i : slots) {
        results[i] = QueryResult::failure(
            ServeErrorCode::kExecFailed,
            "shard dispatch fault (shard " + std::to_string(s) + ")");
      }
      continue;
    }
    if (obs::trace::enabled()) {
      const std::uint64_t id = obs::trace::next_async_id();
      span_ids[static_cast<std::size_t>(s)] = id;
      obs::trace::async_begin("serve.shard_exec", id);
    }
    for (const std::size_t i : slots) {
      futures[i] = routed_submit(nodes[i], opt_.server.default_deadline_ms);
    }
  }
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    for (const std::size_t i : by_shard[static_cast<std::size_t>(s)]) {
      if (futures[i].valid()) results[i] = futures[i].get();
    }
    if (span_ids[static_cast<std::size_t>(s)] != 0) {
      obs::trace::async_end("serve.shard_exec",
                            span_ids[static_cast<std::size_t>(s)]);
    }
  }
  return results;
}

void ShardedServer::dispatch(Entry e, int replica, double deadline_ms) {
  const InFlight& q = *e;
  shards_[static_cast<std::size_t>(q.shard)]
      .replicas[static_cast<std::size_t>(replica)]
      .server->submit(q.local, deadline_ms,
                      [this, e, replica](QueryResult result) {
                        on_answer(e, replica, std::move(result));
                      });
  // The entry outlives the submit CALL, not only its callback: the call
  // can still be inside the inner server after a callback — this one's,
  // or a query's it evicted — has let the destructor go ahead.
  std::lock_guard lock(inflight_mutex_);
  --e->submitting;
  retire_if_idle(e);
}

void ShardedServer::on_answer(Entry e, int replica, QueryResult result) {
  InFlight& q = *e;  // alive: this dispatch is still outstanding
  if (q.probe) {
    if (obs::trace::enabled()) {
      obs::trace::async_end("serve.replica_probe", q.span);
    }
    std::lock_guard lock(health_mutex_);
    Replica& rep = shards_[static_cast<std::size_t>(q.shard)]
                       .replicas[static_cast<std::size_t>(replica)];
    rep.probing = false;
    if (result.ok() && rep.health == ReplicaHealth::kDown) {
      rep.failure_streak = 0;
      set_health_locked(q.shard, replica, ReplicaHealth::kRecovering);
      readmissions_.fetch_add(1, std::memory_order_relaxed);
      m_readmit_->inc();
    }
  } else {
    note_result(q.shard, replica, result);
  }

  std::lock_guard lock(inflight_mutex_);
  --q.outstanding;
  const bool hedge = replica == q.hedge;
  if (hedge) q.hedge = -1;
  if (!q.probe && !q.resolved) {
    if (result.ok()) {
      // First answer wins; a dispatch still outstanding is the loser, and
      // its verdict only feeds the health machine.
      if (hedge) {
        hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        m_hedge_wins_->inc();
      }
      answered_.fetch_add(1, std::memory_order_relaxed);
      settle(q, std::move(result));
    } else {
      if (!q.first_error) q.first_error = result.error();
      // Failover: a failed primary re-dispatches to the next live replica
      // the query has not tried, within its remaining deadline budget.
      // Teardown (closed_) and terminal codes stop the cascade; a failed
      // hedge leaves the verdict to the primary. The router thread sends
      // it: this callback may be running inside an inner submit (a
      // refusal, or under kShedOldest an eviction), and sending from here
      // would nest one submit per query of a shed cascade.
      const auto now = Clock::now();
      int next = -1;
      if (!hedge && !closed_ &&
          result.error().code != ServeErrorCode::kShutdown &&
          (!q.has_deadline || now < q.deadline)) {
        next = pick_replica(q.shard, q.tried);
      }
      if (next >= 0) {
        q.tried |= 1u << next;
        ++q.failovers;
        failovers_.fetch_add(1, std::memory_order_relaxed);
        m_failover_->inc();
        ++q.outstanding;
        ++q.submitting;
        failovers_due_.push_back({e, next, remaining_ms(q, now)});
        router_cv_.notify_one();
      } else if (q.outstanding == 0) {
        settle(q, failure_result(q, result.error()));
      }
    }
  }
  retire_if_idle(e);
}

void ShardedServer::retire_if_idle(Entry e) {
  if (e->outstanding > 0 || e->submitting > 0) return;
  const bool last_probe = e->probe && --probes_in_flight_ == 0;
  inflight_.erase(e);
  if (inflight_.empty() || last_probe) inflight_cv_.notify_all();
}

void ShardedServer::settle(InFlight& q, QueryResult result) {
  q.resolved = true;
  if (q.hedge_timer) {
    hedge_timers_.erase(*q.hedge_timer);
    q.hedge_timer.reset();
  }
  q.out.set_value(std::move(result));
}

QueryResult ShardedServer::failure_result(const InFlight& q,
                                          const ServeError& err) {
  // The router DID fail over and still lost — or the whole shard died
  // under this query: same contract as a query that arrived after the
  // last replica went down. One health read decides both.
  const bool all_down = opt_.degraded == DegradedPolicy::kServeStale &&
                        shard_all_down(q.shard);
  if (q.failovers > 0 || all_down) {
    return degraded_result(
        q.node, all_down,
        "failover exhausted after " + std::to_string(q.failovers) +
            " attempt(s) on shard " + std::to_string(q.shard) +
            "; first error: " + q.first_error->message);
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  return QueryResult::failure(err.code, err.message);
}

QueryResult ShardedServer::degraded_result(std::int64_t node, bool all_down,
                                           const std::string& message) {
  if (opt_.degraded == DegradedPolicy::kServeStale && all_down) {
    stale_served_.fetch_add(1, std::memory_order_relaxed);
    answered_.fetch_add(1, std::memory_order_relaxed);
    m_stale_->inc();
    return stale_answer(node);
  }
  // A distinct code, so clients (and loadgen buckets) can tell a dead
  // replica set from one slow server.
  replicas_exhausted_.fetch_add(1, std::memory_order_relaxed);
  failed_.fetch_add(1, std::memory_order_relaxed);
  m_exhausted_->inc();
  return QueryResult::failure(ServeErrorCode::kReplicasExhausted, message);
}

double ShardedServer::remaining_ms(const InFlight& q,
                                   Clock::time_point now) const {
  if (!q.has_deadline) return 0.0;
  return std::chrono::duration<double, std::milli>(q.deadline - now).count();
}

void ShardedServer::refresh_hedge_delays() {
  if (!opt_.hedge) return;
  for (Shard& st : shards_) {
    if (st.replicas.empty()) continue;
    obs::HistogramData merged;
    for (const Replica& r : st.replicas) {
      merged.merge(r.server->latency_snapshot());
    }
    double delay = opt_.hedge_min_delay_ms;
    if (merged.count() > 0) {
      delay = std::max(delay, merged.quantile(opt_.hedge_quantile));
    }
    st.hedge_delay_ms.store(delay, std::memory_order_relaxed);
  }
}

void ShardedServer::router_loop() {
  std::vector<Send> sends;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(
          std::max(1.0, opt_.probe_interval_ms)));
  auto next_probe = Clock::now() + interval;
  std::unique_lock lock(inflight_mutex_);
  for (;;) {
    const Clock::time_point wake =
        hedge_timers_.empty()
            ? next_probe
            : std::min(next_probe, hedge_timers_.begin()->first);
    router_cv_.wait_until(lock, wake, [&] {
      return closed_ || !failovers_due_.empty() ||
             (!hedge_timers_.empty() && hedge_timers_.begin()->first < wake);
    });
    auto now = Clock::now();

    if (!closed_ && now >= next_probe) {
      next_probe = now + interval;
      lock.unlock();
      refresh_hedge_delays();
      lock.lock();
      // Canary: a known-good owned node, through the replica's ordinary
      // batch path — the probe proves the whole dispatch/execute loop,
      // not just process liveness. One outstanding probe per replica;
      // its deadline bounds how long a hung replica holds it.
      std::lock_guard health_lock(health_mutex_);
      for (std::int64_t s = 0; s < num_shards_ && !closed_; ++s) {
        Shard& st = shards_[static_cast<std::size_t>(s)];
        for (std::size_t r = 0; r < st.replicas.size(); ++r) {
          Replica& rep = st.replicas[r];
          if (rep.health != ReplicaHealth::kDown || rep.probing) continue;
          rep.probing = true;
          const Entry e = inflight_.emplace(inflight_.end());
          e->probe = true;
          e->shard = static_cast<std::int32_t>(s);
          e->local = st.probe_local;
          e->outstanding = e->submitting = 1;
          e->span = obs::trace::next_async_id();
          ++probes_in_flight_;
          probes_.fetch_add(1, std::memory_order_relaxed);
          m_probe_->inc();
          if (obs::trace::enabled()) {
            obs::trace::async_begin("serve.replica_probe", e->span);
          }
          sends.push_back({e, static_cast<int>(r), opt_.probe_deadline_ms});
        }
      }
    }

    // Hedged dispatch: each due query's primary has outlived the shard's
    // latency quantile — race a second replica, first answer wins.
    now = Clock::now();
    while (!closed_ && !hedge_timers_.empty() &&
           hedge_timers_.begin()->first <= now) {
      const Entry e = hedge_timers_.begin()->second;
      hedge_timers_.erase(hedge_timers_.begin());
      InFlight& q = *e;
      q.hedge_timer.reset();
      const int h = pick_replica(q.shard, q.tried);
      if (h < 0) continue;
      q.tried |= 1u << h;
      q.hedge = h;
      ++q.outstanding;
      ++q.submitting;
      hedges_.fetch_add(1, std::memory_order_relaxed);
      m_hedge_->inc();
      sends.push_back({e, h, remaining_ms(q, now)});
    }

    // Failovers go out even once closed: the destructor waits for them,
    // and on_answer() queues none after closed_ is set.
    sends.insert(sends.end(), failovers_due_.begin(), failovers_due_.end());
    failovers_due_.clear();
    if (sends.empty()) {
      if (closed_) return;
      continue;
    }
    redispatches_ += sends.size();
    inflight_cv_.notify_all();
    lock.unlock();
    for (const Send& send : sends) {
      dispatch(send.e, send.replica, send.deadline_ms);
    }
    sends.clear();
    lock.lock();
  }
}

void ShardedServer::drain() {
  // Inner drains flush partial batches; failover re-dispatches, hedges
  // and probes can create NEW inner work after a drain pass, so drain
  // again whenever one was sent, until the router itself is idle.
  // Failovers and hedges are bounded per query (each replica tried at
  // most once), and a replica gets its next probe only at the probe tick
  // after its last one answered, so an idle moment always comes.
  std::unique_lock lock(inflight_mutex_);
  while (!inflight_.empty()) {
    const std::uint64_t seen = redispatches_;
    lock.unlock();
    for (Shard& st : shards_) {
      for (Replica& r : st.replicas) r.server->drain();
    }
    lock.lock();
    inflight_cv_.wait(lock, [&] {
      return inflight_.empty() || redispatches_ != seen;
    });
  }
}

void ShardedServer::record_retries(std::uint64_t n) {
  retries_observed_.fetch_add(n, std::memory_order_relaxed);
  m_retries_->inc(n);
}

obs::HistogramData ShardedServer::latency_snapshot() const {
  obs::HistogramData merged;
  for (const Shard& st : shards_) {
    for (const Replica& r : st.replicas) {
      merged.merge(r.server->latency_snapshot());
    }
  }
  return merged;
}

std::vector<std::vector<ReplicaHealth>> ShardedServer::replica_health()
    const {
  std::vector<std::vector<ReplicaHealth>> out(
      static_cast<std::size_t>(num_shards_));
  std::lock_guard lock(health_mutex_);
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    const Shard& st = shards_[static_cast<std::size_t>(s)];
    out[static_cast<std::size_t>(s)].reserve(st.replicas.size());
    for (const Replica& r : st.replicas) {
      out[static_cast<std::size_t>(s)].push_back(r.health);
    }
  }
  return out;
}

ShardedStats ShardedServer::stats() const {
  // A canary probe in flight reads as submitted but unresolved on its
  // replica, though no client sent it. Wait out the ones in flight (a
  // hung replica holds this until it answers or expires its probe), then
  // read under health_mutex_, which the router holds to start a probe, so
  // the counts below are a cut no probe is part-way through.
  std::unique_lock lock(inflight_mutex_);
  inflight_cv_.wait(lock, [this] { return probes_in_flight_ == 0; });
  std::lock_guard health_lock(health_mutex_);
  lock.unlock();
  ShardedStats out;
  out.shards.resize(static_cast<std::size_t>(num_shards_));
  out.replicas.resize(static_cast<std::size_t>(num_shards_));
  obs::HistogramData merged;
  for (std::int64_t s = 0; s < num_shards_; ++s) {
    const Shard& st = shards_[static_cast<std::size_t>(s)];
    ServerStats& shard_total = out.shards[static_cast<std::size_t>(s)];
    for (std::size_t r = 0; r < st.replicas.size(); ++r) {
      ServerStats rs = st.replicas[r].server->stats();
      ReplicaStats entry;
      entry.server = rs;
      entry.health = st.replicas[r].health;
      out.replicas[static_cast<std::size_t>(s)].push_back(entry);
      for (ServerStats* acc : {&shard_total, &out.total}) {
        acc->submitted += rs.submitted;
        acc->queries += rs.queries;
        acc->batches += rs.batches;
        acc->rejected += rs.rejected;
        acc->deadline_expired += rs.deadline_expired;
        acc->failed_batches += rs.failed_batches;
        acc->failed_queries += rs.failed_queries;
        acc->shutdown_failed += rs.shutdown_failed;
        acc->plan_cache_hits += rs.plan_cache_hits;
        acc->plan_cache_misses += rs.plan_cache_misses;
      }
      merged.merge(st.replicas[r].server->latency_snapshot());
    }
    if (shard_total.batches > 0) {
      shard_total.mean_batch = static_cast<double>(shard_total.queries) /
                               static_cast<double>(shard_total.batches);
    }
  }
  if (out.total.batches > 0) {
    out.total.mean_batch = static_cast<double>(out.total.queries) /
                           static_cast<double>(out.total.batches);
  }
  if (merged.count() > 0) {
    out.total.p50_latency_ms = merged.quantile(0.50);
    out.total.p99_latency_ms = merged.quantile(0.99);
    out.total.mean_latency_ms = merged.mean();
    out.total.max_latency_ms = merged.max();
  }
  out.total.retries_observed =
      retries_observed_.load(std::memory_order_relaxed);
  out.router_failed = router_failed_.load(std::memory_order_relaxed);
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.answered = answered_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.stale_served = stale_served_.load(std::memory_order_relaxed);
  out.replicas_exhausted =
      replicas_exhausted_.load(std::memory_order_relaxed);
  out.failovers = failovers_.load(std::memory_order_relaxed);
  out.hedges = hedges_.load(std::memory_order_relaxed);
  out.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  out.probes = probes_.load(std::memory_order_relaxed);
  out.readmissions = readmissions_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace gsoup::serve
