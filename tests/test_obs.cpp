// Observability subsystem tests: metrics-registry correctness under
// concurrent hammering (values conserved, snapshots never torn), histogram
// bucket-boundary placement and merge/delta algebra, quantile agreement
// with util/stats percentile_sorted (the ONE p50/p99 definition), exporter
// well-formedness (Prometheus text and JSON), trace-ring overflow (oldest
// dropped, recording never blocks), span nesting and async pairing, and the
// end-to-end properties: instrumentation preserves the serving path's
// zero-tensor-allocation invariant, per-stage exec profiling fills the
// exec.stage_ms family, and BatchServer counters match stats().
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace gsoup {
namespace {

/// The registry and trace flags are process-global; every test starts from
/// a clean slate and leaves instrumentation off.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::instance().reset_all_for_testing();
    obs::trace::clear();
  }
  void TearDown() override {
    obs::set_profiling(false);
    obs::trace::set_enabled(false);
    obs::trace::clear();
  }
};

Dataset obs_test_dataset() {
  SyntheticSpec spec;
  spec.num_nodes = 220;
  spec.avg_degree = 8.0;
  spec.num_classes = 5;
  spec.feature_dim = 12;
  spec.degree_sigma = 1.2;
  spec.seed = 7;
  return generate_dataset(spec);
}

ModelConfig obs_test_config(Arch arch, const Dataset& data) {
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.out_dim = data.num_classes;
  cfg.num_layers = 2;
  cfg.hidden_dim = arch == Arch::kGat ? 6 : 16;
  cfg.heads = 3;
  return cfg;
}

// ---- Counters and gauges --------------------------------------------------

TEST_F(ObsTest, CounterConservesConcurrentIncrements) {
  obs::Counter& c = obs::counter("test.hammer");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);

  // Same (name, labels) resolves to the same counter; a different label
  // body is a distinct metric.
  obs::counter("test.hammer").inc(5);
  EXPECT_EQ(c.value(), kThreads * kPerThread + 5);
  obs::counter("test.hammer", "k=\"v\"").inc();
  EXPECT_EQ(c.value(), kThreads * kPerThread + 5);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  obs::Gauge& g = obs::gauge("test.depth");
  g.set(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

// ---- Histogram core -------------------------------------------------------

TEST_F(ObsTest, HistogramBucketBoundaries) {
  const obs::HistogramSpec spec;
  // `le` semantics: a value equal to a bucket's upper bound lands in that
  // bucket; just above moves to the next.
  for (const int b : {0, 1, 7, 12, 40, spec.num_buckets() - 2}) {
    const double ub = spec.upper_bound(b);
    EXPECT_EQ(spec.bucket_index(ub), b) << "at upper bound of bucket " << b;
    EXPECT_EQ(spec.bucket_index(ub * 1.0001), b + 1)
        << "just above bucket " << b;
  }
  // Below the first upper bound -> bucket 0; beyond the span -> overflow.
  EXPECT_EQ(spec.bucket_index(0.0), 0);
  EXPECT_EQ(spec.bucket_index(spec.min_upper / 10.0), 0);
  EXPECT_EQ(spec.bucket_index(1e12), spec.num_buckets() - 1);
  EXPECT_TRUE(std::isinf(spec.upper_bound(spec.num_buckets() - 1)));
}

TEST_F(ObsTest, HistogramConcurrentObservationsConserved) {
  obs::Histogram& h = obs::histogram("test.lat_ms");
  constexpr int kThreads = 6;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  // A reader snapshots while writers hammer: count must always equal the
  // bucket sum (snapshot-consistency is definitional, so a torn read would
  // show up as count != Σ buckets).
  std::thread reader([&] {
    while (!stop.load()) {
      const obs::HistogramData snap = h.snapshot();
      std::uint64_t total = 0;
      for (const std::uint64_t b : snap.buckets()) total += b;
      ASSERT_EQ(snap.count(), total);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(0.01 * static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  const obs::HistogramData snap = h.snapshot();
  EXPECT_EQ(snap.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += 0.01 * static_cast<double>(t + 1) * kPerThread;
  }
  EXPECT_NEAR(snap.sum(), expected_sum, expected_sum * 1e-9);
  EXPECT_DOUBLE_EQ(snap.max(), 0.01 * kThreads);
}

TEST_F(ObsTest, HistogramMergeAndDelta) {
  obs::HistogramData a, b;
  for (const double v : {0.5, 1.0, 2.0}) a.observe(v);
  for (const double v : {4.0, 8.0}) b.observe(v);

  obs::HistogramData merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), 5u);
  EXPECT_DOUBLE_EQ(merged.sum(), 15.5);
  EXPECT_DOUBLE_EQ(merged.max(), 8.0);

  // delta_since recovers exactly the observations added after the base
  // snapshot (max is kept from the later snapshot, documented).
  const obs::HistogramData base = a;
  a.observe(16.0);
  a.observe(32.0);
  const obs::HistogramData delta = a.delta_since(base);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_DOUBLE_EQ(delta.sum(), 48.0);
  const obs::HistogramSpec spec;
  EXPECT_EQ(delta.buckets()[static_cast<std::size_t>(spec.bucket_index(16.0))],
            1u);
  EXPECT_EQ(delta.buckets()[static_cast<std::size_t>(spec.bucket_index(32.0))],
            1u);
}

TEST_F(ObsTest, QuantileAgreesWithPercentileSorted) {
  // The histogram quantile must agree with util/stats percentile_sorted to
  // within one bucket's resolution (12 buckets/decade ~ 21%), across a
  // skewed latency-like sample.
  Rng rng(17);
  std::vector<double> sample;
  obs::HistogramData hist;
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.uniform();
    const double v = 0.05 * (1.0 + 40.0 * u * u * u);  // long right tail
    sample.push_back(v);
    hist.observe(v);
  }
  std::sort(sample.begin(), sample.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = percentile_sorted(sample, q);
    const double approx = hist.quantile(q);
    EXPECT_NEAR(approx, exact, exact * 0.25)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  // Empty histogram: every quantile is 0, like percentile_sorted({}).
  EXPECT_DOUBLE_EQ(obs::HistogramData().quantile(0.99), 0.0);
}

// ---- Exporters ------------------------------------------------------------

TEST_F(ObsTest, PrometheusExportWellFormed) {
  obs::counter("test.events", "", "Events seen").inc(7);
  obs::gauge("test.depth").set(3.0);
  obs::Histogram& h = obs::histogram("test.lat_ms", "stage=\"gemm\"");
  for (const double v : {0.1, 0.5, 2.5}) h.observe(v);

  const std::string text = obs::export_prometheus_text();
  EXPECT_NE(text.find("# HELP gsoup_test_events_total Events seen"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gsoup_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gsoup_test_events_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsoup_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsoup_test_lat_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gsoup_test_lat_ms_bucket{stage=\"gemm\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("gsoup_test_lat_ms_count{stage=\"gemm\"} 3"),
            std::string::npos);
  // Armed failpoint counter families ride along automatically.
  EXPECT_NE(text.find("gsoup_failpoint_hits_total"), std::string::npos);

  // Bucket lines are cumulative and non-decreasing, ending at count.
  // (Scan one series: registration outlives reset_all_for_testing, so an
  // earlier test's unlabeled test.lat_ms series also exports.)
  std::istringstream lines(text);
  std::string line;
  std::uint64_t prev = 0, last = 0;
  int bucket_lines = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("gsoup_test_lat_ms_bucket{stage=\"gemm\",", 0) != 0) {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    const std::uint64_t v = std::stoull(line.substr(space + 1));
    EXPECT_GE(v, prev) << "cumulative buckets must be non-decreasing";
    prev = last = v;
    ++bucket_lines;
  }
  EXPECT_EQ(bucket_lines, obs::HistogramSpec{}.num_buckets());
  EXPECT_EQ(last, 3u);
}

TEST_F(ObsTest, JsonExportContainsMetrics) {
  obs::counter("test.events").inc(11);
  obs::histogram("test.lat_ms").observe(1.25);
  const std::string json = obs::export_json_text();
  EXPECT_NE(json.find("\"schema\": \"gsoup-metrics/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.events\""), std::string::npos);
  EXPECT_NE(json.find("\"test.lat_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---- Trace rings ----------------------------------------------------------

TEST_F(ObsTest, TraceRingOverflowDropsOldestAndNeverBlocks) {
  obs::trace::set_ring_capacity(64);
  obs::trace::set_enabled(true);
  obs::trace::clear();
  const std::uint64_t dropped_before = obs::trace::dropped_events();
  // A fresh thread gets a fresh 64-slot ring; writing 64 + 50 events must
  // complete (wait-free) and keep only the newest 64.
  std::thread writer([] {
    for (int i = 0; i < 64 + 50; ++i) obs::trace::instant("test.overflow");
  });
  writer.join();
  const std::vector<obs::trace::TraceEvent> events =
      obs::trace::snapshot_events();
  std::size_t ours = 0;
  for (const auto& e : events) {
    if (std::string(e.name) == "test.overflow") ++ours;
  }
  EXPECT_EQ(ours, 64u);
  EXPECT_GE(obs::trace::dropped_events() - dropped_before, 50u);
}

TEST_F(ObsTest, SpanNestingContainment) {
  obs::trace::set_ring_capacity(256);
  obs::trace::set_enabled(true);
  obs::trace::clear();
  {
    OBS_SPAN("test.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      OBS_SPAN("test.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto events = obs::trace::snapshot_events();
  const obs::trace::TraceEvent* outer = nullptr;
  const obs::trace::TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "test.outer") outer = &e;
    if (std::string(e.name) == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->phase, 'X');
  // The inner span's interval nests inside the outer's.
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
  EXPECT_GT(outer->dur_us, inner->dur_us);
}

TEST_F(ObsTest, AsyncEventsPairAcrossThreads) {
  obs::trace::set_ring_capacity(256);
  obs::trace::set_enabled(true);
  obs::trace::clear();
  constexpr std::uint64_t kId = 42;
  obs::trace::async_begin("test.query", kId);
  std::thread other([] { obs::trace::async_end("test.query", kId); });
  other.join();

  const auto events = obs::trace::snapshot_events();
  const obs::trace::TraceEvent* begin = nullptr;
  const obs::trace::TraceEvent* end = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) != "test.query") continue;
    if (e.phase == 'b') begin = &e;
    if (e.phase == 'e') end = &e;
  }
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(begin->id, kId);
  EXPECT_EQ(end->id, kId);
  EXPECT_NE(begin->tid, end->tid);  // recorded on different threads

  // The Chrome exporter emits both halves with matching ids.
  std::ostringstream out;
  obs::trace::export_chrome(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
}

TEST_F(ObsTest, DisabledHooksRecordNothing) {
  obs::trace::set_enabled(false);
  obs::trace::clear();
  {
    OBS_SPAN("test.disabled");
    obs::trace::async_begin("test.disabled", 1);
    obs::trace::async_end("test.disabled", 1);
    obs::trace::instant("test.disabled");
  }
  for (const auto& e : obs::trace::snapshot_events()) {
    EXPECT_STRNE(e.name, "test.disabled");
  }
}

// ---- End-to-end: exec profiling and serving -------------------------------

TEST_F(ObsTest, InstrumentationPreservesZeroAllocServing) {
  // The zero-tensor-allocation property of the serving fast path
  // (test_serve ZeroTrackedAllocationsAfterWarmup) must survive with
  // profiling AND tracing enabled: stage timers observe into pre-resolved
  // histograms and spans write into pre-allocated rings.
  const Dataset data = obs_test_dataset();
  const ModelConfig cfg = obs_test_config(Arch::kGcn, data);
  const GnnModel model(cfg);
  Rng rng(23);
  const ParamStore params = model.init_params(rng);
  auto ctx = std::make_shared<const GraphContext>(data.graph, Arch::kGcn);
  serve::InferenceEngine engine(cfg, params, ctx, data.features);

  obs::set_profiling(true);
  obs::trace::set_enabled(true);

  Tensor out = Tensor::empty({16, cfg.out_dim});
  std::vector<std::int64_t> nodes(16);
  // Warm-up passes size the plan vectors AND allocate this thread's trace
  // ring; after that, instrumented queries must not allocate tensors.
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i] = static_cast<std::int64_t>((i * 13 + rep) % 220);
    }
    engine.query(nodes, out);
  }
  const std::uint64_t allocs = MemoryTracker::alloc_count();
  for (int rep = 0; rep < 25; ++rep) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i] = static_cast<std::int64_t>((i * 7 + rep * 31) % 220);
    }
    engine.query(nodes, out);
  }
  EXPECT_EQ(MemoryTracker::alloc_count(), allocs)
      << "instrumented serving requests allocated tensors";
}

TEST_F(ObsTest, ExecStageProfilingFillsStageHistograms) {
  const Dataset data = obs_test_dataset();
  obs::set_profiling(true);
  for (const Arch arch : {Arch::kGcn, Arch::kSage, Arch::kGat}) {
    const ModelConfig cfg = obs_test_config(arch, data);
    const GnnModel model(cfg);
    Rng rng(29);
    const ParamStore params = model.init_params(rng);
    auto ctx = std::make_shared<const GraphContext>(data.graph, arch);
    serve::InferenceEngine engine(cfg, params, ctx, data.features);
    Tensor out = Tensor::empty({8, cfg.out_dim});
    const std::vector<std::int64_t> nodes = {1, 5, 9, 13, 17, 21, 25, 29};
    engine.query(nodes, out);
  }
  // Every arch times its declared stages (LayerStep::stages); the gather
  // stage comes from the subgraph batch path.
  const auto count = [](const char* labels) {
    return obs::histogram("exec.stage_ms", labels).snapshot().count();
  };
  EXPECT_GT(count("arch=\"gcn\",stage=\"gemm\""), 0u);
  EXPECT_GT(count("arch=\"gcn\",stage=\"spmm\""), 0u);
  EXPECT_GT(count("arch=\"gcn\",stage=\"epilogue\""), 0u);
  EXPECT_GT(count("arch=\"gcn\",stage=\"gather\""), 0u);
  EXPECT_GT(count("arch=\"sage\",stage=\"spmm\""), 0u);
  EXPECT_GT(count("arch=\"gat\",stage=\"attention\""), 0u);
  EXPECT_EQ(count("arch=\"gcn\",stage=\"attention\""), 0u);
}

TEST_F(ObsTest, ServerMetricsMatchStats) {
  const Dataset data = obs_test_dataset();
  const ModelConfig cfg = obs_test_config(Arch::kGcn, data);
  const GnnModel model(cfg);
  Rng rng(31);
  const serve::Snapshot snap =
      serve::make_snapshot(cfg, model.init_params(rng), data, "uniform");
  auto ctx = std::make_shared<const GraphContext>(data.graph, Arch::kGcn);
  serve::ServerConfig server_cfg;
  server_cfg.workers = 2;
  server_cfg.max_batch = 8;
  server_cfg.max_delay_ms = 2.0;

  constexpr int kQueries = 120;
  {
    serve::BatchServer server(snap, ctx, data.features, server_cfg);
    std::vector<std::future<serve::QueryResult>> futures;
    for (int i = 0; i < kQueries; ++i) {
      futures.push_back(server.submit((i * 7) % data.num_nodes()));
    }
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());
    server.drain();

    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.queries, kQueries);
    EXPECT_LE(stats.p50_latency_ms, stats.p99_latency_ms);
    EXPECT_LE(stats.p99_latency_ms, stats.max_latency_ms);
    EXPECT_GT(stats.mean_latency_ms, 0.0);

    // The registry mirrors agree with the server's own stats, and the
    // exported latency histogram holds the full population (no sampling
    // window): count == completed queries.
    EXPECT_EQ(obs::counter("serve.queries").value(),
              static_cast<std::uint64_t>(kQueries));
    EXPECT_EQ(obs::counter("serve.submitted").value(),
              static_cast<std::uint64_t>(kQueries));
    const obs::HistogramData lat =
        obs::histogram("serve.latency_ms").snapshot();
    EXPECT_EQ(lat.count(), static_cast<std::uint64_t>(kQueries));
    EXPECT_DOUBLE_EQ(lat.quantile(0.99), stats.p99_latency_ms);
    EXPECT_DOUBLE_EQ(lat.max(), stats.max_latency_ms);

    const obs::HistogramData snap_lat = server.latency_snapshot();
    EXPECT_EQ(snap_lat.count(), static_cast<std::uint64_t>(kQueries));
  }
  // Prometheus export carries the serve families.
  const std::string text = obs::export_prometheus_text();
  EXPECT_NE(text.find("gsoup_serve_queries_total 120"), std::string::npos);
  EXPECT_NE(text.find("gsoup_serve_latency_ms_bucket"), std::string::npos);
  EXPECT_NE(text.find("gsoup_serve_pending_depth"), std::string::npos);
}

TEST_F(ObsTest, ServerTraceTimelineCoversQueryLifecycle) {
  obs::trace::set_ring_capacity(8192);
  obs::trace::set_enabled(true);
  obs::trace::clear();

  const Dataset data = obs_test_dataset();
  const ModelConfig cfg = obs_test_config(Arch::kGcn, data);
  const GnnModel model(cfg);
  Rng rng(37);
  const serve::Snapshot snap =
      serve::make_snapshot(cfg, model.init_params(rng), data, "uniform");
  auto ctx = std::make_shared<const GraphContext>(data.graph, Arch::kGcn);
  serve::ServerConfig server_cfg;
  server_cfg.workers = 2;
  server_cfg.max_batch = 8;
  server_cfg.max_delay_ms = 2.0;
  {
    serve::BatchServer server(snap, ctx, data.features, server_cfg);
    std::vector<std::future<serve::QueryResult>> futures;
    for (int i = 0; i < 40; ++i) {
      futures.push_back(server.submit(i % data.num_nodes()));
    }
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());
    server.drain();
  }
  obs::trace::set_enabled(false);

  // Every completed query leaves a balanced serve.query async pair, and
  // the phase chain pending -> queue_wait -> exec closes what it opens.
  int query_b = 0, query_e = 0;
  int phase_b = 0, phase_e = 0;
  for (const auto& e : obs::trace::snapshot_events()) {
    const std::string name(e.name);
    if (name == "serve.query") {
      (e.phase == 'b' ? query_b : query_e) += 1;
    } else if (name == "serve.pending" || name == "serve.queue_wait" ||
               name == "serve.exec") {
      (e.phase == 'b' ? phase_b : phase_e) += 1;
    }
  }
  EXPECT_EQ(query_b, 40);
  EXPECT_EQ(query_e, 40);
  EXPECT_EQ(phase_b, phase_e);
  EXPECT_GE(phase_b, 40 * 3);  // three phases per completed query
}

TEST_F(ObsTest, QueryTraceIdsAreUniqueAcrossServers) {
  obs::trace::set_ring_capacity(8192);
  obs::trace::set_enabled(true);
  obs::trace::clear();

  const Dataset data = obs_test_dataset();
  const ModelConfig cfg = obs_test_config(Arch::kGcn, data);
  const GnnModel model(cfg);
  Rng rng(41);
  const serve::Snapshot snap =
      serve::make_snapshot(cfg, model.init_params(rng), data, "uniform");
  auto ctx = std::make_shared<const GraphContext>(data.graph, Arch::kGcn);
  serve::ServerConfig server_cfg;
  server_cfg.workers = 1;
  server_cfg.max_batch = 8;
  server_cfg.max_delay_ms = 1.0;
  {
    // Two servers in one process, as the replicas of a sharded server
    // are: their query timelines must not share an async id.
    serve::BatchServer a(snap, ctx, data.features, server_cfg);
    serve::BatchServer b(snap, ctx, data.features, server_cfg);
    std::vector<std::future<serve::QueryResult>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(a.submit(i % data.num_nodes()));
      futures.push_back(b.submit(i % data.num_nodes()));
    }
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  }
  obs::trace::set_enabled(false);

  std::vector<std::uint64_t> ids;
  for (const auto& e : obs::trace::snapshot_events()) {
    if (std::string(e.name) == "serve.query" && e.phase == 'b') {
      ids.push_back(e.id);
    }
  }
  ASSERT_EQ(ids.size(), 40u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "two servers emitted serve.query spans with the same id";
}

}  // namespace
}  // namespace gsoup
