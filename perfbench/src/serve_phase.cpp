#include "serve_phase.hpp"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <thread>

#include "measure.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace gsoup;
using namespace gsoup::serve;

ServeSetup serve_setup(const ServeSpec& spec, const Snapshot& snapshot,
                       const Dataset& data) {
  ServeSetup s;
  const double cpu0 = process_cpu_s();
  Timer t;
  save_snapshot(spec.snapshot_path, snapshot);
  s.write_s = t.seconds();
  t.reset();
  s.snapshot = load_snapshot(spec.snapshot_path);
  s.load_s = t.seconds();
  std::remove(spec.snapshot_path.c_str());

  ShardServerOptions opt;
  opt.num_shards = spec.shards;
  opt.partitioner = "multilevel";
  opt.seed = spec.seed;
  opt.replication_factor = spec.replicas;
  opt.server.workers = static_cast<std::size_t>(kServeWorkers);
  opt.server.max_batch = kMaxBatch;
  opt.server.max_delay_ms = kMaxDelayMs;
  opt.server.mode = spec.mode;
  t.reset();
  s.shards = make_serving_shards(data.graph, s.snapshot.config, opt);
  s.shard_build_s = t.seconds();
  t.reset();
  s.server = std::make_unique<ShardedServer>(s.snapshot, s.shards,
                                             data.features, opt);
  s.start_s = t.seconds();
  s.cpu_s = process_cpu_s() - cpu0;
  return s;
}

std::vector<std::int32_t> oracle_labels(
    const Snapshot& snapshot, std::shared_ptr<const GraphContext> ctx,
    const Tensor& features) {
  InferenceEngine engine(snapshot.config, snapshot.params, std::move(ctx),
                         features);
  const Tensor& logits = engine.full_logits();
  const std::int64_t n = logits.shape(0);
  const std::int64_t c = logits.shape(1);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    labels[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(std::max_element(row, row + c) - row);
  }
  return labels;
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Sent {
  Clock::time_point due;
  std::int64_t node = 0;
  std::future<QueryResult> result;
};

}  // namespace

OpenLoop drive_open_loop(ShardedServer& server, const ServeSpec& spec,
                         const std::vector<std::int32_t>& expected) {
  OpenLoop out;
  const auto total =
      static_cast<std::int64_t>(std::llround(kRateQps * spec.seconds));
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRateQps));
  const std::int64_t num_nodes = server.num_nodes();
  out.late_ms.reserve(static_cast<std::size_t>(total));
  out.latency_ms.reserve(static_cast<std::size_t>(total));

  const ShardedStats stats_before = server.stats();
  clockid_t collector_clock{};
  pthread_getcpuclockid(pthread_self(), &collector_clock);
  const double cpu_before = process_cpu_s();
  const double collector_cpu_before = thread_cpu_s();

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Sent> handoff;  // guarded by mutex
  bool done = false;         // guarded by mutex
  std::exception_ptr gen_error;
  double generator_cpu_s = 0.0;  // written by the generator before `done`
  // CPU readings the generator takes at each slice boundary of the
  // schedule: {process, generator thread, collector thread}.
  struct CpuSample {
    double process, generator, collector;
  };
  std::vector<CpuSample> samples;  // written by the generator before `done`
  const auto slice_len = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(kRateQps * kCpuSliceS)));

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  // The generator sends query i at start + i·period whatever the server
  // is doing (open loop); the calling thread collects answers.
  std::thread generator([&] {
    const double gen_cpu_before = thread_cpu_s();
    auto sample = [&] {
      samples.push_back({process_cpu_s(), thread_cpu_s(),
                         thread_cpu_s(collector_clock)});
    };
    try {
      Rng rng(spec.seed * 6364136223846793005ULL + 1442695040888963407ULL);
      for (std::int64_t i = 0; i < total; ++i) {
        const Clock::time_point due = start + i * period;
        std::this_thread::sleep_until(due);
        if (i % slice_len == 0) sample();
        const auto node = static_cast<std::int64_t>(
            rng.uniform_int(static_cast<std::uint64_t>(num_nodes)));
        const Clock::time_point sent_at = Clock::now();
        auto result = server.submit(node);
        out.late_ms.push_back(ms_between(due, sent_at));
        {
          std::lock_guard lock(mutex);
          handoff.push_back({due, node, std::move(result)});
        }
        cv.notify_one();
      }
    } catch (...) {
      gen_error = std::current_exception();
    }
    if (total % slice_len == 0) sample();
    generator_cpu_s = thread_cpu_s() - gen_cpu_before;
    {
      std::lock_guard lock(mutex);
      done = true;
    }
    cv.notify_one();
  });

  // Answers are seen by polling: block briefly on the oldest open query,
  // then sweep every open query for readiness, so an answer that
  // overtakes an older one is timed when it arrives, to within the
  // 100 µs poll. The generator is joined on every path.
  std::exception_ptr collect_error;
  try {
    std::vector<Sent> open;
    for (;;) {
      {
        std::unique_lock lock(mutex);
        if (open.empty()) {
          cv.wait(lock, [&] { return done || !handoff.empty(); });
        }
        while (!handoff.empty()) {
          open.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (done && open.empty()) break;
      }
      if (open.empty()) continue;
      open.front().result.wait_for(std::chrono::microseconds(100));
      const Clock::time_point now = Clock::now();
      std::size_t keep = 0;
      for (std::size_t i = 0; i < open.size(); ++i) {
        Sent& q = open[i];
        if (q.result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          if (keep != i) open[keep] = std::move(q);
          ++keep;
          continue;
        }
        ++out.sent;
        const QueryResult r = q.result.get();
        if (!r.ok()) {
          ++out.failed;
          if (out.first_error.empty()) out.first_error = r.error().message;
        } else if (r.value().stale) {
          ++out.stale;
        } else if (r.value().node != q.node ||
                   r.value().label !=
                       expected[static_cast<std::size_t>(q.node)]) {
          ++out.wrong;
        } else {
          ++out.answered;
          out.latency_ms.push_back(ms_between(q.due, now));
        }
      }
      open.resize(keep);
    }
  } catch (...) {
    collect_error = std::current_exception();
  }
  const double collector_cpu_s = thread_cpu_s() - collector_cpu_before;
  generator.join();
  if (gen_error) std::rethrow_exception(gen_error);
  if (collect_error) std::rethrow_exception(collect_error);

  out.harness_cpu_s = generator_cpu_s + collector_cpu_s;
  out.cpu_s = process_cpu_s() - cpu_before - out.harness_cpu_s;
  for (std::size_t k = 1; k < samples.size(); ++k) {
    const CpuSample& a = samples[k - 1];
    const CpuSample& b = samples[k];
    const double program_s = (b.process - a.process) -
                             (b.generator - a.generator) -
                             (b.collector - a.collector);
    out.slice_cpu_ms_per_query.push_back(1e3 * program_s /
                                         static_cast<double>(slice_len));
  }
  const ShardedStats stats_after = server.stats();
  out.failovers = stats_after.failovers - stats_before.failovers;
  out.hedges = stats_after.hedges - stats_before.hedges;
  out.probes = stats_after.probes - stats_before.probes;
  out.rejected = stats_after.total.rejected - stats_before.total.rejected;
  return out;
}

}  // namespace perfbench
