#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

namespace gsoup::obs::trace {

namespace {

using Clock = std::chrono::steady_clock;

struct Ring {
  explicit Ring(std::size_t cap, std::uint32_t tid_)
      : buf(cap), tid(tid_) {}
  std::vector<TraceEvent> buf;
  /// Total events ever written; slot = head % buf.size(). Published with
  /// release so the exporter's acquire load sees completed slot writes.
  std::atomic<std::uint64_t> head{0};
  std::uint32_t tid;
};

struct RingRegistry {
  std::mutex mutex;
  /// Owned here, never freed: a thread's ring must outlive the thread so
  /// its events survive into the end-of-run export.
  std::vector<Ring*> rings;
  std::size_t capacity = 16384;
  Clock::time_point epoch = Clock::now();
  std::uint32_t next_tid = 1;

  RingRegistry() {
    if (const char* env = std::getenv("GSOUP_TRACE_RING")) {
      const long long v = std::atoll(env);
      if (v >= 64) capacity = static_cast<std::size_t>(v);
    }
  }
};

RingRegistry& ring_registry() {
  static RingRegistry* r = new RingRegistry();  // never destroyed
  return *r;
}

thread_local Ring* t_ring = nullptr;

Ring& this_thread_ring() {
  if (t_ring == nullptr) {
    RingRegistry& reg = ring_registry();
    std::lock_guard lock(reg.mutex);
    auto* ring = new Ring(reg.capacity, reg.next_tid++);
    reg.rings.push_back(ring);
    t_ring = ring;
  }
  return *t_ring;
}

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{false};

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - ring_registry().epoch)
          .count());
}

void record(const char* name, char phase, std::uint64_t ts_us,
            std::uint64_t dur_us, std::uint64_t id) noexcept {
  Ring& ring = this_thread_ring();
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  TraceEvent& e = ring.buf[h % ring.buf.size()];
  e.name = name;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.id = id;
  e.tid = ring.tid;
  e.phase = phase;
  ring.head.store(h + 1, std::memory_order_release);
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) {
  RingRegistry& reg = ring_registry();
  std::lock_guard lock(reg.mutex);
  reg.capacity = events < 64 ? 64 : events;
}

std::uint64_t next_async_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void clear() {
  RingRegistry& reg = ring_registry();
  std::lock_guard lock(reg.mutex);
  for (Ring* ring : reg.rings) {
    ring->head.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t dropped_events() {
  RingRegistry& reg = ring_registry();
  std::lock_guard lock(reg.mutex);
  std::uint64_t dropped = 0;
  for (const Ring* ring : reg.rings) {
    const std::uint64_t h = ring->head.load(std::memory_order_acquire);
    if (h > ring->buf.size()) dropped += h - ring->buf.size();
  }
  return dropped;
}

std::vector<TraceEvent> snapshot_events() {
  RingRegistry& reg = ring_registry();
  std::lock_guard lock(reg.mutex);
  std::vector<TraceEvent> out;
  for (const Ring* ring : reg.rings) {
    const std::uint64_t h = ring->head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->buf.size();
    const std::uint64_t n = h < cap ? h : cap;
    for (std::uint64_t i = h - n; i < h; ++i) {
      out.push_back(ring->buf[i % cap]);
    }
  }
  return out;
}

void export_chrome(std::ostream& out) {
  const std::vector<TraceEvent> events = snapshot_events();
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (e.name == nullptr) continue;  // smeared slot; skip
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << e.name << "\",\"ph\":\"" << e.phase
        << "\",\"cat\":\"gsoup\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":" << e.ts_us;
    if (e.phase == 'X') out << ",\"dur\":" << e.dur_us;
    if (e.phase == 'b' || e.phase == 'e') {
      out << ",\"id\":\"" << e.id << "\"";
    }
    if (e.phase == 'i') out << ",\"s\":\"t\"";
    out << "}";
  }
  out << "\n]}\n";
}

bool export_chrome_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  export_chrome(out);
  return static_cast<bool>(out);
}

}  // namespace gsoup::obs::trace
