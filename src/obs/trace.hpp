// Trace spans: cheap scoped timers writing to per-thread ring buffers,
// exported as Chrome trace-event JSON (loadable in chrome://tracing and
// Perfetto).
//
//   { OBS_SPAN("serve.batch_exec"); ... }       // thread-local duration
//   obs::trace::async_begin("serve.query", id); // cross-thread lifecycle
//   obs::trace::async_end("serve.query", id);
//
// Overhead discipline (same as util/failpoint): disabled — the default —
// every hook is one relaxed atomic load and a branch, no clock read, no
// allocation. Enabled, a span costs two steady_clock reads and one ring
// slot write. Rings are fixed-capacity per thread (GSOUP_TRACE_RING or
// set_ring_capacity, default 16384 events) and overwrite their oldest
// events on overflow — recording NEVER blocks and never allocates after
// the ring exists (the ring itself is allocated on a thread's first
// recorded event).
//
// Cross-thread per-query timelines use async events ('b'/'e' with an id):
// the serve layer emits one "serve.query" async span per query plus
// nested phase spans (serve.pending -> serve.queue_wait -> serve.exec),
// so a trace shows exactly where each query's milliseconds went — see
// docs/ARCHITECTURE.md "Observability".
//
// Export is intended for quiesced moments (end of run, after drain()):
// writers are wait-free and the exporter takes the latest <= capacity
// events per ring; a writer lapping the exporter mid-read can smear that
// one event's fields, which display tools tolerate and steady traffic
// makes unlikely.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gsoup::obs::trace {

/// One recorded event. `name` must be a string with static storage
/// duration (the macro's literals): rings store the pointer only.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_us = 0;   ///< microseconds since the trace epoch
  std::uint64_t dur_us = 0;  ///< 'X' events only
  std::uint64_t id = 0;      ///< 'b'/'e' events only
  std::uint32_t tid = 0;
  char phase = 'X';          ///< 'X' complete, 'b'/'e' async, 'i' instant
};

void set_enabled(bool on) noexcept;

namespace detail {
extern std::atomic<bool> g_enabled;
void record(const char* name, char phase, std::uint64_t ts_us,
            std::uint64_t dur_us, std::uint64_t id) noexcept;
std::uint64_t now_us() noexcept;
}  // namespace detail

inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Ring capacity (events per thread) for rings created AFTER this call;
/// existing rings keep their size. Also settable via GSOUP_TRACE_RING.
void set_ring_capacity(std::size_t events);

/// Drop all recorded events (rings stay registered). Events recorded
/// concurrently with clear() may survive it.
void clear();

/// Events dropped to overflow since start/clear, across all rings.
std::uint64_t dropped_events();

/// Latest <= capacity events of every ring (oldest first per thread).
std::vector<TraceEvent> snapshot_events();

/// Chrome trace-event JSON ({"traceEvents": [...]}).
void export_chrome(std::ostream& out);
/// Convenience: write export_chrome to `path`; false on I/O failure.
bool export_chrome_file(const std::string& path);

/// A fresh async-span id, unique across the process: every server (each
/// replica of each shard, and the router) draws from this one counter, so
/// their spans never share an id.
std::uint64_t next_async_id() noexcept;

/// Begin/end one async (cross-thread) span; events pair by (name, id).
inline void async_begin(const char* name, std::uint64_t id) noexcept {
  if (!enabled()) return;
  detail::record(name, 'b', detail::now_us(), 0, id);
}
inline void async_end(const char* name, std::uint64_t id) noexcept {
  if (!enabled()) return;
  detail::record(name, 'e', detail::now_us(), 0, id);
}
/// Zero-duration marker on the calling thread's track.
inline void instant(const char* name) noexcept {
  if (!enabled()) return;
  detail::record(name, 'i', detail::now_us(), 0, 0);
}

/// Scoped duration span; see OBS_SPAN.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept {
    if (enabled()) {
      name_ = name;
      start_ = detail::now_us();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      const std::uint64_t end = detail::now_us();
      detail::record(name_, 'X', start_, end - start_, 0);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

}  // namespace gsoup::obs::trace

#define GSOUP_OBS_CONCAT_(a, b) a##b
#define GSOUP_OBS_CONCAT(a, b) GSOUP_OBS_CONCAT_(a, b)
/// Scoped trace span covering the rest of the enclosing block.
#define OBS_SPAN(name)                                  \
  ::gsoup::obs::trace::ScopedSpan GSOUP_OBS_CONCAT(     \
      gsoup_obs_span_, __COUNTER__)(name)
