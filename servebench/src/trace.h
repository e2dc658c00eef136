// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer, recorded from the benchmark's side of
// the call: name, start, end, the span that was open on the same thread
// when it began (its parent) and the request it belongs to. Spans and
// counter samples go to per-thread buffers, so recording takes no lock
// after a thread's first span; Collect() merges them once the clients have
// stopped. Nothing is recorded while the tracer is disabled, and a
// disabled ScopedSpan costs one relaxed atomic load.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;   // steady clock, relative to the tracer's origin
  int64_t end_ns = 0;
  uint64_t id = 0;      // unique across threads; 0 means "none"
  uint64_t parent = 0;  // enclosing span on the same thread, or 0
  uint64_t request = 0;
  int thread = 0;
  int64_t self_ns = 0;  // filled by Collect(): duration minus child cover
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records one sample of a named count or ratio (only while enabled).
  void Count(const std::string& name, double value);

  // Every span and sample recorded so far, with self times computed.
  // Call only after every recording thread has finished.
  struct Collected {
    std::vector<Span> spans;
    std::map<std::string, std::vector<double>> samples;
  };
  Collected Collect();

  // Writes `spans` as JSON lines to `path` (at most `limit` of them).
  static bool WriteSpans(const std::vector<Span>& spans,
                         const std::string& path, size_t limit);

 private:
  friend class ScopedSpan;
  friend class RequestScope;

  struct ThreadLog {
    int thread = 0;
    uint64_t next_seq = 1;
    uint64_t open_span = 0;  // innermost open span on this thread
    uint64_t request = 0;    // current request id on this thread
    std::vector<Span> spans;
    std::map<std::string, std::vector<double>> samples;
  };
  ThreadLog& Log();
  int64_t Now() const;

  std::atomic<bool> enabled_{false};
  const int64_t origin_ns_;
  std::mutex logs_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by logs_mu_
};

// Marks the spans opened on this thread during its lifetime as belonging
// to request `id`.
class RequestScope {
 public:
  RequestScope(Tracer& tracer, uint64_t id);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  Tracer::ThreadLog* log_ = nullptr;
  uint64_t saved_ = 0;
};

// Records a span from construction to destruction (or End()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Renames the span before it ends (e.g. once a cache hit is known).
  void set_name(const char* name) { span_.name = name; }
  // Closes the span now; later calls do nothing.
  void End();

 private:
  Tracer* tracer_ = nullptr;
  Tracer::ThreadLog* log_ = nullptr;  // null when tracing was off
  Span span_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
