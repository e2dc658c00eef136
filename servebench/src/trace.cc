#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace servebench {
namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : origin_ns_(SteadyNs()) {}

int64_t Tracer::Now() const { return SteadyNs() - origin_ns_; }

Tracer::ThreadLog& Tracer::Log() {
  thread_local const Tracer* owner = nullptr;
  thread_local ThreadLog* log = nullptr;
  if (owner != this || log == nullptr) {
    std::lock_guard<std::mutex> lock(logs_mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<int>(logs_.size());
    owner = this;
  }
  return *log;
}

void Tracer::Count(const std::string& name, double value) {
  if (!enabled()) return;
  Log().samples[name].push_back(value);
}

Tracer::Collected Tracer::Collect() {
  Collected out;
  {
    std::lock_guard<std::mutex> lock(logs_mu_);
    for (const auto& log : logs_) {
      out.spans.insert(out.spans.end(), log->spans.begin(), log->spans.end());
      for (const auto& [name, values] : log->samples) {
        auto& merged = out.samples[name];
        merged.insert(merged.end(), values.begin(), values.end());
      }
    }
  }
  // Self time: a span's duration minus the union of its children's
  // intervals, clipped to the span.
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(out.spans.size());
  for (size_t i = 0; i < out.spans.size(); ++i) index[out.spans[i].id] = i;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& span : out.spans) {
    if (span.parent != 0 && index.count(span.parent) > 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  for (Span& span : out.spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, span.end_ns);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
    }
    span.self_ns = span.end_ns - span.start_ns - covered;
  }
  std::sort(out.spans.begin(), out.spans.end(),
            [](const Span& a, const Span& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

bool Tracer::WriteSpans(const std::vector<Span>& spans,
                        const std::string& path, size_t limit) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const size_t n = std::min(limit, spans.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld,\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"thread\":%d}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.self_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread);
  }
  return std::fclose(file) == 0;
}

RequestScope::RequestScope(Tracer& tracer, uint64_t id) {
  if (!tracer.enabled()) return;
  log_ = &tracer.Log();
  saved_ = log_->request;
  log_->request = id;
}

RequestScope::~RequestScope() {
  if (log_ != nullptr) log_->request = saved_;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  log_ = &tracer.Log();
  span_.name = name;
  span_.id = (static_cast<uint64_t>(log_->thread) << 40) | log_->next_seq++;
  span_.parent = log_->open_span;
  span_.request = log_->request;
  span_.thread = log_->thread;
  log_->open_span = span_.id;
  span_.start_ns = tracer.Now();
}

void ScopedSpan::End() {
  if (log_ == nullptr) return;
  span_.end_ns = tracer_->Now();
  log_->open_span = span_.parent;
  log_->spans.push_back(span_);
  log_ = nullptr;
}

}  // namespace servebench
