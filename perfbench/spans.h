// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// In-memory span recording for the traced run. Each thread appends to its
// own buffer (no locks on the hot path); buffers are written out once, at
// exit, as CSV lines "name,seq,start_ns,end_ns". Timestamps are
// CLOCK_MONOTONIC nanoseconds, which both benchmark processes share, so
// spans from the generator and the server program line up on one axis and
// join on the request id (seq) the raise carries as its first parameter.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span {
  const char* name;  ///< Static string: the layer boundary, e.g. "rules.action".
  uint64_t seq;      ///< Request id; 0 when the span serves no single request.
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  /// Recording is off until Enable; Record is then a thread-local append.
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  void Record(const char* name, uint64_t seq, int64_t start_ns,
              int64_t end_ns) {
    if (!enabled_) return;
    Buffer()->push_back(Span{name, seq, start_ns, end_ns});
  }

  /// Writes every thread's spans; returns false on IO failure.
  bool WriteCsv(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      for (const Span& s : *buf) {
        std::fprintf(f, "%s,%llu,%lld,%lld\n", s.name,
                     static_cast<unsigned long long>(s.seq),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span>* Buffer() {
    thread_local std::vector<Span>* mine = nullptr;
    if (mine == nullptr) {
      auto buf = std::make_unique<std::vector<Span>>();
      buf->reserve(1 << 16);
      mine = buf.get();
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::move(buf));
    }
    return mine;
  }

  bool enabled_ = false;
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t seq)
      : log_(log), name_(name), seq_(seq),
        start_(log->enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (log_->enabled()) log_->Record(name_, seq_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t seq_;
  int64_t start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
