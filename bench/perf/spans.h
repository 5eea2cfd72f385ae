// In-memory span recorder for bench_perf's traced run.
//
// Spans are recorded by the harness around its own calls into each layer
// (store.multi_get, engine.submit_wave, storage.read_blocks, trainer.train,
// retrainer.retrain_now, ...), never inside the library. Each span keeps
// its name, start, end, the span that was open on the same thread when it
// began (its parent) and the request it belongs to. Nothing is written
// until the run ends: write_chrome() emits Chrome trace-event JSON, which
// chrome://tracing and Perfetto load directly (self time = a span's
// duration minus the part its children cover).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "json.h"

namespace perf {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root.
    std::int64_t request = -1;  ///< -1 = not tied to one request.
    std::uint32_t thread = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  /// RAII span: open on construction, recorded on destruction. A disabled
  /// recorder makes this a no-op (one branch), so untraced runs pay nothing.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::int64_t request)
        : rec_(rec.enabled() ? &rec : nullptr) {
      if (rec_ == nullptr) return;
      span_.name = name;
      span_.request = request;
      span_.id = rec_->next_id_.fetch_add(1, std::memory_order_relaxed);
      span_.parent = current();
      span_.thread = thread_index();
      current() = span_.id;
      span_.start_us = rec_->now_us();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (rec_ == nullptr) return;
      span_.end_us = rec_->now_us();
      current() = span_.parent;
      rec_->add(span_);
    }

   private:
    SpanRecorder* rec_;
    Span span_;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  /// Record a span whose ends were taken elsewhere (an async request is
  /// submitted in one place and settled in another).
  void record(const char* name, std::int64_t request, double start_us,
              double end_us) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.request = request;
    s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    s.parent = current();
    s.thread = thread_index();
    s.start_us = start_us;
    s.end_us = end_us;
    add(s);
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    std::lock_guard lock(mu_);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":" << json::quote(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
          << ",\"ts\":" << json::number(s.start_us)
          << ",\"dur\":" << json::number(s.end_us - s.start_us)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
  }

 private:
  static std::uint64_t& current() {
    thread_local std::uint64_t open = 0;
    return open;
  }
  static std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
  }
  void add(const Span& s) {
    std::lock_guard lock(mu_);
    spans_.push_back(s);
  }

  bool enabled_ = false;
  Clock::time_point t0_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perf
