// In-memory span recorder for the traced run.
//
// Spans are opened in the benchmark's own code around each call into a layer's
// public functions (and, through the timing transport, around every RPC sent
// and served). A span nests under the span open on the same thread; spans of
// one client operation share the operation's trace id. Nothing is written
// while the run measures: the spans stay in memory and WriteJsonLines() dumps
// them once the run is over. A layer's self time is its span's duration minus
// the durations of its child spans.
//
// Disabled (the untraced runs), a ScopedSpan costs one relaxed load.

#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // a string literal
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t trace = 0;   // client operation the span belongs to; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() {
    spans_.reserve(1 << 20);
    enabled_.store(true);
  }

  /// The client operation now in flight. The node workloads drive one
  /// operation at a time, so every span opened meanwhile -- on the caller's
  /// thread or on a server's connection thread -- belongs to it.
  void SetTrace(uint64_t trace) { trace_.store(trace, std::memory_order_relaxed); }
  uint64_t trace() const { return trace_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// All spans recorded so far (call once the run is over).
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span, indexed like spans().
  std::vector<int64_t> SelfTimesNs() const {
    std::vector<int64_t> child(next_id_.load(), 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent != 0 && s.parent < child.size()) child[s.parent] += s.duration_ns();
    }
    std::vector<int64_t> self;
    self.reserve(spans_.size());
    for (const SpanRecord& s : spans_) self.push_back(s.duration_ns() - child[s.id]);
    return self;
  }

  /// One JSON object per line: name, id, parent, trace, thread, start/end ns.
  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    for (const SpanRecord& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"trace\":" << s.trace << ",\"thread\":" << s.thread
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    return static_cast<bool>(out);
  }

  /// Innermost span open on the calling thread (0 = none).
  static uint64_t& CurrentOnThread() {
    thread_local uint64_t current = 0;
    return current;
  }
  static uint32_t ThreadNumber() {
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t number = next.fetch_add(1);
    return number;
  }

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> trace_{0};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    Tracer& t = Tracer::Get();
    if (!t.enabled()) return;
    rec_.name = name;
    rec_.id = t.NextId();
    rec_.parent = Tracer::CurrentOnThread();
    rec_.trace = t.trace();
    rec_.thread = Tracer::ThreadNumber();
    Tracer::CurrentOnThread() = rec_.id;
    rec_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (rec_.id == 0) return;
    rec_.end_ns = NowNs();
    Tracer::CurrentOnThread() = rec_.parent;
    Tracer::Get().Record(rec_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecord rec_;
};

}  // namespace perfbench
