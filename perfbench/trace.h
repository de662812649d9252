// In-memory spans for the traced run. Each span wraps calls into one
// layer's public functions from the benchmark's own code: name, start, end,
// parent span and the id of the client operation it belongs to. Spans are
// kept per thread and written out once, at exit. With tracing off a
// ScopedSpan costs one relaxed load.

#ifndef HOTMAN_PERFBENCH_TRACE_H_
#define HOTMAN_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t op = 0;      ///< client operation id; 0 outside operations
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t calls = 1;   ///< calls the span covers (batched micro calls)
};

/// Total time and calls of every span with one name.
struct SpanTotal {
  double ns = 0.0;
  double calls = 0.0;
  double PerCallNs() const { return calls > 0.0 ? ns / calls : 0.0; }
};

class Tracer {
 public:
  /// Spans kept in memory at most; later ones are counted, not stored.
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 19;

  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  struct Buffer {
    std::uint64_t thread = 0;
    std::uint64_t next_id = 0;
    std::vector<std::uint64_t> stack;  ///< open span ids, innermost last
    std::vector<Span> spans;
    std::map<const char*, SpanTotal> totals;  ///< every span, stored or not
  };

  Buffer& Local() {
    thread_local Buffer* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      local = buffers_.back().get();
      local->thread = buffers_.size();
    }
    return *local;
  }

  bool Admit() {
    if (stored_.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) return true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Sums per span name over every span recorded, kept in memory or not.
  /// Call once every traced thread has finished.
  std::map<std::string, SpanTotal> Totals() {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, SpanTotal> out;
    for (const auto& buffer : buffers_) {
      for (const auto& [name, total] : buffer->totals) {
        SpanTotal& t = out[name];
        t.ns += total.ns;
        t.calls += total.calls;
      }
    }
    return out;
  }

  /// Writes every stored span as one JSON object per line. Returns the
  /// number written, or -1 when the file cannot be opened.
  long WriteJsonl(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    long n = 0;
    for (const auto& buffer : buffers_) {
      for (const Span& s : buffer->spans) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                     "\"start_ns\":%lld,\"end_ns\":%lld,\"calls\":%u}\n",
                     s.name, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.op),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.calls);
        ++n;
      }
    }
    std::fclose(f);
    return n;
  }

  std::uint64_t dropped() const { return dropped_.load(); }

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> stored_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t op = 0,
                      std::uint32_t calls = 1) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return;
    buffer_ = &tracer.Local();
    span_.name = name;
    span_.op = op;
    span_.calls = calls;
    span_.id = (buffer_->thread << 40) | ++buffer_->next_id;
    span_.parent = buffer_->stack.empty() ? 0 : buffer_->stack.back();
    buffer_->stack.push_back(span_.id);
    span_.start_ns = Tracer::NowNs();
  }
  ~ScopedSpan() {
    if (buffer_ == nullptr) return;
    span_.end_ns = Tracer::NowNs();
    buffer_->stack.pop_back();
    SpanTotal& total = buffer_->totals[span_.name];
    total.ns += static_cast<double>(span_.end_ns - span_.start_ns);
    total.calls += span_.calls;
    if (Tracer::Get().Admit()) buffer_->spans.push_back(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  Span span_;
};

}  // namespace perfbench

#endif  // HOTMAN_PERFBENCH_TRACE_H_
