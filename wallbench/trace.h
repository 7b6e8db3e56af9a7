// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own files around each call into a
// platform layer; nothing inside src/ is instrumented. A span has a name,
// a steady-clock start and end, the span that was open when it began (its
// parent), the request it belongs to, and an optional byte count for
// per-KB rates. A layer's self time is its duration minus the time its
// direct children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace wallbench {

class Tracer {
 public:
  static constexpr std::size_t kNoSpan = std::numeric_limits<std::size_t>::max();

  struct Record {
    std::string name;
    std::uint64_t request = 0;
    std::size_t parent = kNoSpan;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t bytes = 0;
    double duration_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  };

  /// Closes its span when it goes out of scope.
  class Span {
   public:
    Span(Tracer& tracer, std::size_t id) : tracer_(&tracer), id_(id) {}
    ~Span() { tracer_->end(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t id_;
  };

  /// A disabled tracer records nothing and returns kNoSpan from begin().
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Spans begun from now on belong to request `id`.
  void set_request(std::uint64_t id) { request_ = id; }

  std::size_t begin(std::string name, std::uint64_t bytes = 0);
  void end(std::size_t id);
  Span span(std::string name, std::uint64_t bytes = 0) {
    return Span(*this, begin(std::move(name), bytes));
  }

  const std::vector<Record>& records() const { return records_; }

  /// Per-name aggregate over every recorded span.
  struct Layer {
    std::vector<double> durations_us;
    double total_us = 0.0;
    double self_us = 0.0;  // total minus the time direct children cover
    std::uint64_t bytes = 0;
  };
  std::map<std::string, Layer> layers() const;

  /// Sum of the durations of the direct children of each span, by span id.
  std::vector<double> child_time_us() const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::uint64_t request_ = 0;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  // stack of open span ids
};

}  // namespace wallbench
