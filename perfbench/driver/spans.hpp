// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside the program is instrumented.  A span
// is (name, start, end, parent, op): `op` ties together the spans of one
// scan or sweep run.  The layer of a span is its name up to the first
// '.', so "vmi.open" belongs to "vmi".  Spans stay in memory and are
// written out once, when the workload ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   // string literal; the layer is its prefix
  std::int64_t start = 0;  // ns since the recorder was created
  std::int64_t end = 0;
  std::uint32_t parent = 0;  // id of the parent span, 0 for a root
  std::uint64_t op = 0;      // scan or run the span belongs to
};

class SpanRecorder {
 public:
  SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Nanoseconds since the recorder was created (steady clock).
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Opens a span starting now; returns its id (>= 1).
  std::uint32_t open(const char* name, std::uint32_t parent, std::uint64_t op);
  /// Ends span `id` now.
  void close(std::uint32_t id);
  /// Records a finished span with explicit bounds (for spans whose ends
  /// are observed on other threads, such as sweep runs).  Returns its id.
  std::uint32_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::uint32_t parent, std::uint64_t op);

  /// Copy of every span recorded so far, in id order (id = index + 1).
  std::vector<Span> spans() const;

  /// Self time in ns summed per layer.
  std::map<std::string, std::int64_t> self_by_layer() const;

  /// Summed duration (ns) of the spans named `name`.
  std::int64_t total(const std::string& name) const;

  /// Spans beyond this many are kept for the self-time sums but not
  /// written out, which bounds the file at a few tens of MB.
  static constexpr std::size_t kMaxWrittenSpans = 200000;

  /// Writes the first kMaxWrittenSpans spans, the per-layer self-time sums
  /// over all of them and `metrics` as one JSON document.  Returns false
  /// if the file cannot be written.
  bool write(const std::string& path,
             const std::map<std::string, double>& metrics) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name);

}  // namespace perfbench
