#pragma once

// In-memory span recorder for the traced benchmark pass. Spans are opened
// and closed around calls into the simulator's layers from the benchmark's
// own code; per-cycle calls are summed into one aggregate span per name
// instead of being stored one by one. Everything stays in memory until
// write_jsonl() at the end of the run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (arbitrary epoch).
std::int64_t now_ns();

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 for a root span
  std::uint64_t trace = 0;   ///< shared by every span of one schedule
  std::string name;          ///< "<layer>.<what>"
  std::int64_t start_ns = 0; ///< -1 for an aggregate
  std::int64_t dur_ns = 0;   ///< duration, or summed duration of an aggregate
  std::uint64_t count = 1;   ///< calls an aggregate stands for
};

/// The layer a span name belongs to: the part before the first '.'.
std::string layer_of(const std::string& name);

class SpanRecorder {
 public:
  /// Open a span as a child of the innermost open span.
  std::uint32_t open(std::string name, std::uint64_t trace,
                     std::int64_t start_ns);
  /// Close the innermost open span, which must be `id`.
  void close(std::uint32_t id, std::int64_t end_ns);
  /// Record `count` calls totalling `total_ns` as one child of the
  /// innermost open span. Skipped when count is 0.
  void aggregate(std::string name, std::uint64_t count, std::int64_t total_ns);

  const std::vector<Span>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }

  /// Self time per span name: each span's duration minus the durations of
  /// its direct children (never below zero), summed over spans of a name.
  std::map<std::string, std::int64_t> self_ns_by_name() const;
  /// self_ns_by_name() summed per layer.
  std::map<std::string, std::int64_t> self_ns_by_layer() const;

  /// One JSON object per span and line. Returns false on a write error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing when the recorder is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t trace)
      : rec_(rec), id_(rec ? rec->open(name, trace, now_ns()) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(id_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

}  // namespace perfbench
