// In-memory span recorder for the benchmark's traced run.
//
// A span wraps one call the driver makes into a layer of the system.  Its
// name is "<layer>.<call>" -- layer is one of service, scenario, analysis,
// control, or `driver` for the per-thread root spans that frame a job --
// and it records start, end, the enclosing span on the same thread (its
// parent) and a request id (spec name or job id).  Spans stay in memory
// and are written once, at exit.
//
// A span's self time is its duration minus its direct children's, so the
// self times of one thread's spans add up exactly to its root spans'
// durations: every traced microsecond belongs to a layer or to the driver
// (the unattributed remainder).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span.
  std::uint32_t thread = 0;
  std::string name;
  std::string request;
  double start_us = 0.0;  ///< Since the tracer's epoch.
  double end_us = 0.0;

  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opens on construction, records on destruction (or
  /// end()).  Nests under the innermost open span of the calling thread.
  /// A null tracer makes it a no-op, so untraced runs share the code.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, std::string request = {});
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Closes the span early; returns its duration in microseconds.
    double end();

   private:
    Tracer* tracer_;
    SpanRecord record_;
    std::uint64_t saved_parent_ = 0;
    bool open_ = true;
  };

  /// Durations (us) of the spans named `name`, in closing order.
  std::vector<double> durations(const std::string& name) const;

  /// Duration (us) of each `name` span keyed by request id (the last one
  /// wins when a request repeats).
  std::map<std::string, double> by_request(const std::string& name) const;

  /// Self time (us) summed per layer (the name's prefix before the first
  /// '.'); the `driver` entry is the unattributed remainder.
  std::map<std::string, double> layer_self_us() const;

  /// Summed duration (us) of the root spans: the traced thread time.
  double root_us() const;

  /// One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  /// Every closed span, in closing order.
  std::vector<SpanRecord> spans() const;
  double now_us() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // Guarded by mutex_.
  std::uint64_t next_id_ = 1;      // Guarded by mutex_.
};

}  // namespace perfbench
