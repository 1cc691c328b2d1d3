// Machine-readable bench reporting.
//
// Every converted bench binary emits a `BENCH_<name>.json` file next to its
// stdout tables, so the perf trajectory (wall time, threads, trials/sec,
// summary statistics) is trackable across PRs and collectable as CI
// artifacts.  The schema is a single flat JSON object with a stable key
// order: `schema_version` always comes first, then `name` and `threads`,
// then every bench-specific field in insertion order -- so two reports from
// different PRs diff cleanly line by line (see README "Benchmarks & CI").
//
// The same field machinery (`JsonObject`) renders the scenario runner's
// JSONL result stream: one compact object per line via `to_json_line()`.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ddl/analysis/monte_carlo.h"

namespace ddl::analysis {

/// Atomically replaces `path` with `content`: writes a sibling
/// `<path>.tmp.<pid>` file, flushes it, then renames it over `path`.  A
/// crash mid-write leaves either the old file or nothing -- never a torn
/// report.  Every report emitter (BENCH_*.json, the scenario runner's
/// --out/--health-out streams, campaign manifests and replay bundles)
/// routes through here.  Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& content);

/// Parses one *flat* JSON object line of the dialect `JsonObject` emits:
/// string / number / bool values only, no nesting, no arrays.  Returns the
/// key -> value map with string values unescaped and numbers / bools left
/// as their literal text, or nullopt when the line is not a complete valid
/// object (e.g. the torn final line of a crashed journal).
std::optional<std::map<std::string, std::string>> parse_flat_json_line(
    const std::string& line);

/// Version stamped into every BENCH_*.json and scenario JSONL line.  Bump
/// when a field is renamed or its meaning changes; adding fields is
/// backwards-compatible and does not bump it.
inline constexpr int kBenchJsonSchemaVersion = 2;

/// Wall-clock stopwatch for bench timing (steady clock).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// An ordered flat JSON object: keys keep insertion order (stable across
/// runs, so outputs are diffable), setting an existing key overwrites it in
/// place.  Doubles are rendered round-trip exact (%.17g), strings are
/// JSON-escaped.
class JsonObject {
 public:
  /// Sets `key` to a double, a 64-bit integer, an int, a bool or a
  /// string.  A key already set keeps its place and takes the new value,
  /// which costs a scan of every key set so far.
  template <typename T>
  void set(const std::string& key, const T& value) {
    set_rendered(key, render(value));
  }

  /// set() for a key the object does not hold yet, as the caller
  /// guarantees: no scan, so a writer of many keys that are unique by
  /// construction (the spec codec's key lists) stays linear in them.
  template <typename T>
  void append(const std::string& key, const T& value) {
    fields_.push_back({key, render(value)});
  }

  /// Flattens a Summary as `<prefix>_mean`, `_stddev`, `_min`, `_max`,
  /// `_p05`, `_p50`, `_p95`, `_count`.
  void set_summary(const std::string& prefix, const Summary& summary);

  /// Renders the object as a pretty-printed (multi-line) JSON object.
  std::string to_json() const;

  /// Renders the object on a single line -- one JSONL record.
  std::string to_json_line() const;

 private:
  struct Field {
    std::string key;
    std::string rendered;  // Already valid JSON (number, bool or string).
  };

  void set_rendered(const std::string& key, std::string rendered);

  static std::string render(double value);
  static std::string render(std::int64_t value);
  static std::string render(std::uint64_t value);
  static std::string render(int value);
  static std::string render(bool value);
  static std::string render(const std::string& value);
  static std::string render(const char* value);

  std::vector<Field> fields_;
};

/// A JsonObject that writes itself as `BENCH_<name>.json`.
///
/// The constructor stamps the stable header: `schema_version`, `name` and
/// `threads` (the analysis layer's default thread count), in that order, so
/// every report states its schema and the parallelism it ran with before
/// any bench-specific field.
class BenchReport : public JsonObject {
 public:
  /// Starts a report; `name` becomes the `name` field and the file stem.
  explicit BenchReport(std::string name);

  /// Records `wall_ms` from the timer plus `trials` and `trials_per_sec`
  /// -- the standard perf triple of a converted bench.
  void set_perf(const WallTimer& timer, std::size_t trials);

  /// Writes `BENCH_<name>.json` into `DDL_BENCH_DIR` (default: the current
  /// directory) and returns the path written.
  std::string write() const;

  /// Trial-count override for CI smoke runs: returns `DDL_BENCH_TRIALS`
  /// when set to a positive integer, else `default_trials`.
  static std::size_t trials_or(std::size_t default_trials);

 private:
  std::string name_;
};

}  // namespace ddl::analysis
