// The flat-JSON codec: one key list each for specs, result rows and health
// rows, walked by a writer and by a strict reader (spec.h, runner.h).
#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <type_traits>

#include "ddl/scenario/cli.h"
#include "ddl/scenario/runner.h"
#include "ddl/scenario/spec.h"

namespace ddl::scenario {
namespace {

using Fields = std::map<std::string, std::string>;

/// Every key of a spec, once, in serialization order.  `io` is a
/// FieldWriter (over a const spec) or a FieldReader.  `io.when(written)`
/// guards keys the writer emits only sometimes; the reader reads them
/// always, so a present key is type-checked even where it does not apply.
template <typename Io, typename Spec>
void spec_fields(Io& io, Spec& spec) {
  io("name", spec.name);
  io("family", spec.family);
  io("architecture", spec.architecture);
  io("clock_mhz", spec.clock_mhz);
  io("resolution_bits", spec.resolution_bits);
  io("counter_bits", spec.counter_bits);
  io("seed", spec.seed);
  io("corner.process", spec.corner.corner);
  io("corner.supply_v", spec.corner.supply_v);
  io("corner.temperature_c", spec.corner.temperature_c);
  io("temp_ramp_c_per_us", spec.temp_ramp_c_per_us);
  io("supply_spike_v", spec.supply_spike_v);
  io("spike_from_period", spec.spike_from_period);
  io("spike_until_period", spec.spike_until_period);
  io("vref_v", spec.vref_v);
  io("load.kind", spec.load.kind);
  io("load.level_a", spec.load.level_a);
  io("load.level2_a", spec.load.level2_a);
  io("load.from_period", spec.load.from_period);
  io("load.until_period", spec.load.until_period);
  io("load.p_burst", spec.load.p_burst);
  io("load.p_idle", spec.load.p_idle);
  io.list("dvfs.count", spec.dvfs, [&io](auto& mode) {
    io("at_period", mode.at_period);
    io("vref_v", mode.vref_v);
  });
  io("periods", spec.periods);
  io("measure_from", spec.measure_from);
  io("tolerance_v", spec.tolerance_v);
  io("settle_band_v", spec.settle_band_v);
  io("expect_lock", spec.expect_lock);
  io("allow_limit_cycling", spec.allow_limit_cycling);
  io("limit_cycle_stddev_v", spec.limit_cycle_stddev_v);
  io("supervision.enabled", spec.supervision.enabled);
  if (io.when(spec.supervision.enabled)) {
    auto& config = spec.supervision.config;
    io("supervision.tap_drift_window", config.tap_drift_window);
    io("supervision.margin_floor_ps", config.margin_floor_ps);
    io("supervision.margin_periods", config.margin_periods);
    io("supervision.watchdog_error_code", config.watchdog_error_code);
    io("supervision.watchdog_periods", config.watchdog_periods);
    io("supervision.max_relock_attempts", config.max_relock_attempts);
    io("supervision.relock_backoff_periods", config.relock_backoff_periods);
    io("supervision.relock_stability_periods",
       config.relock_stability_periods);
    io("supervision.coarse_resolution_loss_bits",
       config.coarse_resolution_loss_bits);
    io("supervision.counter_fallback", config.counter_fallback);
  }
  io("expect_min_lock_losses", spec.expect_min_lock_losses);
  io("expect_relock", spec.expect_relock);
  io("max_relock_latency_periods", spec.max_relock_latency_periods);
  io("expect_min_degradation", spec.expect_min_degradation);
  io("mc_dies", spec.mc_dies);
  io("mc_inl_limit_lsb", spec.mc_inl_limit_lsb);
  io("mc_min_yield", spec.mc_min_yield);
  io("mc_force_scalar", spec.mc_force_scalar);
  io.list("faults.count", spec.faults, [&io](auto& fault) {
    io("kind", fault.kind);
    io("victim_cell", fault.victim_cell);
    io("severity", fault.severity);
    io("at_period", fault.at_period);
    io("clear_period", fault.clear_period);
  });
  // Debug test hooks are written only when set, so a spec without them
  // keeps the bytes it had before the hooks existed.
  if (io.when(spec.debug_hang_ms > 0)) {
    io("debug_hang_ms", spec.debug_hang_ms);
    io("debug_hang_attempts", spec.debug_hang_attempts);
  }
  if (io.when(spec.debug_throw)) {
    io("debug_throw", spec.debug_throw);
  }
  if (io.when(!spec.debug_crash.empty())) {
    io("debug_crash", spec.debug_crash);
  }
}

/// Every key of a result row, once, in row order.  Derived keys render
/// from the result; the reader type-checks them and drops them.
template <typename Io, typename Result>
void result_fields(Io& io, Result& result) {
  io.derived("schema_version", analysis::kBenchJsonSchemaVersion);
  io("name", result.name);
  io("family", result.family);
  io("architecture", result.architecture);
  io("corner", result.corner.corner);
  io("supply_v", result.corner.supply_v);
  io("temperature_c", result.corner.temperature_c);
  io("seed", result.seed);
  io("periods", result.periods);
  io("locked", result.locked);
  io("lock_cycles", result.lock_cycles);
  io("pass", result.pass);
  io("failure_reason", result.failure_reason);
  io("failure_detail", result.failure_detail);
  io.derived("verdict", std::string(result.verdict()));
  io("error_kind", result.error);
  io("error_detail", result.error_detail);
  io("attempts", result.attempts);
  io("supervised", result.supervised);
  io("lock_losses", result.lock_losses);
  io("relocks", result.relocks);
  io("relock_latency_max", result.relock_latency_max);
  io("degradation_level", result.degradation_level);
  io.derived("health_events",
             static_cast<std::uint64_t>(result.health.size()));
  io("target_vref_v", result.target_vref_v);
  io("mean_vout", result.metrics.mean_vout);
  io("vout_stddev", result.metrics.vout_stddev);
  io("max_ripple_v", result.metrics.max_ripple_v);
  io("mean_abs_error_v", result.metrics.mean_abs_error_v);
  io("distinct_duty_words", result.metrics.distinct_duty_words);
  io("limit_cycling", result.metrics.limit_cycling);
  io("settle_period", result.settle_period);
  io("transitions_settled", result.transitions_settled);
  io("transitions_total", result.transitions_total);
  io("efficiency", result.efficiency);
  if (io.when(result.mc_dies > 0)) {  // Yield rows only (ScenarioResult).
    io("mc_dies", result.mc_dies);
    io("mc_yield", result.mc_yield);
    io("mc_inl_mean_lsb", result.mc_inl_mean_lsb);
    io("mc_inl_p95_lsb", result.mc_inl_p95_lsb);
    io("mc_inl_max_lsb", result.mc_inl_max_lsb);
  }
}

/// Every key of a health row, once, in row order: the event, tagged with
/// its scenario's identity (derived from `result`).
template <typename Io, typename Event>
void health_fields(Io& io, const ScenarioResult& result, Event& event) {
  io.derived("schema_version", analysis::kBenchJsonSchemaVersion);
  io.derived("scenario", result.name);
  io.derived("family", result.family);
  io.derived("architecture", result.architecture);
  io.derived("seed", result.seed);
  io("period", event.period);
  io("event", event.kind);
  io("detail", event.detail);
  io("tap_position", event.tap_position);
  io("relock_latency_periods", event.relock_latency_periods);
  io("relock_cycles", event.relock_cycles);
  io("degradation", event.degradation);
}

// ---- Values ---------------------------------------------------------------

std::string_view name_of(Architecture a) { return to_string(a); }
std::string_view name_of(cells::ProcessCorner c) { return cells::to_string(c); }
std::string_view name_of(LoadSpec::Kind k) { return LoadSpec{k}.kind_name(); }
std::string_view name_of(FaultSpec::Kind k) { return FaultSpec{k}.kind_name(); }
std::string_view name_of(ScenarioError e) { return to_string(e); }
std::string_view name_of(core::HealthEventKind k) { return core::to_string(k); }

// Each parse_value reads one whole value into `out`.  It returns nullptr
// on success, else what the key expected (and `out` keeps its value).

/// Enum values count up from 0 to `last`, as they are declared.
template <typename E>
const char* parse_enum(const std::string& text, E last, E& out,
                       const char* what) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (text == name_of(static_cast<E>(i))) {
      out = static_cast<E>(i);
      return nullptr;
    }
  }
  return what;
}
const char* parse_value(const std::string& text, Architecture& out) {
  return parse_enum(text, Architecture::kConventional, out, "an architecture");
}
const char* parse_value(const std::string& text, cells::ProcessCorner& out) {
  return parse_enum(text, cells::ProcessCorner::kSlow, out, "a corner");
}
const char* parse_value(const std::string& text, LoadSpec::Kind& out) {
  return parse_enum(text, LoadSpec::Kind::kMarkov, out, "a load kind");
}
const char* parse_value(const std::string& text, FaultSpec::Kind& out) {
  return parse_enum(text, FaultSpec::Kind::kClockPeriodStep, out,
                    "a fault kind");
}
const char* parse_value(const std::string& text, ScenarioError& out) {
  return parse_enum(text, ScenarioError::kWorkerLost, out, "an error kind");
}
const char* parse_value(const std::string& text, core::HealthEventKind& out) {
  return parse_enum(text, core::HealthEventKind::kDegraded, out,
                    "a health event kind");
}
const char* parse_value(const std::string& text, std::string& out) {
  out = text;
  return nullptr;
}
const char* parse_value(const std::string& text, std::uint64_t& out) {
  return parse_u64(text, out) ? nullptr : "an unsigned integer";
}
const char* parse_value(const std::string& text, int& out) {
  return parse_count(text, out) ? nullptr : "a non-negative integer";
}
const char* parse_value(const std::string& text, std::int64_t& out) {
  std::int64_t value = 0;  // from_chars: digits, '-' first when negative.
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc{} || end != last) {
    return "an integer";
  }
  out = value;
  return nullptr;
}
const char* parse_value(const std::string& text, bool& out) {
  if (text != "true" && text != "false") {
    return "true or false";
  }
  out = text == "true";
  return nullptr;
}
const char* parse_value(const std::string& text, double& out) {
  // strtod must consume the whole text ("1.5oops" is not 1.5).  glibc
  // sets ERANGE on subnormal results too, which the writer does render,
  // so only an overflow is out of range.
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      (errno == ERANGE && std::isinf(value))) {
    return "a number";
  }
  out = value;
  return nullptr;
}

// ---- Visitors -------------------------------------------------------------

/// The key both visitors build, `<prefix><scope><name>`, in one reused
/// buffer, so naming a key allocates nothing once the buffer has grown.
class KeyScope {
 protected:
  explicit KeyScope(const std::string& prefix)
      : key_(prefix), scope_(prefix.size()) {}

  const std::string& key(const char* name) {
    key_.resize(scope_);
    return key_ += name;
  }

  /// Visits each item with the scope moved to `<list>.<i>.`, where
  /// `<list>.` is `count_key` without its trailing `count`.
  template <typename Items, typename Entry>
  void each_entry(const char* count_key, Items& items, Entry& entry) {
    const std::size_t outer = scope_;
    for (std::size_t i = 0; i < items.size(); ++i) {
      key_.resize(outer);
      key_.append(count_key, std::strlen(count_key) - std::strlen("count"));
      key_ += std::to_string(i) + ".";
      scope_ = key_.size();
      entry(items[i]);
    }
    scope_ = outer;
  }

  std::string key_;
  std::size_t scope_;
};

class FieldWriter : KeyScope {
 public:
  FieldWriter(analysis::JsonObject& object, const std::string& prefix)
      : KeyScope(prefix), object_(object) {}

  /// Appends: every key of a walk is unique, and a prefix keeps it apart
  /// from the object's own fields.
  template <typename T>
  void operator()(const char* name, const T& value) {
    if constexpr (std::is_enum_v<T>) {
      object_.append(key(name), std::string(name_of(value)));
    } else {
      object_.append(key(name), value);
    }
  }

  /// A key rendered from other fields.
  template <typename T>
  void derived(const char* name, const T& value) {
    (*this)(name, value);
  }

  bool when(bool written) const { return written; }

  template <typename T, typename Entry>
  void list(const char* count_key, const std::vector<T>& items, Entry entry) {
    (*this)(count_key, static_cast<std::uint64_t>(items.size()));
    each_entry(count_key, items, entry);
  }

 private:
  analysis::JsonObject& object_;
};

class FieldReader : KeyScope {
 public:
  /// Reads the keys under `prefix`, noting each consumed one in `seen`
  /// when that is given.
  FieldReader(const Fields& fields, const std::string& prefix,
             std::vector<std::string>& errors,
             std::vector<const std::string*>* seen = nullptr)
      : KeyScope(prefix), fields_(fields), errors_(errors), seen_(seen) {
    begin_ = end_ = fields.lower_bound(prefix);
    for (; end_ != fields.end() && end_->first.starts_with(prefix); ++end_) {
      ++keys_;
    }
  }

  template <typename T>
  void operator()(const char* name, T& out) {
    const auto it = fields_.find(key(name));
    if (it == fields_.end()) {
      return;
    }
    ++consumed_;
    if (seen_ != nullptr) {
      seen_->push_back(&it->first);
    }
    if (const char* expected = parse_value(it->second, out)) {
      errors_.push_back(key_ + ": expected " + expected + ", got '" +
                        it->second + "'");
    }
  }

  /// Type-checks a derived key, then drops it.
  template <typename T>
  void derived(const char* name, const T& /*value*/) {
    T dropped{};
    (*this)(name, dropped);
  }

  bool when(bool /*written*/) const { return true; }

  /// The writer emits keys for every entry, so a count above the keys
  /// present is forged: report it and read no entry, rather than allocate
  /// entries that no key backs.
  template <typename T, typename Entry>
  void list(const char* count_key, std::vector<T>& items, Entry entry) {
    std::uint64_t count = 0;
    (*this)(count_key, count);
    if (count > keys_) {
      errors_.push_back(key_ + ": count " + std::to_string(count) +
                        " exceeds the " + std::to_string(keys_) +
                        " keys present");
      count = 0;
    }
    items.resize(static_cast<std::size_t>(count));
    each_entry(count_key, items, entry);
  }

  /// Reports a spec with no key at all, and names every key under the
  /// prefix that the walk did not consume.  Only a document with such keys
  /// pays for a second walk, which notes what the first one consumed.
  void finish(const std::string& prefix) {
    if (keys_ == 0) {
      errors_.push_back(prefix + "*: missing");
    }
    if (consumed_ == keys_) {
      return;
    }
    std::vector<const std::string*> seen;
    std::vector<std::string> repeated;
    ScenarioSpec scratch;
    FieldReader again(fields_, prefix, repeated, &seen);
    spec_fields(again, scratch);
    std::sort(seen.begin(), seen.end(), std::less<>());
    for (auto it = begin_; it != end_; ++it) {
      if (!std::binary_search(seen.begin(), seen.end(), &it->first,
                              std::less<>())) {
        errors_.push_back(it->first + ": unknown key");
      }
    }
  }

 private:
  const Fields& fields_;
  std::vector<std::string>& errors_;
  std::vector<const std::string*>* seen_;
  Fields::const_iterator begin_;
  Fields::const_iterator end_;
  std::size_t keys_ = 0;
  std::size_t consumed_ = 0;
};

}  // namespace

analysis::JsonObject spec_to_json(const ScenarioSpec& spec) {
  analysis::JsonObject object;
  spec_to_json_into(object, spec, "");
  return object;
}

void spec_to_json_into(analysis::JsonObject& object, const ScenarioSpec& spec,
                       const std::string& prefix) {
  FieldWriter writer(object, prefix);
  spec_fields(writer, spec);
}

SpecParse spec_from_json_checked(const Fields& fields,
                                 const std::string& prefix) {
  SpecParse parse;
  FieldReader reader(fields, prefix, parse.errors);
  spec_fields(reader, parse.spec);
  reader.finish(prefix);
  return parse;
}

SpecParse spec_from_line(const std::string& line) {
  if (const auto fields = analysis::parse_flat_json_line(line)) {
    return spec_from_json_checked(*fields);
  }
  return {{}, {"line: not one flat JSON object"}};
}

analysis::JsonObject to_json(const ScenarioResult& result) {
  analysis::JsonObject object;
  FieldWriter writer(object, "");
  result_fields(writer, result);
  return object;
}

std::string to_json_line(const ScenarioResult& result) {
  return to_json(result).to_json_line();
}

analysis::JsonObject health_to_json(const ScenarioResult& result,
                                    const core::HealthEvent& event) {
  analysis::JsonObject object;
  FieldWriter writer(object, "");
  health_fields(writer, result, event);
  return object;
}

ExecutedScenario render_executed(ScenarioResult result) {
  ExecutedScenario entry;
  entry.line = to_json_line(result);
  for (const core::HealthEvent& event : result.health) {
    entry.health_lines.push_back(health_to_json(result, event).to_json_line());
  }
  entry.result = std::move(result);
  return entry;
}

ExecutedScenario read_row(std::string line, const Fields& fields) {
  ExecutedScenario entry{{}, std::move(line), {}};
  std::vector<std::string> errors;  // A key that does not read stays default.
  FieldReader reader(fields, "", errors);
  result_fields(reader, entry.result);
  return entry;
}

void read_health_line(ExecutedScenario& entry, std::string line,
                      const Fields& fields) {
  std::vector<std::string> errors;
  FieldReader reader(fields, "", errors);
  health_fields(reader, entry.result, entry.result.health.emplace_back());
  entry.health_lines.push_back(std::move(line));
}

ExecutedScenario read_executed(std::string line,
                               std::vector<std::string> health_lines) {
  // A line that does not parse reads as one with no key.
  const auto fields_of = [](const std::string& text) {
    return analysis::parse_flat_json_line(text).value_or(Fields{});
  };
  const Fields fields = fields_of(line);
  ExecutedScenario entry = read_row(std::move(line), fields);
  for (std::string& health_line : health_lines) {
    const Fields event = fields_of(health_line);
    read_health_line(entry, std::move(health_line), event);
  }
  return entry;
}

}  // namespace ddl::scenario
