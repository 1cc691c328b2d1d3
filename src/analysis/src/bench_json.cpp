#include "ddl/analysis/bench_json.h"

#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "ddl/analysis/parallel.h"

namespace ddl::analysis {
namespace {

std::string render_double(double value) {
  if (!std::isfinite(value)) {
    // JSON has no inf/nan literals; stringify so the field survives.
    return std::string("\"") + (std::isnan(value) ? "nan" : value > 0 ? "inf" : "-inf") + "\"";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string render_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// Advances `i` past whitespace; false when the input is exhausted.
bool skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i < s.size();
}

/// Parses a JSON string literal starting at `s[i] == '"'`, unescaping into
/// `out` and leaving `i` one past the closing quote.
bool parse_json_string(const std::string& s, std::size_t& i,
                       std::string& out) {
  if (i >= s.size() || s[i] != '"') {
    return false;
  }
  ++i;
  out.clear();
  while (i < s.size()) {
    const char c = s[i++];
    if (c == '"') {
      return true;
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i >= s.size()) {
      return false;
    }
    switch (s[i++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (i + 4 > s.size()) {
          return false;
        }
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = s[i++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return false;
          }
        }
        // The emitter only escapes control bytes, so the code point always
        // fits one char.
        out += static_cast<char>(code & 0xffu);
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

}  // namespace

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("write_file_atomic: cannot open " + tmp);
    }
    out << content;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("write_file_atomic: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: cannot rename " + tmp +
                             " to " + path);
  }
}

std::optional<std::map<std::string, std::string>> parse_flat_json_line(
    const std::string& line) {
  std::map<std::string, std::string> fields;
  std::size_t i = 0;
  if (!skip_ws(line, i) || line[i] != '{') {
    return std::nullopt;
  }
  ++i;
  if (!skip_ws(line, i)) {
    return std::nullopt;
  }
  if (line[i] == '}') {
    ++i;
  } else {
    while (true) {
      std::string key;
      if (!skip_ws(line, i) || !parse_json_string(line, i, key)) {
        return std::nullopt;
      }
      if (!skip_ws(line, i) || line[i] != ':') {
        return std::nullopt;
      }
      ++i;
      if (!skip_ws(line, i)) {
        return std::nullopt;
      }
      std::string value;
      if (line[i] == '"') {
        if (!parse_json_string(line, i, value)) {
          return std::nullopt;
        }
      } else {
        // Number / bool literal: everything up to the next separator.
        const std::size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}') {
          ++i;
        }
        if (i >= line.size()) {
          return std::nullopt;
        }
        value = line.substr(start, i - start);
        while (!value.empty() &&
               std::isspace(static_cast<unsigned char>(value.back())) != 0) {
          value.pop_back();
        }
        if (value.empty()) {
          return std::nullopt;
        }
      }
      fields[key] = std::move(value);
      if (!skip_ws(line, i)) {
        return std::nullopt;
      }
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] == '}') {
        ++i;
        break;
      }
      return std::nullopt;
    }
  }
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i])) == 0) {
      return std::nullopt;
    }
    ++i;
  }
  return fields;
}

void JsonObject::set_rendered(const std::string& key, std::string rendered) {
  for (Field& field : fields_) {
    if (field.key == key) {
      field.rendered = std::move(rendered);
      return;
    }
  }
  fields_.push_back({key, std::move(rendered)});
}

std::string JsonObject::render(double value) { return render_double(value); }

std::string JsonObject::render(std::int64_t value) {
  return std::to_string(value);
}

std::string JsonObject::render(std::uint64_t value) {
  return std::to_string(value);
}

std::string JsonObject::render(int value) { return std::to_string(value); }

std::string JsonObject::render(bool value) { return value ? "true" : "false"; }

std::string JsonObject::render(const std::string& value) {
  return render_string(value);
}

std::string JsonObject::render(const char* value) {
  return render_string(value);
}

void JsonObject::set_summary(const std::string& prefix,
                             const Summary& summary) {
  set(prefix + "_mean", summary.mean);
  set(prefix + "_stddev", summary.stddev);
  set(prefix + "_min", summary.min);
  set(prefix + "_max", summary.max);
  set(prefix + "_p05", summary.p05);
  set(prefix + "_p50", summary.p50);
  set(prefix + "_p95", summary.p95);
  set(prefix + "_count", summary.count);
}

std::string JsonObject::to_json() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += "  " + render_string(fields_[i].key) + ": " + fields_[i].rendered;
    if (i + 1 < fields_.size()) {
      out += ',';
    }
    out += '\n';
  }
  out += "}\n";
  return out;
}

std::string JsonObject::to_json_line() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += render_string(fields_[i].key) + ": " + fields_[i].rendered;
  }
  out += "}";
  return out;
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  if (name_.empty()) {
    throw std::invalid_argument("BenchReport: name must not be empty");
  }
  set("schema_version", kBenchJsonSchemaVersion);
  set("name", name_);
  set("threads", default_thread_count());
}

void BenchReport::set_perf(const WallTimer& timer, std::size_t trials) {
  const double wall_ms = timer.elapsed_ms();
  set("wall_ms", wall_ms);
  set("trials", trials);
  set("trials_per_sec", wall_ms > 0.0
                            ? static_cast<double>(trials) * 1e3 / wall_ms
                            : 0.0);
}

std::string BenchReport::write() const {
  std::string dir = ".";
  if (const char* env = std::getenv("DDL_BENCH_DIR")) {
    if (*env != '\0') {
      dir = env;
    }
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  // Atomic so a crash mid-emission never leaves a torn BENCH_*.json for CI
  // to choke on.
  write_file_atomic(path, to_json());
  return path;
}

std::size_t BenchReport::trials_or(std::size_t default_trials) {
  if (const char* env = std::getenv("DDL_BENCH_TRIALS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return default_trials;
}

}  // namespace ddl::analysis
