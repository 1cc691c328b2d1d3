#include "ddl/scenario/journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "ddl/analysis/bench_json.h"
#include "ddl/core/hash.h"
#include "ddl/scenario/spec.h"

namespace ddl::scenario {
namespace {

const std::string& field_or(const std::map<std::string, std::string>& fields,
                            const std::string& key) {
  static const std::string empty;
  const auto it = fields.find(key);
  return it == fields.end() ? empty : it->second;
}

/// Reads the file at `path` once and hands each complete line to `keep`,
/// in file order.  The file is rewritten, atomically, to the lines `keep`
/// returns true for, and only when that drops something: a line, or the
/// torn chunk after the last '\n' that a killed append leaves.
template <typename Keep>
void keep_lines(const std::string& path, Keep keep) {
  const std::string content = read_file(path);
  std::string kept;
  std::size_t start = 0;
  for (std::size_t end = 0;
       (end = content.find('\n', start)) != std::string::npos;
       start = end + 1) {
    if (keep(content.substr(start, end - start))) {
      kept.append(content, start, end + 1 - start);
    }
  }
  if (kept.size() != content.size()) {
    analysis::write_file_atomic(path, kept);
  }
}

/// Raises JournalIoError when a journal stream went bad on write/flush,
/// capturing errno for the operator ("No space left on device" beats a
/// silent torn journal).  The errno is read *before* any further calls can
/// clobber it.
void check_stream(std::ofstream& stream, const char* label) {
  if (stream) {
    return;
  }
  const int error_number = errno;
  std::string message = "campaign: " + std::string(label) + " write failed";
  if (error_number != 0) {
    message += ": ";
    message += std::strerror(error_number);
    message += " (errno " + std::to_string(error_number) + ")";
  }
  throw JournalIoError(message, error_number);
}

std::string fnv1a_hex(const std::vector<ScenarioSpec>& specs,
                      std::string (*render)(const ScenarioSpec&)) {
  core::Fnv1a64 hash;
  for (const ScenarioSpec& spec : specs) {
    hash.update(render(spec)).update('\n');
  }
  return core::hex16(hash.value());
}

}  // namespace

std::string journal_path(const std::string& dir) {
  return dir + "/journal.jsonl";
}
std::string health_journal_path(const std::string& dir) {
  return dir + "/health_journal.jsonl";
}
std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string fingerprint_of(const std::vector<ScenarioSpec>& specs) {
  return fnv1a_hex(specs,
                   [](const ScenarioSpec& spec) { return spec.name; });
}

std::string content_fingerprint_of(const std::vector<ScenarioSpec>& specs) {
  return fnv1a_hex(specs, [](const ScenarioSpec& spec) {
    return spec_to_json(spec).to_json_line();
  });
}

std::map<std::string, ExecutedScenario> load_journal(const std::string& dir) {
  std::map<std::string, ExecutedScenario> rows;
  keep_lines(journal_path(dir), [&](std::string line) {
    // A corrupt record stays in the file, and its scenario runs again.
    if (const auto fields = analysis::parse_flat_json_line(line)) {
      const std::string& name = field_or(*fields, "name");
      if (!name.empty()) {
        rows[name] = read_row(std::move(line), *fields);
      }
    }
    return true;
  });
  // WAL ordering: health lines append before their unit's result lines
  // commit, so a line whose scenario has no committed row is an orphan.
  keep_lines(health_journal_path(dir), [&](std::string line) {
    const auto fields = analysis::parse_flat_json_line(line);
    const auto row =
        fields ? rows.find(field_or(*fields, "scenario")) : rows.end();
    if (row == rows.end()) {
      return false;
    }
    read_health_line(row->second, std::move(line), *fields);
    return true;
  });
  return rows;
}

void check_resumable(const std::string& dir, const std::string& fingerprint,
                     std::size_t scenarios) {
  const std::string content = read_file(manifest_path(dir));
  if (content.empty()) {
    throw std::runtime_error("campaign: no manifest to resume in '" + dir +
                             "'");
  }
  const auto fields = analysis::parse_flat_json_line(content);
  if (!fields) {
    throw std::runtime_error("campaign: unreadable manifest in '" + dir + "'");
  }
  if (field_or(*fields, "spec_hash") != fingerprint ||
      field_or(*fields, "scenarios") != std::to_string(scenarios)) {
    throw std::runtime_error(
        "campaign: manifest in '" + dir +
        "' was written for a different scenario list (suite/filter "
        "mismatch?); refusing to resume");
  }
}

JournalWriter::JournalWriter(const std::string& dir,
                             const std::string& fingerprint, std::size_t total,
                             std::size_t completed, bool append) {
  const auto mode =
      std::ios::binary | (append ? std::ios::app : std::ios::trunc);
  journal_.open(journal_path(dir), mode);
  health_.open(health_journal_path(dir), mode);
  if (!journal_ || !health_) {
    throw std::runtime_error("campaign: cannot open journal files in " + dir);
  }
  // Written once: a resume reads only spec_hash and scenarios, and the
  // journal lines themselves say which scenarios completed.
  analysis::JsonObject manifest;
  manifest.set("schema_version", analysis::kBenchJsonSchemaVersion);
  manifest.set("campaign", "scenario_campaign");
  manifest.set("scenarios", static_cast<std::uint64_t>(total));
  manifest.set("spec_hash", fingerprint);
  manifest.set("completed", static_cast<std::uint64_t>(completed));
  analysis::write_file_atomic(manifest_path(dir), manifest.to_json());
}

void JournalWriter::record(JournalLines lines, JournalLines health_lines) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& health_line : health_lines) {
    health_ << health_line << '\n';
  }
  // WAL ordering doubles as the fail-closed story: the health stream is
  // checked *before* any result line is attempted, so a disk fault (ENOSPC,
  // EIO) never commits a result whose health events were torn away.
  health_.flush();
  check_stream(health_, "health journal");
  for (const std::string& line : lines) {
    journal_ << line << '\n';
  }
  journal_.flush();
  check_stream(journal_, "journal");
}

}  // namespace ddl::scenario
