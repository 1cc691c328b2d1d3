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

/// Splits a journal file into its *complete* lines: the chunk after the
/// last '\n' (a torn append from a crash) is dropped.
std::vector<std::string> complete_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') {
      lines.push_back(content.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

const std::string& field_or(const std::map<std::string, std::string>& fields,
                            const std::string& key) {
  static const std::string empty;
  const auto it = fields.find(key);
  return it == fields.end() ? empty : it->second;
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

void drop_torn_tail(const std::string& path) {
  const std::string content = read_file(path);
  const std::size_t last_newline = content.rfind('\n');
  const std::size_t keep = last_newline == std::string::npos
                               ? 0
                               : last_newline + 1;
  if (keep < content.size()) {
    analysis::write_file_atomic(path, content.substr(0, keep));
  }
}

void drop_orphan_health(const std::string& dir, const JournalState& state) {
  const std::vector<std::string> lines =
      complete_lines(read_file(health_journal_path(dir)));
  std::size_t restored = 0;
  for (const auto& [name, health] : state.health) {
    restored += health.size();
  }
  if (restored == lines.size()) {
    return;
  }
  std::string kept;
  for (const std::string& line : lines) {
    const auto fields = analysis::parse_flat_json_line(line);
    if (fields && state.lines.count(field_or(*fields, "scenario")) != 0) {
      kept += line;
      kept += '\n';
    }
  }
  analysis::write_file_atomic(health_journal_path(dir), kept);
}

JournalState load_journal(const std::string& dir) {
  JournalState state;
  for (const std::string& line : complete_lines(read_file(journal_path(dir)))) {
    const auto fields = analysis::parse_flat_json_line(line);
    if (!fields) {
      continue;  // Corrupt / torn record: treat the scenario as incomplete.
    }
    const std::string& name = field_or(*fields, "name");
    if (!name.empty()) {
      state.lines[name] = line;
    }
  }
  for (const std::string& line :
       complete_lines(read_file(health_journal_path(dir)))) {
    const auto fields = analysis::parse_flat_json_line(line);
    if (!fields) {
      continue;
    }
    const std::string& scenario = field_or(*fields, "scenario");
    // WAL ordering: health lines append before the result line commits, so
    // only events of *committed* scenarios are restorable.
    if (state.lines.count(scenario) != 0) {
      state.health[scenario].push_back(line);
    }
  }
  return state;
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
