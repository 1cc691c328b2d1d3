#include "reference.h"

#include "ddl/analysis/bench_json.h"
#include "ddl/scenario/runner.h"

namespace perfbench {
namespace {

/// Splits a JSONL document into its lines (no trailing newlines).
std::vector<std::string> split_lines(const std::string& document) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < document.size()) {
    std::size_t end = document.find('\n', start);
    if (end == std::string::npos) {
      end = document.size();
    }
    lines.push_back(document.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// Where two rows first differ, with a little context from each.
std::string first_difference(const std::string& got, const std::string& want) {
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) {
    ++at;
  }
  const std::size_t from = at > 40 ? at - 40 : 0;
  return "at byte " + std::to_string(at) + ": got '" + got.substr(from, 80) +
         "', want '" + want.substr(from, 80) + "'";
}

}  // namespace

Reference make_reference(const std::vector<ScenarioSpec>& specs) {
  return make_references(specs, {specs.size()}).front();
}

std::vector<Reference> make_references(const std::vector<ScenarioSpec>& specs,
                                       const std::vector<std::size_t>& sizes) {
  using ddl::scenario::ScenarioRunner;
  const auto results = ScenarioRunner().run(specs);
  std::vector<Reference> references;
  std::size_t offset = 0;
  for (const std::size_t size : sizes) {
    const std::vector<ddl::scenario::ScenarioResult> job(
        results.begin() + offset, results.begin() + offset + size);
    offset += size;
    Reference& reference = references.emplace_back();
    reference.jsonl = ScenarioRunner::jsonl(job);
    reference.health_jsonl = ScenarioRunner::health_jsonl(job);
    reference.lines = split_lines(reference.jsonl);
    for (const std::string& line : reference.lines) {
      const auto fields = ddl::analysis::parse_flat_json_line(line);
      reference.expected.push_back(fields && fields->count("verdict") &&
                                   fields->at("verdict") == "pass");
    }
  }
  return references;
}

void check_delivery(const Reference& reference, const std::string& jsonl,
                    const std::string& health_jsonl, const std::string& what,
                    Tally& tally) {
  const std::size_t rows = reference.lines.size();
  tally.attempted += rows;
  if (health_jsonl != reference.health_jsonl) {
    tally.fail(rows, what + ": health stream differs from the reference");
    return;
  }
  const std::vector<std::string> lines = split_lines(jsonl);
  for (std::size_t i = 0; i < rows; ++i) {
    if (i >= lines.size() || lines[i] != reference.lines[i]) {
      tally.fail(1, what + ": row " + std::to_string(i) +
                        " differs from the reference " +
                        (i < lines.size()
                             ? first_difference(lines[i], reference.lines[i])
                             : std::string("(missing)")));
    } else if (!reference.expected[i]) {
      tally.fail(1, what + ": row " + std::to_string(i) +
                        " has an unexpected verdict");
    }
  }
  if (lines.size() > rows) {
    tally.fail(1, what + ": extra rows");
  }
}

}  // namespace perfbench
