// The correctness gate's reference: the same generated specs run in
// process through ScenarioRunner, outside the timed region.  Every stream
// the workload delivers must equal the reference byte for byte, and every
// reference row must carry the verdict the generated workload expects
// (all generated scenarios are built to pass).
#pragma once

#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace perfbench {

struct Reference {
  std::vector<std::string> lines;  ///< Result rows, spec order.
  std::string jsonl;               ///< The rows as one document.
  std::string health_jsonl;        ///< The health-event stream.
  std::vector<bool> expected;      ///< Row i carries verdict "pass".
};

/// Runs `specs` in process (analysis-layer default thread count).
Reference make_reference(const std::vector<ScenarioSpec>& specs);

/// Runs `specs` in process once and cuts the results into consecutive
/// jobs of `sizes[i]` specs, one reference per job.
std::vector<Reference> make_references(const std::vector<ScenarioSpec>& specs,
                                       const std::vector<std::size_t>& sizes);

/// Checks one delivered job: its result and health documents against the
/// reference, row by row.  Adds the reference's row count to `attempted`
/// and one failure per wrong, missing or unexpected-verdict row (all rows
/// when the health stream differs).
void check_delivery(const Reference& reference, const std::string& jsonl,
                    const std::string& health_jsonl, const std::string& what,
                    Tally& tally);

}  // namespace perfbench
