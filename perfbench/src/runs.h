// The workload runners.  Each fills `report` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run), counts every
// checked row in `tally`, and returns false when a sandbox worker outlived
// the workload.
#pragma once

#include "report.h"

namespace perfbench {

bool run_cli(const RunOptions& options, Report& report, Tally& tally);
bool run_daemon(const RunOptions& options, Report& report, Tally& tally);

/// Where the traced run writes its spans.
std::string spans_path(const RunOptions& options);

}  // namespace perfbench
