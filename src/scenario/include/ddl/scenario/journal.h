// Write-ahead scenario journal.  CampaignJob (ddl/scenario/campaign.h)
// opens, resumes, commits and closes it for the one-shot runner and the
// campaign service daemon (ddl::service) alike.
//
// Layout of a journal directory:
//
//   journal.jsonl         one result line per committed scenario (the
//                         commit record; appended last, flushed)
//   health_journal.jsonl  health-event lines, appended *before* the result
//                         lines of their unit (WAL ordering: an event line
//                         without its commit record is discarded on load)
//   manifest.json         spec fingerprint, total, and the completed count
//                         at open (written once by tmp+rename when the
//                         journal opens; a resume checks only the
//                         fingerprint and total).  `completed` is not a
//                         progress counter: it is never rewritten, so for
//                         a fresh run it reads 0; journal.jsonl is the
//                         record of what committed
//
// One record() commits one dispatch unit -- a packed batch-plan unit, or
// a single scenario -- under one lock and two flushes.  A kill inside a
// unit's commit leaves a prefix of its result lines; the rest of the unit
// simply runs again on resume.  A resume is check_resumable, then one
// load_journal: it reads each file once, parses each complete line once,
// and cuts a torn tail (the chunk after the last '\n' of a killed append)
// and orphaned health lines before appends resume.  Journaled lines are
// byte-reused on resume, so a resumed stream is byte-identical to an
// uninterrupted run.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ddl/scenario/runner.h"

namespace ddl::scenario {

/// A journal append that could not be durably committed: the stream went
/// bad on write or flush (ENOSPC, EIO, a yanked volume).  The journal is
/// fail-closed -- the writer throws *before* the result line commits, so a
/// caught JournalIoError never leaves a scenario half-recorded; resuming
/// after freeing space replays from the last committed record.
class JournalIoError : public std::runtime_error {
 public:
  JournalIoError(const std::string& what, int error_number)
      : std::runtime_error(what), errno_(error_number) {}

  /// The errno captured when the stream failure was detected (0 when the
  /// OS did not report one).
  int error_number() const noexcept { return errno_; }

 private:
  int errno_ = 0;
};

/// File paths inside a journal directory.
std::string journal_path(const std::string& dir);
std::string health_journal_path(const std::string& dir);
std::string manifest_path(const std::string& dir);

/// Reads a whole file as bytes; missing file = empty string.
std::string read_file(const std::string& path);

/// FNV-1a over the newline-joined spec names: the campaign fingerprint a
/// resume must match (same suite, same filter, same expansion).
std::string fingerprint_of(const std::vector<ScenarioSpec>& specs);

/// FNV-1a over the full flat-JSON serialization of every spec
/// (spec_to_json lines, newline-joined): the *content* fingerprint the
/// service daemon keys job identity on -- two submissions are the same job
/// iff every field of every spec matches, not just the names.
std::string content_fingerprint_of(const std::vector<ScenarioSpec>& specs);

/// The one read of a resume: reads each journal file of `dir` once and
/// returns the committed rows by scenario name (the last line of a name
/// wins), each read back by the row codec with its health lines in file
/// order.  In the same pass it repairs what a kill left, before appending
/// resumes:
///  - each file keeps only its complete lines: a torn tail would
///    concatenate onto the next append and corrupt both;
///  - the health journal drops the lines of scenarios with no committed
///    result line (WAL ordering), and lines that do not parse.  A killed
///    unit leaves such orphans; the scenario runs again and appends its
///    events anew, so a later resume must not restore them twice.
/// A complete result line that does not parse stays in the file, and its
/// scenario runs again.  A file is rewritten, atomically, only when
/// something goes.
std::map<std::string, ExecutedScenario> load_journal(const std::string& dir);

/// Throws std::runtime_error unless `dir` holds a manifest matching the
/// fingerprint and scenario count (refuses to resume a different campaign).
void check_resumable(const std::string& dir, const std::string& fingerprint,
                     std::size_t scenarios);

/// The lines one JournalWriter::record commits, in order: a dispatch
/// unit's result rows, or its health events.  A single line converts
/// implicitly, so a one-row unit commits as `record(line, health_lines)`.
struct JournalLines : std::span<const std::string> {
  using std::span<const std::string>::span;
  JournalLines() = default;
  JournalLines(const std::string& line)  // NOLINT(runtime/explicit)
      : std::span<const std::string>(&line, 1) {}
};

/// Append-side of the journal: per dispatch unit, health events first,
/// then the result lines as the commit records.  Thread-safe (record() is
/// internally locked).
class JournalWriter {
 public:
  /// Opens (append=true) or truncates the journal files and writes the
  /// manifest, `completed` being the count already journaled (recorded
  /// once, never advanced by record()).  Throws std::runtime_error when
  /// the directory is not writable.
  JournalWriter(const std::string& dir, const std::string& fingerprint,
                std::size_t total, std::size_t completed, bool append);

  /// Commits one dispatch unit: `lines` are its result rows (one per
  /// scenario) and `health_lines` every member's health events, in unit
  /// order.  Throws JournalIoError when the unit could not be made
  /// durable; a failed health append throws before any result line is
  /// written.
  void record(JournalLines lines, JournalLines health_lines);

 private:
  std::mutex mutex_;
  std::ofstream journal_;
  std::ofstream health_;
};

}  // namespace ddl::scenario
