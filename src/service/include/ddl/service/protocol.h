// Wire protocol of the campaign service (ddl_scenario_server).
//
// A connection carries a sequence of *frames* in both directions.  Each
// frame is an 8-byte header -- a 4-byte big-endian payload length followed
// by a 4-byte big-endian FNV-1a-32 checksum of the payload -- then exactly
// `length` bytes of one flat JSON object (the `JsonObject` dialect: string
// / number / bool values, no nesting) whose `frame` key names its type.
//
//   client -> server   hello, submit, cancel, ping, bye
//   server -> client   hello, accepted, backpressure, result, health,
//                      job_done, cancelled, error, heartbeat, pong
//
// The checksum is the protocol's integrity boundary against a hostile or
// corrupting transport (the chaos proxy's fuzzer mutates length prefixes
// and frame bodies): a frame whose payload does not hash to its header
// checksum poisons the reader, the connection closes, and the endpoint
// recovers by reconnecting and resubmitting -- idempotent job identity
// makes that convergent, never duplicating work.  A mutated *length*
// either exceeds the payload cap (poison) or misaligns the stream so the
// next checksum fails (poison); a corrupted frame is thus never silently
// mis-parsed into a wrong-but-plausible row.
//
// Scenario rows travel as the *exact* JSONL line the runner would emit,
// carried as the string value of a `row` field -- JSON string escaping
// round-trips byte-exactly, so a client that reassembles `row` values in
// index order reproduces the runner's stream byte for byte (the service
// acceptance criterion).  The protocol is versioned by `hello`'s
// `protocol_version`; a mismatch is answered with an `error` frame and a
// close, never a silent misparse.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "ddl/analysis/bench_json.h"

namespace ddl::service {

/// Bumped when a frame is renamed or removed, its meaning changes, or the
/// wire framing itself changes; adding frame types or fields is
/// backwards-compatible and does not bump it.  v2 added the payload
/// checksum to the frame header; v3 removed the submit_chaos,
/// submit_replay and progress frames (a peer sending a removed type gets
/// an `unknown_frame` error).
inline constexpr int kProtocolVersion = 3;

/// Frame header: 4-byte big-endian payload length + 4-byte big-endian
/// FNV-1a-32 checksum of the payload.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound on one frame's payload: large enough for a submit carrying
/// thousands of flattened specs (about 3,000 yield specs of ~1.4 KB),
/// small enough that a corrupt length prefix cannot make a reader allocate
/// gigabytes.
inline constexpr std::size_t kMaxFramePayload = std::size_t{4} << 20;

/// The most scenarios one job holds.  The server refuses a spec list or a
/// suite expansion above it, and a client refuses a `result` or `health`
/// frame indexed at or past it.  The frame cap binds a spec list first
/// (about 3,000 yield specs fit in a frame); the largest built-in suite
/// has 57 scenarios.
inline constexpr std::size_t kMaxJobSpecs = 4096;

/// FNV-1a-32 over arbitrary bytes: the frame checksum.
std::uint32_t fnv1a32(const char* data, std::size_t size);

/// Wraps a payload with its length-and-checksum header.  Throws
/// std::length_error when the payload exceeds kMaxFramePayload (the peer
/// would drop it anyway).
std::string encode_frame(const std::string& payload);

/// Renders the object as a single line and frames it.
std::string encode_frame(const analysis::JsonObject& frame);

/// A fresh frame object with its `frame` type field already set (the field
/// order convention: `frame` always first, like `schema_version` in bench
/// reports).
analysis::JsonObject make_frame(const std::string& type);

/// Parses a frame payload into its key -> value map (nullopt when the
/// payload is not one flat JSON object).  Values are unescaped strings for
/// string fields and literal text for numbers / bools, exactly like
/// `analysis::parse_flat_json_line`.
std::optional<std::map<std::string, std::string>> parse_frame_payload(
    const std::string& payload);

/// Incremental frame decoder for a byte stream: feed() whatever recv()
/// returned, then drain next() until it yields nullopt.  Tolerates any
/// fragmentation (headers split across reads, many frames per read).  An
/// oversized length prefix or a payload-checksum mismatch poisons the
/// reader (`failed()`); the owning connection must be closed -- a
/// corrupted stream cannot resynchronize.
class FrameReader {
 public:
  void feed(const char* data, std::size_t size);

  /// The next complete payload, or nullopt when more bytes are needed (or
  /// the reader failed).
  std::optional<std::string> next();

  bool failed() const noexcept { return failed_; }
  const std::string& error() const noexcept { return error_; }

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const noexcept { return buffer_.size() - offset_; }

  /// Completed frames decoded so far (liveness/progress signal: a session
  /// whose buffered() grows while frames_decoded() stands still is being
  /// trickled a partial frame -- the slowloris signature).
  std::size_t frames_decoded() const noexcept { return frames_decoded_; }

 private:
  std::string buffer_;
  std::size_t offset_ = 0;  ///< Consumed prefix of buffer_.
  std::size_t frames_decoded_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace ddl::service
