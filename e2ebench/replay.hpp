// Trace replay: after the cluster stops, the recorded request stream is
// replayed in-process through the public functions each process calls on
// the real path, single-threaded like a worker's backend_threads = 1, and
// every call is timed as a span under the request's trace id:
//
//   client      encode_request -> frame_checksum
//   coordinator frame_checksum -> decode_request -> content_hash -> hrw_rank
//   per shard / home worker (in parallel on the real path):
//               encode_request -> frame_checksum x2 -> decode_request ->
//               content_key -> [find_result] -> acquire -> [shard_rows] ->
//               count_prepared[_range] -> encode_response ->
//               frame_checksum x2 -> decode_response
//   coordinator encode_response -> frame_checksum
//   client      frame_checksum -> decode_response
//
// The replay's catalogs are configured like the workers' and fed every
// request from the warmup on, so hits, store loads and builds follow the
// stream. Work inside acquire is split by the library's own timers
// (CatalogEntry::prepare_ms, PreprocessTimings); store calls on a build are
// timed on a mirror store configured like the workers' one.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2e {

struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string attrs = "{}";  ///< rendered JSON object
};

/// Spans kept in memory and written as JSON lines at exit.
class SpanLog {
 public:
  /// Appends `span`, assigning its id (ids start at 1).
  std::uint64_t add(Span span);
  [[nodiscard]] Span& at(std::uint64_t span_id) { return spans_[span_id - 1]; }
  /// Writes every span; returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// One measured request as the client saw it.
struct LiveRecord {
  std::uint64_t index = 0;  ///< stream position
  int client = 0;
  std::int64_t start_ns = 0;  ///< send time, from the window's start
  double latency_ms = 0;
  double queue_ms = 0;      ///< the coordinator's Response::queue_ms
  double execute_ms = 0;    ///< the coordinator's Response::execute_ms
  bool ok = false;
  std::uint64_t span_id = 0;  ///< its client.request span
};

struct ReplayOptions {
  std::string store_dir;    ///< empty = the workers ran without a store
  std::string mirror_dir;   ///< where store calls on builds are timed
  std::size_t max_requests = 200;
};

struct ReplayResult {
  struct Calls {
    std::uint64_t count = 0;
    double total_ms = 0;
    [[nodiscard]] double mean_ms() const {
      return count > 0 ? total_ms / static_cast<double>(count) : 0;
    }
  };
  std::map<std::string, Calls> calls;  ///< per span name

  // Means over the replayed measured requests.
  std::size_t requests = 0;
  double critical_path_ms = 0;
  double unattributed_ms = 0;
  double request_bytes = 0;   ///< request payloads summed over hops
  double shard_imbalance = 0; ///< slowest shard count / mean shard count
  double merge_edges = 0;
  double gallop_edges = 0;
  double bitmap_edges = 0;

  std::uint64_t mismatches = 0;  ///< replayed counts that missed the truth
};

/// Replays the warmup pass and then the first `max_requests` records of
/// `records` (sorted by stream position, contiguous from 0).
[[nodiscard]] ReplayResult replay_stream(const Workload& workload,
                                         const std::vector<LiveRecord>& records,
                                         const ReplayOptions& options,
                                         SpanLog& log);

}  // namespace e2e
