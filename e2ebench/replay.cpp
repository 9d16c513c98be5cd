#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "cluster/coordinator.hpp"
#include "cluster/hrw.hpp"
#include "cluster_proc.hpp"
#include "cpu/hybrid_engine.hpp"
#include "prim/thread_pool.hpp"
#include "report.hpp"
#include "service/catalog.hpp"
#include "service/sharding.hpp"
#include "store/store.hpp"
#include "transport/wire.hpp"

namespace e2e {

std::uint64_t SpanLog::add(Span span) {
  span.span_id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().span_id;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"trace_id\": " << s.trace_id << ", \"span_id\": " << s.span_id
        << ", \"parent\": " << s.parent << ", \"name\": " << json_string(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"attrs\": " << s.attrs << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

namespace cpu = trico::cpu;
namespace svc = trico::service;
namespace wire = trico::transport;

constexpr const char* kLibraryTimer = "{\"timer\": \"library\"}";

std::int64_t to_ns(double ms) { return static_cast<std::int64_t>(ms * 1e6); }

class Replayer {
 public:
  Replayer(const ReplayOptions& options, SpanLog& log, ReplayResult& result)
      : log_(log),
        result_(result),
        threshold_(trico::cluster::CoordinatorOptions{}.scatter_edge_threshold) {
    svc::CatalogOptions catalog;
    catalog.byte_budget = std::uint64_t{kCatalogMb} << 20;
    catalog.store.root = options.store_dir;
    for (int i = 0; i < kWorkers; ++i) {
      workers_.push_back(std::make_unique<Worker>(catalog));
    }
    if (!options.store_dir.empty()) {
      trico::store::StoreOptions mirror;
      mirror.root = options.mirror_dir;
      mirror.mapped_byte_budget = 0;  // keep nothing resident
      mirror_ = std::make_unique<trico::store::ArtifactStore>(mirror);
    } else {
      mirror_ = std::make_unique<trico::store::ArtifactStore>();
    }
  }

 private:
  // Helpers come first: timed() deduces its return type, so it must be
  // defined before the members that call it.
  struct Worker {
    explicit Worker(const svc::CatalogOptions& options) : catalog(options) {}
    svc::GraphCatalog catalog;
    trico::prim::ThreadPool pool{1};
  };
  struct Scope {
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  Scope open(const Scope& parent, const char* name,
             std::string attrs = "{}") {
    Span span;
    span.trace_id = parent.trace;
    span.parent = parent.span;
    span.name = name;
    span.start_ns = now_ns();
    span.attrs = std::move(attrs);
    return {parent.trace, log_.add(std::move(span))};
  }

  void close(const Scope& scope) { log_.at(scope.span).end_ns = now_ns(); }

  /// Logs a finished call and folds it into the per-call totals; returns
  /// its duration in ms.
  double record(const Scope& parent, const char* name, std::int64_t start,
                std::int64_t end, std::string attrs = "{}") {
    Span span;
    span.trace_id = parent.trace;
    span.parent = parent.span;
    span.name = name;
    span.start_ns = start;
    span.end_ns = end;
    span.attrs = std::move(attrs);
    last_span_ = log_.add(std::move(span));
    const double ms = static_cast<double>(end - start) / 1e6;
    ReplayResult::Calls& calls = result_.calls[name];
    ++calls.count;
    calls.total_ms += ms;
    return ms;
  }

  /// Runs `f` as one timed call, adding its duration to `path_ms`.
  template <class F>
  auto timed(const Scope& at, const char* name, double& path_ms, F&& f,
             std::string attrs = "{}") {
    const std::int64_t start = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      f();
      path_ms += record(at, name, start, now_ns(), std::move(attrs));
    } else {
      auto value = f();
      path_ms += record(at, name, start, now_ns(), std::move(attrs));
      return value;
    }
  }

  void checksum(const Scope& at, const std::vector<std::uint8_t>& payload,
                double& path_ms) {
    (void)timed(at, "transport.frame_checksum", path_ms,
                [&] { return wire::frame_checksum(payload); });
  }

 public:
  /// Replays one request under span `parent`; returns its critical path:
  /// the serial client and coordinator calls plus the slowest subrequest.
  double request(const Input& input, svc::Backend backend, std::uint64_t trace,
                 std::uint64_t parent, bool measured) {
    const Scope root =
        open({trace, parent}, "replay.request", "{\"clock\": \"replay\"}");
    double serial = 0;
    std::uint64_t bytes = 0;
    svc::Request request;
    request.graph = input.graph;
    request.op = svc::Operation::kCount;
    request.backend = backend;

    const Scope client = open(root, "replay.client");
    const auto payload = timed(client, "transport.encode_request", serial,
                               [&] { return wire::encode_request(request); });
    bytes += payload.size();
    checksum(client, payload, serial);
    close(client);

    const Scope coordinator = open(root, "replay.coordinator");
    checksum(coordinator, payload, serial);
    const svc::Request routed =
        timed(coordinator, "transport.decode_request", serial,
              [&] { return wire::decode_request(payload); });
    const std::uint64_t key =
        timed(coordinator, "catalog.content_hash", serial, [&] {
          return svc::GraphCatalog::content_hash(*routed.graph);
        });
    const std::vector<std::size_t> ranks =
        timed(coordinator, "cluster.hrw_rank", serial, [&] {
          return trico::cluster::hrw_rank_all(key, workers_.size());
        });
    const bool scatter = (backend == svc::Backend::kAuto ||
                          backend == svc::Backend::kCpuHybrid) &&
                         routed.graph->edges().size() >= threshold_ &&
                         workers_.size() > 1;
    const auto shards =
        static_cast<std::uint32_t>(scatter ? workers_.size() : 1);

    double slowest = 0;
    std::vector<double> shard_count_ms;
    trico::TriangleCount total = 0;
    for (std::uint32_t i = 0; i < shards; ++i) {
      svc::Request sub = routed;
      if (scatter) {
        sub.shard_index = i;
        sub.shard_count = shards;
        sub.backend = svc::Backend::kCpuHybrid;
      }
      double path = 0;
      const svc::Response response =
          worker_hop(coordinator, ranks[i % ranks.size()], sub, path, bytes,
                     shard_count_ms, measured);
      total += response.triangles;
      slowest = std::max(slowest, path);
    }

    svc::Response gathered;
    gathered.status = svc::Status::kOk;
    gathered.triangles = total;
    const auto encoded =
        timed(coordinator, "transport.encode_response", serial,
              [&] { return wire::encode_response(gathered); });
    checksum(coordinator, encoded, serial);
    close(coordinator);

    const Scope reply = open(root, "replay.client");
    checksum(reply, encoded, serial);
    const svc::Response answer =
        timed(reply, "transport.decode_response", serial,
              [&] { return wire::decode_response(encoded); });
    close(reply);
    close(root);

    if (answer.triangles != input.truth) ++result_.mismatches;
    if (measured) {
      result_.request_bytes += static_cast<double>(bytes);
      double imbalance = 1;
      if (shard_count_ms.size() > 1) {
        double sum = 0;
        for (const double ms : shard_count_ms) sum += ms;
        const double mean = sum / static_cast<double>(shard_count_ms.size());
        if (mean > 0) {
          imbalance =
              *std::max_element(shard_count_ms.begin(), shard_count_ms.end()) /
              mean;
        }
      }
      result_.shard_imbalance += imbalance;
    }
    return serial + slowest;
  }

  /// Times one acquire of a resident graph on its home worker, for
  /// workloads whose path never acquires a graph that is already resident.
  void probe_acquire_hit(const Input& input, std::uint64_t trace) {
    const std::uint64_t key = svc::GraphCatalog::content_hash(*input.graph);
    Worker& worker =
        *workers_[trico::cluster::hrw_rank_all(key, workers_.size())[0]];
    (void)worker.catalog.content_key(input.graph);
    const Scope at = open({trace, 0}, "replay.probe", "{\"probe\": true}");
    const std::int64_t start = now_ns();
    const bool hit = worker.catalog.acquire(input.graph, worker.pool).hit;
    record(at, hit ? "catalog.acquire_hit" : "catalog.acquire_miss", start,
           now_ns());
    close(at);
  }

 private:
  /// One coordinator -> worker -> coordinator round trip.
  svc::Response worker_hop(const Scope& parent, std::size_t slot,
                           const svc::Request& sub, double& path_ms,
                           std::uint64_t& bytes,
                           std::vector<double>& shard_count_ms,
                           bool measured) {
    const Scope hop =
        open(parent, "replay.subrequest",
             "{\"worker\": " + std::to_string(slot) +
                 ", \"shard\": " + std::to_string(sub.shard_index) + "}");
    Worker& worker = *workers_[slot];
    const auto payload = timed(hop, "transport.encode_request", path_ms,
                               [&] { return wire::encode_request(sub); });
    bytes += payload.size();
    checksum(hop, payload, path_ms);  // sent by the dispatch lane
    checksum(hop, payload, path_ms);  // verified by the worker
    const svc::Request request =
        timed(hop, "transport.decode_request", path_ms,
              [&] { return wire::decode_request(payload); });
    const std::uint64_t key =
        timed(hop, "catalog.content_hash", path_ms,
              [&] { return worker.catalog.content_key(request.graph); });

    svc::Response response;
    response.status = svc::Status::kOk;
    std::optional<svc::CachedResult> cached;
    if (request.backend == svc::Backend::kAuto && !request.sharded()) {
      cached = timed(hop, "catalog.find_result", path_ms, [&] {
        return worker.catalog.find_result(key, svc::Operation::kCount);
      });
    }
    if (cached) {
      response.triangles = cached->triangles;
      response.catalog_hit = true;
    } else {
      const svc::CatalogStats before = worker.catalog.stats();
      const std::int64_t start = now_ns();
      const svc::GraphCatalog::Acquired acquired =
          worker.catalog.acquire(request.graph, worker.pool);
      path_ms += record(hop,
                        acquired.hit ? "catalog.acquire_hit"
                                     : "catalog.acquire_miss",
                        start, now_ns());
      split_acquire({hop.trace, last_span_}, start, key, *acquired.entry,
                    before, worker.catalog.stats());

      const cpu::PreparedGraphView& view = acquired.entry->prepared_view;
      cpu::CountingStats stats;
      double count_ms = 0;
      if (request.sharded()) {
        const cpu::ShardRange range =
            timed(hop, "cluster.shard_rows", path_ms, [&] {
              return cpu::shard_rows(view, request.shard_index,
                                     request.shard_count);
            });
        response.triangles = timed(hop, "engine.count", count_ms, [&] {
          return cpu::count_prepared_range(view, worker.pool, range.row_begin,
                                           range.row_end, &stats);
        });
        response.shard_checksum =
            timed(hop, "service.shard_checksum", path_ms,
                  [&] { return svc::shard_slice_checksum(view, range); });
        response.shard_index = request.shard_index;
        response.shard_count = request.shard_count;
      } else {
        response.triangles = timed(hop, "engine.count", count_ms, [&] {
          return cpu::count_prepared(view, worker.pool, &stats);
        });
        svc::CachedResult memo;
        memo.triangles = response.triangles;
        timed(hop, "catalog.store_result", path_ms, [&] {
          worker.catalog.store_result(key, svc::Operation::kCount, memo);
        });
      }
      path_ms += count_ms;
      shard_count_ms.push_back(count_ms);
      if (measured) {
        result_.merge_edges += static_cast<double>(stats.merge_edges);
        result_.gallop_edges += static_cast<double>(stats.gallop_edges);
        result_.bitmap_edges += static_cast<double>(stats.bitmap_edges);
      }
    }

    const auto encoded = timed(hop, "transport.encode_response", path_ms,
                               [&] { return wire::encode_response(response); });
    checksum(hop, encoded, path_ms);  // sent by the worker
    checksum(hop, encoded, path_ms);  // verified by the lane
    const svc::Response back =
        timed(hop, "transport.decode_response", path_ms,
              [&] { return wire::decode_response(encoded); });
    close(hop);
    return back;
  }

  /// Child spans of one acquire. A store load is timed by the catalog
  /// itself (CatalogEntry::prepare_ms covers exactly the store find); a
  /// build by cpu::prepare's own stage timers, laid end to end from the
  /// acquire's start, plus the store find and publish it made, re-timed on
  /// the mirror store (they are inside the acquire's own duration).
  void split_acquire(const Scope& at, std::int64_t start, std::uint64_t key,
                     const svc::CatalogEntry& entry,
                     const svc::CatalogStats& before,
                     const svc::CatalogStats& after) {
    if (after.store_loads > before.store_loads) {
      record(at, "store.find", start, start + to_ns(entry.prepare_ms),
             "{\"outcome\": \"load\", \"timer\": \"library\"}");
      return;
    }
    if (after.builds == before.builds) return;
    record(at, "engine.prepare", start, start + to_ns(entry.prepare_ms),
           kLibraryTimer);
    const Scope prepare{at.trace, last_span_};
    const cpu::PreprocessTimings& t = entry.prepared.timings;
    const std::pair<const char*, double> stages[] = {
        {"engine.prepare.degrees", t.degrees_ms},
        {"engine.prepare.orient", t.orient_ms},
        {"engine.prepare.relabel", t.relabel_ms},
        {"engine.prepare.sort", t.sort_ms},
        {"engine.prepare.csr", t.csr_ms},
        {"engine.prepare.bitmap", t.bitmap_ms},
    };
    std::int64_t cursor = start;
    for (const auto& [name, ms] : stages) {
      record(prepare, name, cursor, cursor + to_ns(ms), kLibraryTimer);
      cursor += to_ns(ms);
    }
    double off_path = 0;
    (void)timed(at, "store.find", off_path, [&] { return mirror_->find(key); },
                "{\"outcome\": \"miss\", \"store\": \"mirror\"}");
    (void)timed(
        at, "store.publish", off_path,
        [&] { return mirror_->publish(key, entry.prepared, entry.stats); },
        "{\"store\": \"mirror\"}");
    if (mirror_->enabled()) {
      std::error_code ec;
      std::filesystem::remove(mirror_->prepared_path(key), ec);
    }
  }

  SpanLog& log_;
  ReplayResult& result_;
  const std::uint64_t threshold_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<trico::store::ArtifactStore> mirror_;
  std::uint64_t last_span_ = 0;
};

}  // namespace

ReplayResult replay_stream(const Workload& workload,
                           const std::vector<LiveRecord>& records,
                           const ReplayOptions& options, SpanLog& log) {
  ReplayResult result;
  Replayer replayer(options, log, result);
  const svc::Backend backend = workload.spec().backend;
  std::uint64_t spare_trace = std::uint64_t{1} << 40;
  for (const Input& input : workload.warmup()) {
    (void)replayer.request(input, backend, spare_trace++, 0, false);
  }

  const std::size_t n = std::min(records.size(), options.max_requests);
  Input last;
  for (std::size_t i = 0; i < n; ++i) {
    const LiveRecord& record = records[i];
    last = workload.item(record.index);
    const double path = replayer.request(last, backend, record.index + 1,
                                         record.span_id, true);
    result.critical_path_ms += path;
    result.unattributed_ms += record.latency_ms - path;
  }
  if (result.calls["catalog.acquire_hit"].count == 0 && last.graph) {
    replayer.probe_acquire_hit(last, spare_trace++);
  }

  result.requests = n;
  if (n > 0) {
    const double count = static_cast<double>(n);
    for (double* mean :
         {&result.critical_path_ms, &result.unattributed_ms,
          &result.request_bytes, &result.shard_imbalance, &result.merge_edges,
          &result.gallop_edges, &result.bitmap_edges}) {
      *mean /= count;
    }
  }
  return result;
}

}  // namespace e2e
