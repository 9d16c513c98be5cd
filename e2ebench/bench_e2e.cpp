// bench_e2e — end-to-end benchmark of Client -> coordinator -> worker ->
// engine.
//
//   bench_e2e --workload <name>|all --seed S [--duration-s 30] [--out FILE]
//             [--trace FILE] [--smoke] [--scratch DIR]
//
// This process only generates load. It re-executes itself as
// `--role coordinator`, which hosts a cluster::Coordinator behind a
// transport::Server; that coordinator supervises 2 `trico_cli serve`
// workers (--catalog-mb 64; churn-store adds --store). Every workload is a
// closed loop: each client thread owns one transport::Client and sends its
// next request when the previous one returns. Inputs are generated from
// the seed before the cluster starts, and every response is checked
// against cpu::count_forward.
//
// Untraced (the end-to-end metrics): the cluster is launched and warmed
// five times and each launch serves a fifth of the measured window, run on
// where needed until the run has 1000 OK requests. Latency percentiles pool
// every launch; setup_s, req_per_s, cpu_ms_per_req and peak_rss_mb are
// medians over the launches. Traced (--trace FILE, the per-layer metrics): an
// untraced run and a traced run of the same seed take half of the duration
// each; the traced run records every request, /proc deltas and the
// processes' own metrics, and after the cluster stops its request stream
// is replayed in-process (replay.hpp) and every span goes to FILE.
//
// Output: one `workload metric value unit` line per metric, the same values
// as a keyed JSON-lines record in --out (a record with the same key is
// replaced), and, for a single workload, a last stdout line
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (untraced) or the per-layer metrics (traced). Exit status 1 when
// any request failed or returned a wrong count.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster_proc.hpp"
#include "cpu/simd/cpu_features.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "service/request.hpp"
#include "transport/client.hpp"
#include "workloads.hpp"

#ifndef TRICO_E2E_COMMIT
#define TRICO_E2E_COMMIT "unknown"
#endif

namespace {

using namespace e2e;
namespace fs = std::filesystem;
namespace svc = trico::service;
using Clock = std::chrono::steady_clock;

constexpr int kLaunches = 5;
/// OK requests a measured run completes at least, so latency_p99_ms has
/// 10 samples beyond it. A window that ends short runs on until its share
/// is done, for at most kOvertime of its length.
constexpr std::uint64_t kMinOkRequests = 1000;
constexpr double kOvertime = 0.15;
constexpr std::size_t kReplayRequests = 200;
constexpr int kHeartbeatProbes = 50;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double duration_s = 30;
  std::string out;
  std::string trace;
  std::string scratch = "bench_e2e_scratch";
  bool smoke = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <name>|all --seed S [--duration-s 30]"
               " [--out FILE] [--trace FILE] [--smoke] [--scratch DIR]\n"
               "workloads:";
  for (const WorkloadSpec& spec : workload_specs()) std::cerr << " " << spec.name;
  std::cerr << "\n";
  std::exit(2);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double self_cpu_ms() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// A fresh directory under the scratch root, removed with everything in it
/// when the guard goes away.
class ScratchDir {
 public:
  explicit ScratchDir(const fs::path& path) : path_(path) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// Cluster-wide /proc view at one instant.
struct ClusterSample {
  ProcSample coordinator;
  ProcSample workers;  ///< summed over the workers
};

ClusterSample sample_cluster(const ClusterProcess& cluster) {
  ClusterSample sample;
  sample.coordinator = sample_process(cluster.pid());
  for (const ClusterProcess::Worker& worker : cluster.workers()) {
    const ProcSample w = sample_process(worker.pid);
    sample.workers.cpu_ms += w.cpu_ms;
    sample.workers.io_bytes += w.io_bytes;
    sample.workers.peak_rss_mb += w.peak_rss_mb;
  }
  return sample;
}

/// One cluster launch: its set-up time and its share of the window.
struct Launch {
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t ok = 0;
  ClusterSample before, after;

  [[nodiscard]] double cluster_cpu_ms() const {
    return after.coordinator.cpu_ms + after.workers.cpu_ms -
           before.coordinator.cpu_ms - before.workers.cpu_ms;
  }
};

/// Everything one run measured, over one or more cluster launches.
struct Phase {
  std::vector<Launch> launches;
  bool warmup_ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies_ms;  ///< OK requests, every launch
  double client_cpu_ms = 0;
  double stall_ms = 0;
  // Recorded by the traced run only (one launch).
  std::vector<LiveRecord> records;
  std::string coordinator_metrics[2];        ///< before, after
  std::vector<std::string> worker_metrics[2];  ///< before, after
  std::vector<double> heartbeat_ms;

  [[nodiscard]] std::uint64_t ok() const { return latencies_ms.size(); }
};

/// One request through `client`; true when it returned the known count.
bool send_checked(trico::transport::Client& client, const WorkloadSpec& spec,
                  const Input& input, svc::Response* out) {
  svc::Request request;
  request.graph = input.graph;
  request.op = svc::Operation::kCount;
  request.backend = spec.backend;
  try {
    svc::Response response = client.execute(request);
    const bool ok = response.status == svc::Status::kOk &&
                    response.triangles == input.truth;
    if (response.status == svc::Status::kOk && !ok) {
      std::cerr << "MISMATCH " << spec.name << ": got " << response.triangles
                << " expected " << input.truth << "\n";
    } else if (!ok) {
      std::cerr << spec.name << ": request " << svc::to_string(response.status)
                << ": " << response.reason << "\n";
    }
    if (out != nullptr) *out = std::move(response);
    return ok;
  } catch (const std::exception& error) {
    std::cerr << spec.name << ": request failed: " << error.what() << "\n";
    return false;
  }
}

std::vector<std::unique_ptr<trico::transport::Client>> connect_clients(
    const ClusterProcess& cluster, int count, std::uint64_t seed) {
  std::vector<std::unique_ptr<trico::transport::Client>> clients;
  for (int c = 0; c < count; ++c) {
    trico::transport::ClientOptions options;
    options.port = cluster.port();
    options.request_timeout_ms = 20000;
    options.max_attempts = 2;
    options.seed = seed * 16 + static_cast<std::uint64_t>(c) + 1;
    clients.push_back(std::make_unique<trico::transport::Client>(options));
  }
  return clients;
}

/// Sends every warmup input once, spread over the clients.
bool warm_up(const Workload& workload,
             std::vector<std::unique_ptr<trico::transport::Client>>& clients) {
  const std::vector<Input>& inputs = workload.warmup();
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < inputs.size(); i += clients.size()) {
        if (!send_checked(*clients[c], workload.spec(), inputs[i], nullptr)) {
          ok = false;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return ok;
}

/// The closed-loop measured window of one launch: `duration_s`, then on
/// until `min_ok` OK requests are done or the overtime runs out.
void run_window(const Workload& workload,
                std::vector<std::unique_ptr<trico::transport::Client>>& clients,
                double duration_s, std::uint64_t min_ok, bool record,
                Launch& launch, Phase& phase) {
  Feed feed(workload);
  const std::uint64_t ok_before = phase.ok();
  std::mutex mutex;  // guards phase and error while the clients run
  std::exception_ptr error;
  std::atomic<std::uint64_t> ok_count{0};
  const double cpu_before = self_cpu_ms();
  const Clock::time_point start = Clock::now();
  const auto after = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  const Clock::time_point deadline = after(duration_s);
  const Clock::time_point overtime = after(duration_s * (1 + kOvertime));
  const auto measuring = [&] {
    const Clock::time_point now = Clock::now();
    return now < deadline || (ok_count < min_ok && now < overtime);
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> latencies;
      std::vector<LiveRecord> records;
      std::uint64_t attempted = 0, failed = 0;
      double stall_ms = 0;
      std::exception_ptr failure;
      while (measuring()) {
        const Clock::time_point wait = Clock::now();
        std::pair<std::uint64_t, Input> next;
        try {
          next = feed.next();
        } catch (...) {
          failure = std::current_exception();
          break;
        }
        auto& [index, input] = next;
        const Clock::time_point sent = Clock::now();
        stall_ms += ms_between(wait, sent);
        svc::Response response;
        const bool ok =
            send_checked(*clients[c], workload.spec(), input, &response);
        const double latency = ms_between(sent, Clock::now());
        ++attempted;
        if (ok) {
          latencies.push_back(latency);
          ++ok_count;
        } else {
          ++failed;
        }
        if (record) {
          LiveRecord r;
          r.index = index;
          r.client = static_cast<int>(c);
          r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           sent - start)
                           .count();
          r.latency_ms = latency;
          r.queue_ms = response.queue_ms;
          r.execute_ms = response.execute_ms;
          r.ok = ok;
          records.push_back(r);
        }
      }
      std::lock_guard lock(mutex);
      if (failure != nullptr && error == nullptr) error = failure;
      phase.latencies_ms.insert(phase.latencies_ms.end(), latencies.begin(),
                                latencies.end());
      phase.records.insert(phase.records.end(), records.begin(), records.end());
      phase.attempted += attempted;
      phase.failed += failed;
      phase.stall_ms += stall_ms;
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (error != nullptr) std::rethrow_exception(error);
  launch.wall_s = ms_between(start, Clock::now()) / 1e3;
  launch.ok = phase.ok() - ok_before;
  phase.client_cpu_ms += self_cpu_ms() - cpu_before;
  std::sort(phase.records.begin(), phase.records.end(),
            [](const LiveRecord& a, const LiveRecord& b) {
              return a.index < b.index;
            });
}

std::vector<std::string> fetch_worker_metrics(const ClusterProcess& cluster) {
  std::vector<std::string> texts;
  for (const ClusterProcess::Worker& worker : cluster.workers()) {
    trico::transport::ClientOptions options;
    options.port = worker.port;
    trico::transport::Client client(options);
    texts.push_back(client.fetch_metrics());
  }
  return texts;
}

/// Launches and warms `launches` clusters in turn; each then serves an
/// equal share of the measured duration and of the `min_ok` floor.
Phase run_phase(const Workload& workload, double duration_s, int launches,
                std::uint64_t min_ok, bool record, const fs::path& scratch) {
  const std::uint64_t launch_min_ok = (min_ok + launches - 1) / launches;
  const WorkloadSpec& spec = workload.spec();
  Phase phase;
  for (int k = 0; k < launches; ++k) {
    std::unique_ptr<ScratchDir> store_dir;
    if (spec.store) {
      store_dir = std::make_unique<ScratchDir>(
          scratch / ("store-" + std::to_string(::getpid()) + "-" +
                     std::to_string(k)));
    }
    Launch launch;
    const Clock::time_point start = Clock::now();
    ClusterProcess cluster(store_dir ? store_dir->str() : std::string());
    auto clients = connect_clients(cluster, spec.clients, workload.seed());
    phase.warmup_ok = warm_up(workload, clients) && phase.warmup_ok;
    launch.setup_s = ms_between(start, Clock::now()) / 1e3;

    if (record) {
      phase.coordinator_metrics[0] = clients[0]->fetch_metrics();
      phase.worker_metrics[0] = fetch_worker_metrics(cluster);
    }
    launch.before = sample_cluster(cluster);
    run_window(workload, clients, duration_s / launches, launch_min_ok, record,
               launch, phase);
    launch.after = sample_cluster(cluster);
    if (record) {
      phase.coordinator_metrics[1] = clients[0]->fetch_metrics();
      phase.worker_metrics[1] = fetch_worker_metrics(cluster);
      for (int i = 0; i < kHeartbeatProbes; ++i) {
        const Clock::time_point t = Clock::now();
        (void)clients[0]->heartbeat();
        phase.heartbeat_ms.push_back(ms_between(t, Clock::now()));
      }
    }
    clients.clear();
    cluster.stop();
    phase.launches.push_back(launch);
  }
  return phase;
}

double per(double value, double count) { return count > 0 ? value / count : 0; }

/// Median over the launches of `f(launch)`.
template <class F>
double launch_median(const Phase& phase, F&& f) {
  std::vector<double> values;
  for (const Launch& launch : phase.launches) values.push_back(f(launch));
  return quantile(std::move(values), 0.5);
}

double req_per_s(const Phase& phase) {
  return launch_median(phase, [](const Launch& l) {
    return per(static_cast<double>(l.ok), l.wall_s);
  });
}

/// Latencies pool every launch; the other metrics are medians over the
/// launches, so one disturbed launch does not move them.
std::vector<Metric> end_to_end_metrics(const Phase& phase) {
  return {
      {"setup_s",
       launch_median(phase, [](const Launch& l) { return l.setup_s; }), "s"},
      {"req_per_s", req_per_s(phase), "req/s"},
      {"latency_p50_ms", quantile(phase.latencies_ms, 0.50), "ms"},
      {"latency_p99_ms", quantile(phase.latencies_ms, 0.99), "ms"},
      {"cpu_ms_per_req",
       launch_median(phase,
                     [](const Launch& l) {
                       return per(l.cluster_cpu_ms(), static_cast<double>(l.ok));
                     }),
       "ms"},
      {"peak_rss_mb", launch_median(phase, [](const Launch& l) {
         return l.after.coordinator.peak_rss_mb + l.after.workers.peak_rss_mb;
       }),
       "MB"},
  };
}

/// Change of one counter over the traced window, summed over `texts`.
double delta(const std::vector<std::string> (&texts)[2],
             std::string_view line, std::string_view key) {
  double sum = 0;
  for (std::size_t i = 0; i < texts[1].size(); ++i) {
    sum += metric_counter(texts[1][i], line, key) -
           (i < texts[0].size() ? metric_counter(texts[0][i], line, key) : 0);
  }
  return sum;
}

std::vector<Metric> per_layer_metrics(const Phase& untraced,
                                      const Phase& traced,
                                      const ReplayResult& replay) {
  const double ok = static_cast<double>(traced.ok());
  const auto call = [&](const char* name) {
    const auto it = replay.calls.find(name);
    return it == replay.calls.end() ? 0.0 : it->second.mean_ms();
  };
  const std::vector<std::string> coordinator[2] = {
      {traced.coordinator_metrics[0]}, {traced.coordinator_metrics[1]}};
  const auto& workers = traced.worker_metrics;
  const double hits = delta(workers, "catalog:", "hits");
  const double misses = delta(workers, "catalog:", "misses");
  const double lane_jobs = delta(coordinator, "cluster:", "affinity") +
                           delta(coordinator, "cluster:", "shards");
  double queue_ms = 0, execute_ms = 0;
  for (const LiveRecord& r : traced.records) {
    if (!r.ok) continue;
    queue_ms += r.queue_ms;
    execute_ms += r.execute_ms;
  }
  const ClusterSample& before = traced.launches.back().before;
  const ClusterSample& after = traced.launches.back().after;
  const double untraced_rps = req_per_s(untraced);
  const double traced_rps = req_per_s(traced);
  const double mb = 1e6;
  return {
      {"transport.encode_request_ms", call("transport.encode_request"), "ms"},
      {"transport.decode_request_ms", call("transport.decode_request"), "ms"},
      {"transport.frame_checksum_ms", call("transport.frame_checksum"), "ms"},
      {"transport.request_mb_per_req", replay.request_bytes / mb, "MB"},
      {"transport.heartbeat_rtt_ms", quantile(traced.heartbeat_ms, 0.5), "ms"},
      {"cluster.coordinator_cpu_ms_per_req",
       per(after.coordinator.cpu_ms - before.coordinator.cpu_ms, ok),
       "ms"},
      {"cluster.coordinator_io_mb_per_req",
       per(static_cast<double>(after.coordinator.io_bytes -
                               before.coordinator.io_bytes) / mb,
           ok),
       "MB"},
      {"cluster.queue_ms", per(queue_ms, ok), "ms"},
      {"cluster.execute_ms", per(execute_ms, ok), "ms"},
      {"cluster.shard_subrequests_per_req",
       per(delta(coordinator, "cluster:", "shards"), ok), "count"},
      {"cluster.batched_dispatch_ratio",
       per(delta(coordinator, "cluster:", "batched"), lane_jobs), "ratio"},
      {"cluster.rescatters", delta(coordinator, "cluster:", "rescatters"),
       "count"},
      {"service.worker_cpu_ms_per_req",
       per(after.workers.cpu_ms - before.workers.cpu_ms, ok),
       "ms"},
      {"service.worker_io_mb_per_req",
       per(static_cast<double>(after.workers.io_bytes -
                               before.workers.io_bytes) / mb,
           ok),
       "MB"},
      {"catalog.content_hash_ms", call("catalog.content_hash"), "ms"},
      {"catalog.acquire_hit_ms", call("catalog.acquire_hit"), "ms"},
      {"catalog.acquire_miss_ms", call("catalog.acquire_miss"), "ms"},
      {"catalog.hit_ratio", per(hits, hits + misses), "ratio"},
      {"catalog.result_hit_ratio",
       per(delta(workers, "catalog:", "result_hits"),
           delta(workers, "requests:", "ok")),
       "ratio"},
      {"catalog.builds_per_req", per(delta(workers, "catalog:", "builds"), ok),
       "count"},
      {"catalog.evictions_per_req",
       per(delta(workers, "catalog:", "evictions"), ok), "count"},
      {"catalog.store_loads_per_req", per(delta(workers, "store:", "loads"), ok),
       "count"},
      {"store.find_ms", call("store.find"), "ms"},
      {"store.publish_ms", call("store.publish"), "ms"},
      {"engine.prepare_ms", call("engine.prepare"), "ms"},
      {"engine.prepare.degrees_ms", call("engine.prepare.degrees"), "ms"},
      {"engine.prepare.orient_ms", call("engine.prepare.orient"), "ms"},
      {"engine.prepare.relabel_ms", call("engine.prepare.relabel"), "ms"},
      {"engine.prepare.sort_ms", call("engine.prepare.sort"), "ms"},
      {"engine.prepare.csr_ms", call("engine.prepare.csr"), "ms"},
      {"engine.prepare.bitmap_ms", call("engine.prepare.bitmap"), "ms"},
      {"engine.count_ms", call("engine.count"), "ms"},
      {"engine.shard_imbalance", replay.shard_imbalance, "ratio"},
      {"engine.merge_edges", replay.merge_edges, "count"},
      {"engine.gallop_edges", replay.gallop_edges, "count"},
      {"engine.bitmap_edges", replay.bitmap_edges, "count"},
      {"client.cpu_ms_per_req", per(traced.client_cpu_ms, ok), "ms"},
      {"client.producer_stall_ms",
       per(traced.stall_ms, static_cast<double>(traced.attempted)), "ms"},
      {"trace.critical_path_ms", replay.critical_path_ms, "ms"},
      {"trace.unattributed_ms", replay.unattributed_ms, "ms"},
      {"trace.overhead_pct",
       untraced_rps > 0 ? 100.0 * (untraced_rps - traced_rps) / untraced_rps : 0,
       "%"},
  };
}

struct WorkloadResult {
  std::string name;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  trico::TriangleCount truth_sum = 0;  ///< over the workload's base graphs
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< traced runs only
  std::vector<Metric> counts;     ///< sample counts, printed and recorded
};

WorkloadResult run_workload(const WorkloadSpec& spec, const Options& options,
                            const std::string& trace_path) {
  const fs::path scratch = options.scratch;
  fs::create_directories(scratch);
  WorkloadResult result;
  result.name = spec.name;
  std::cerr << "[e2e] " << spec.name << ": generating inputs (seed "
            << options.seed << ")\n";
  const Workload workload(spec, options.seed);
  for (const Input& input : workload.warmup()) result.truth_sum += input.truth;
  const bool traced = !trace_path.empty();
  const double window_s = traced ? options.duration_s / 2 : options.duration_s;

  std::cerr << "[e2e] " << spec.name << ": measuring " << window_s << " s\n";
  // Only a full measured run is held to the OK-request floor; the traced
  // pair and smoke runs are shorter by design.
  const bool full = !traced && !options.smoke;
  const Phase untraced =
      run_phase(workload, window_s, full ? kLaunches : 1,
                full ? kMinOkRequests : 0, false, scratch);
  result.end_to_end = end_to_end_metrics(untraced);
  result.attempted = untraced.attempted;
  result.failed = untraced.failed;
  result.correct = untraced.warmup_ok && untraced.failed == 0;
  result.counts = {
      {"ok_requests", static_cast<double>(untraced.ok()), "count"},
      {"failed_ratio",
       per(static_cast<double>(untraced.failed),
           static_cast<double>(untraced.attempted)),
       "ratio"},
  };

  if (traced) {
    std::cerr << "[e2e] " << spec.name << ": traced run " << window_s << " s\n";
    Phase run = run_phase(workload, window_s, 1, 0, true, scratch);
    result.attempted += run.attempted;
    result.failed += run.failed;
    result.correct = result.correct && run.warmup_ok && run.failed == 0;

    SpanLog log;
    for (LiveRecord& r : run.records) {
      Span span;
      span.trace_id = r.index + 1;
      span.name = "client.request";
      span.start_ns = r.start_ns;
      span.end_ns = r.start_ns + static_cast<std::int64_t>(r.latency_ms * 1e6);
      span.attrs = "{\"clock\": \"window\", \"client\": " +
                   std::to_string(r.client) + ", \"ok\": " +
                   (r.ok ? "true" : "false") +
                   ", \"queue_ms\": " + json_number(r.queue_ms) +
                   ", \"execute_ms\": " + json_number(r.execute_ms) + "}";
      r.span_id = log.add(std::move(span));
    }

    std::cerr << "[e2e] " << spec.name << ": replaying\n";
    ReplayOptions replay_options;
    replay_options.max_requests = options.smoke ? 20 : kReplayRequests;
    std::unique_ptr<ScratchDir> store_dir, mirror_dir;
    if (spec.store) {
      const std::string tag = std::to_string(::getpid());
      store_dir = std::make_unique<ScratchDir>(scratch / ("replay-store-" + tag));
      mirror_dir = std::make_unique<ScratchDir>(scratch / ("replay-mirror-" + tag));
      replay_options.store_dir = store_dir->str();
      replay_options.mirror_dir = mirror_dir->str();
    }
    const ReplayResult replay =
        replay_stream(workload, run.records, replay_options, log);
    if (replay.mismatches > 0) {
      std::cerr << "MISMATCH " << spec.name << ": " << replay.mismatches
                << " replayed counts missed the truth\n";
      result.correct = false;
    }
    if (!log.write_jsonl(trace_path)) {
      std::cerr << "cannot write spans to " << trace_path << "\n";
      result.correct = false;
    }
    result.per_layer = per_layer_metrics(untraced, run, replay);
    result.counts.push_back({"traced_ok_requests",
                             static_cast<double>(run.ok()), "count"});
    result.counts.push_back({"replayed_requests",
                             static_cast<double>(replay.requests), "count"});
  }
  return result;
}

std::string record_json(const WorkloadResult& result, const Options& options,
                        bool traced) {
  const std::string mode = traced ? "traced" : "untraced";
  const std::string key = "e2e/" + result.name + "/" +
                          std::to_string(options.seed) + "/" + mode + "/" +
                          TRICO_E2E_COMMIT;
  std::vector<Metric> metrics = result.end_to_end;
  metrics.insert(metrics.end(), result.counts.begin(), result.counts.end());
  std::ostringstream out;
  out << "{\"key\": " << json_string(key) << ", \"bench\": \"e2e\""
      << ", \"workload\": " << json_string(result.name)
      << ", \"seed\": " << options.seed << ", \"mode\": " << json_string(mode)
      << ", \"commit\": " << json_string(TRICO_E2E_COMMIT)
      << ", \"host_cores\": " << std::thread::hardware_concurrency()
      << ", \"isa\": "
      << json_string(trico::cpu::simd::to_string(trico::cpu::simd::resolve_isa()))
      << ", \"duration_s\": " << json_number(options.duration_s)
      << ", \"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed
      << ", \"truth_sum\": " << result.truth_sum
      << ", \"metrics\": " << json_metrics(metrics)
      << ", \"per_layer\": " << json_metrics(result.per_layer) << "}";
  return out.str();
}

/// Replaces the record with the same key in the JSON-lines file at `path`
/// (or appends), so runs of other workloads, seeds and modes survive.
void merge_record(const std::string& path, const std::string& record) {
  const std::string key = record.substr(0, record.find(", "));
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.compare(0, key.size(), key) != 0) {
        lines.push_back(line);
      }
    }
  }
  lines.push_back(record);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
  }
  fs::rename(tmp, path);
}

void print_metrics(const std::string& workload,
                   const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << workload << " " << m.name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  }
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (++i >= argc) usage(argv[0]);
      return argv[i];
    };
    try {
      if (arg == "--workload") {
        options.workload = next();
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--duration-s") {
        options.duration_s = std::stod(next());
      } else if (arg == "--out") {
        options.out = next();
      } else if (arg == "--trace") {
        options.trace = next();
      } else if (arg == "--scratch") {
        options.scratch = next();
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else {
        usage(argv[0]);
      }
    } catch (const std::logic_error&) {
      usage(argv[0]);
    }
  }
  if (options.smoke) options.duration_s = 3;
  if (options.duration_s <= 0) usage(argv[0]);
  if (options.workload != "all" && find_workload(options.workload) == nullptr) {
    usage(argv[0]);
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::strcmp(argv[1], "--role") == 0) {
    if (std::strcmp(argv[2], "coordinator") == 0) {
      return run_coordinator_role(argc, argv);
    }
    usage(argv[0]);
  }
  const Options options = parse(argc, argv);
  // Workers orphaned by a coordinator that had to be killed reparent here,
  // so they can be reaped before the bench exits.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  std::vector<const WorkloadSpec*> specs;
  if (options.workload == "all") {
    for (const WorkloadSpec& spec : workload_specs()) specs.push_back(&spec);
  } else {
    specs.push_back(find_workload(options.workload));
  }

  bool correct = true;
  std::vector<WorkloadResult> results;
  try {
    for (const WorkloadSpec* spec : specs) {
      std::string trace_path = options.trace;
      if (!trace_path.empty() && specs.size() > 1) {
        // One span file per workload: spans.jsonl -> spans.<workload>.jsonl
        fs::path path(trace_path);
        path.replace_filename(path.stem().string() + "." + spec->name +
                              path.extension().string());
        trace_path = path.string();
      }
      WorkloadResult result = run_workload(*spec, options, trace_path);
      print_metrics(result.name, result.counts);
      print_metrics(result.name, result.end_to_end);
      print_metrics(result.name, result.per_layer);
      if (!options.out.empty()) {
        merge_record(options.out, record_json(result, options, !trace_path.empty()));
      }
      correct = correct && result.correct;
      results.push_back(std::move(result));
    }
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: " << error.what() << "\n";
    while (::waitpid(-1, nullptr, WNOHANG) > 0) {
    }
    return 1;
  }
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }

  if (results.size() == 1) {
    const WorkloadResult& r = results.front();
    std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": "
              << json_metrics(options.trace.empty() ? r.end_to_end : r.per_layer)
              << "}\n";
  }
  std::cout << std::flush;
  return correct ? 0 : 1;
}
