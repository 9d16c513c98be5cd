// The cluster under test, seen from the load generator: one coordinator
// process (this binary re-executed as `--role coordinator`) that spawns and
// supervises the `trico_cli serve` workers. Everything the bench learns
// about it comes from outside: the spawn handshake, the wire metrics
// stream, and /proc/<pid>.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace e2e {

/// The deployment every workload runs on: this many `trico_cli serve`
/// workers, each started with `--catalog-mb kCatalogMb`.
inline constexpr int kWorkers = 2;
inline constexpr int kCatalogMb = 64;

/// Runs the coordinator role: a cluster::Coordinator behind a
/// transport::Server, wired as `trico_cli coordinator` wires them, until
/// SIGTERM. `--store DIR` gives the workers an artifact store. Prints
/// `LISTENING <port>` and `WORKERS <pid>:<port>...` on stdout for the
/// spawning bench. Returns the process exit code.
int run_coordinator_role(int argc, char** argv);

class ClusterProcess {
 public:
  struct Worker {
    pid_t pid = -1;
    std::uint16_t port = 0;
  };

  /// Spawns the coordinator and waits for its handshake; a non-empty
  /// `store_dir` gives the workers an artifact store there. Throws
  /// std::runtime_error when it does not come up.
  explicit ClusterProcess(const std::string& store_dir);
  ~ClusterProcess();

  ClusterProcess(const ClusterProcess&) = delete;
  ClusterProcess& operator=(const ClusterProcess&) = delete;

  /// SIGTERM the coordinator (it drains and stops its workers), then reap
  /// it. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::vector<Worker>& workers() const { return workers_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Worker> workers_;
};

/// What /proc says about one process.
struct ProcSample {
  double cpu_ms = 0;            ///< user + system CPU time so far
  std::uint64_t io_bytes = 0;   ///< rchar + wchar so far
  double peak_rss_mb = 0;       ///< VmHWM
};

[[nodiscard]] ProcSample sample_process(pid_t pid);

/// Value of `key=<number>` on the first line of `text` that starts with
/// `line_prefix` (the MetricsSnapshot text format); 0 when absent.
[[nodiscard]] double metric_counter(std::string_view text,
                                    std::string_view line_prefix,
                                    std::string_view key);

}  // namespace e2e
