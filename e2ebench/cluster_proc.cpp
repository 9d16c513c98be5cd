#include "cluster_proc.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cluster/coordinator.hpp"
#include "transport/server.hpp"
#include "util/io.hpp"

#ifndef TRICO_CLI_PATH
#error "TRICO_CLI_PATH must be defined by the build (path to trico_cli)"
#endif

namespace e2e {

namespace {

int g_signal_pipe[2] = {-1, -1};

extern "C" void on_terminate_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

std::string self_exe() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) throw std::runtime_error("readlink /proc/self/exe failed");
  return std::string(buffer, static_cast<std::size_t>(n));
}

/// Waits for `pid` to exit for up to `timeout`; true when it was reaped.
bool reap_within(pid_t pid, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

int run_coordinator_role(int argc, char** argv) {
  trico::cluster::CoordinatorOptions options;
  options.supervisor.cli_path = TRICO_CLI_PATH;
  options.supervisor.num_workers = kWorkers;
  options.supervisor.worker_args = {"--catalog-mb", std::to_string(kCatalogMb)};
  // After `--role coordinator`: nothing, or `--store DIR`.
  if (argc == 5 && std::strcmp(argv[3], "--store") == 0) {
    options.supervisor.worker_args.push_back("--store");
    options.supervisor.worker_args.push_back(argv[4]);
  } else if (argc != 3) {
    std::cerr << "coordinator role: usage: --role coordinator [--store DIR]\n";
    return 2;
  }

  if (::pipe(g_signal_pipe) < 0) {
    std::cerr << "coordinator role: pipe: " << std::strerror(errno) << "\n";
    return 1;
  }
  std::signal(SIGTERM, on_terminate_signal);
  std::signal(SIGINT, on_terminate_signal);

  trico::cluster::Coordinator coordinator(options);
  coordinator.start();
  trico::transport::Server server(coordinator, {});
  server.start();
  std::cout << "LISTENING " << server.port() << "\nWORKERS";
  for (const auto& worker : coordinator.supervisor().workers()) {
    std::cout << " " << worker.pid << ":" << worker.port;
  }
  std::cout << "\n" << std::flush;
  // The handshake pipe closes on the bench side; nothing else may go there.
  const int devnull = ::open("/dev/null", O_WRONLY);
  if (devnull >= 0) {
    ::dup2(devnull, STDOUT_FILENO);
    ::close(devnull);
  }

  char byte = 0;
  (void)trico::util::io::read_full(g_signal_pipe[0], &byte, 1);
  server.drain();
  server.stop();
  coordinator.stop();
  return 0;
}

ClusterProcess::ClusterProcess(const std::string& store_dir) {
  std::vector<std::string> args = {self_exe(), "--role", "coordinator"};
  if (!store_dir.empty()) {
    args.push_back("--store");
    args.push_back(store_dir);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) < 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Only async-signal-safe calls until exec. The coordinator drains when
    // the bench dies, so no worker outlives an aborted run.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(1);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;

  std::string buffer;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool have_workers = false;
  try {
    while (!have_workers) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) throw std::runtime_error("coordinator handshake timed out");
      pollfd pfd{fds[0], POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) continue;
      char chunk[512];
      const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("coordinator exited before its handshake");
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t eol = 0;
      while ((eol = buffer.find('\n')) != std::string::npos) {
        std::istringstream line(buffer.substr(0, eol));
        buffer.erase(0, eol + 1);
        std::string tag;
        line >> tag;
        if (tag == "LISTENING") {
          line >> port_;
        } else if (tag == "WORKERS") {
          std::string entry;
          while (line >> entry) {
            const std::size_t colon = entry.find(':');
            Worker worker;
            worker.pid = static_cast<pid_t>(std::stol(entry.substr(0, colon)));
            worker.port = static_cast<std::uint16_t>(
                std::stoul(entry.substr(colon + 1)));
            workers_.push_back(worker);
          }
          have_workers = true;
        }
      }
    }
  } catch (...) {
    ::close(fds[0]);
    stop();
    throw;
  }
  ::close(fds[0]);
  if (port_ == 0 || workers_.empty()) {
    stop();
    throw std::runtime_error("coordinator handshake incomplete");
  }
}

ClusterProcess::~ClusterProcess() { stop(); }

void ClusterProcess::stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  if (!reap_within(pid_, std::chrono::seconds(30))) {
    // A wedged coordinator: kill it and its workers outright. The bench is
    // the workers' subreaper, so they can be reaped here too.
    ::kill(pid_, SIGKILL);
    reap_within(pid_, std::chrono::seconds(5));
    for (const Worker& worker : workers_) {
      ::kill(worker.pid, SIGKILL);
      reap_within(worker.pid, std::chrono::seconds(5));
    }
  }
  pid_ = -1;
}

ProcSample sample_process(pid_t pid) {
  ProcSample sample;
  const std::string base = "/proc/" + std::to_string(pid) + "/";
  {
    std::ifstream stat(base + "stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) {
      throw std::runtime_error("unreadable " + base + "stat");
    }
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    // Fields after the command name start at 3 (state); utime is 14.
    for (int index = 3; index <= 15 && fields >> field; ++index) {
      if (index == 14) utime = std::stod(field);
      if (index == 15) stime = std::stod(field);
    }
    sample.cpu_ms = (utime + stime) * 1000.0 /
                    static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  {
    std::ifstream io(base + "io");
    std::string key;
    std::uint64_t value = 0;
    while (io >> key >> value) {
      if (key == "rchar:" || key == "wchar:") sample.io_bytes += value;
    }
  }
  {
    std::ifstream status(base + "status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        sample.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;
      }
    }
  }
  return sample;
}

double metric_counter(std::string_view text, std::string_view line_prefix,
                      std::string_view key) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    if (line.substr(0, line_prefix.size()) == line_prefix) {
      std::string needle = " ";
      needle.append(key).push_back('=');
      const std::size_t at = line.find(needle);
      if (at == std::string_view::npos) return 0;
      return std::strtod(std::string(line.substr(at + needle.size())).c_str(),
                         nullptr);
    }
    pos = eol + 1;
  }
  return 0;
}

}  // namespace e2e
