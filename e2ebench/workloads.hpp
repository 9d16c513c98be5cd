// The four end-to-end workloads and their seeded inputs.
//
// A workload is a deterministic request stream: item(i) is the graph of
// the i-th request and its known triangle count, a pure function of the
// workload, the seed and i. Clients draw stream positions in order, so a
// run's requests can be regenerated after the cluster stops — the trace
// replay depends on that. Every truth is cpu::count_forward of a base
// graph; a vertex permutation keeps the count and changes the content key.
// The graph shapes do not depend on the seed, only their vertex labels
// and the stream do, so runs with different seeds measure the same work.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/edge_list.hpp"
#include "service/request.hpp"

namespace e2e {

using GraphPtr = std::shared_ptr<const trico::EdgeList>;

/// One request's graph and the count it must return.
struct Input {
  GraphPtr graph;
  trico::TriangleCount truth = 0;
};

struct WorkloadSpec {
  std::string name;
  int clients = 1;  ///< closed-loop client threads, one connection each
  trico::service::Backend backend = trico::service::Backend::kAuto;
  bool store = false;     ///< workers run with an artifact store
  bool producer = false;  ///< item() is costly: a producer thread runs ahead
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

class Workload {
 public:
  /// Generates the base graphs and their truths (before any cluster runs).
  Workload(const WorkloadSpec& spec, std::uint64_t seed);

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The distinct inputs the warmup pass sends once each.
  [[nodiscard]] const std::vector<Input>& warmup() const { return bases_; }

  /// Request at stream position `index`.
  [[nodiscard]] Input item(std::uint64_t index) const;

 private:
  WorkloadSpec spec_;
  std::uint64_t seed_;
  std::vector<Input> bases_;
  std::vector<double> zipf_cdf_;  ///< churn-store base popularity
};

/// Hands out stream positions to the clients. Cheap streams compute items
/// on the calling thread; costly ones come from a producer thread that
/// keeps a bounded queue filled ahead of the clients.
class Feed {
 public:
  explicit Feed(const Workload& workload);
  ~Feed();

  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  /// Next stream position and its input. Blocks while the producer lags;
  /// rethrows a failure of the producer.
  std::pair<std::uint64_t, Input> next();

 private:
  void produce();

  const Workload& workload_;
  std::atomic<std::uint64_t> cursor_{0};  ///< inline streams

  std::mutex mutex_;  ///< guards the producer queue below
  std::condition_variable cv_;
  std::deque<std::pair<std::uint64_t, Input>> queue_;
  std::uint64_t produced_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;  ///< why the producer stopped early
  std::thread producer_;  ///< declared last: uses every member above
};

}  // namespace e2e
