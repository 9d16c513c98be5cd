#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "cpu/counting.hpp"
#include "gen/generators.hpp"
#include "gen/rng.hpp"

namespace e2e {

using trico::service::Backend;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"small-hot", 4, Backend::kAuto, false, false},
      {"scatter-hot", 2, Backend::kAuto, false, false},
      {"cold-graphs", 2, Backend::kAuto, false, true},
      {"churn-store", 2, Backend::kCpuHybrid, true, true},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

constexpr std::size_t kSmallGraphs = 64;
constexpr std::size_t kChurnGraphs = 144;
constexpr double kChurnNewShare = 0.10;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  return trico::gen::splitmix64(
      trico::gen::splitmix64(seed ^ (stream * 0x9e3779b97f4a7c15ull)) + index);
}

/// Graph shapes are fixed: every seed measures the same sizes and
/// structure. The seed relabels each base and drives the request stream.
constexpr std::uint64_t kShapeSeed = 0x7269636f;

/// Vertex relabeling of `graph` by a seeded permutation: same count, new
/// content key.
trico::EdgeList permute(const trico::EdgeList& graph, std::uint64_t salt) {
  const trico::VertexId n = graph.num_vertices();
  std::vector<trico::VertexId> relabel(n);
  std::iota(relabel.begin(), relabel.end(), trico::VertexId{0});
  trico::gen::Rng rng(salt);
  for (trico::VertexId i = n; i > 1; --i) {
    std::swap(relabel[i - 1], relabel[rng.next_below(i)]);
  }
  std::vector<trico::Edge> slots(graph.edges().begin(), graph.edges().end());
  for (trico::Edge& e : slots) {
    e.u = relabel[e.u];
    e.v = relabel[e.v];
  }
  return trico::EdgeList(std::move(slots), n);
}

/// Builds `count` bases, each generated from the fixed shape seed and
/// relabeled by `seed`, on up to four threads (generation plus the
/// count_forward truth dominate a run's fixed cost).
std::vector<Input> build_bases(
    std::size_t count, std::uint64_t seed,
    const std::function<trico::EdgeList(std::size_t)>& make) {
  std::vector<Input> bases(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      const trico::EdgeList shape = make(i);
      bases[i].truth = trico::cpu::count_forward(shape);
      bases[i].graph = std::make_shared<const trico::EdgeList>(
          permute(shape, derive(seed, 7, i)));
    }
  };
  std::vector<std::thread> threads;
  const std::size_t n = std::min<std::size_t>(4, count);
  for (std::size_t t = 1; t < n; ++t) threads.emplace_back(work);
  work();
  for (std::thread& thread : threads) thread.join();
  return bases;
}

}  // namespace

Workload::Workload(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  if (spec.name == "small-hot") {
    bases_ = build_bases(kSmallGraphs, seed, [](std::size_t i) {
      return trico::gen::erdos_renyi(
          static_cast<trico::VertexId>(1000 + 40 * i), 4000 + 500 * i,
          derive(kShapeSeed, 1, i));
    });
  } else if (spec.name == "scatter-hot") {
    // The livejournal shape at a third of its scale.
    bases_ = build_bases(1, seed, [](std::size_t) {
      trico::gen::SocialParams params;
      params.n = 20000;
      params.attach = 8;
      params.closure_rounds = 2.0;
      params.closure_prob = 0.5;
      return trico::gen::social(params, derive(kShapeSeed, 2, 0));
    });
  } else if (spec.name == "cold-graphs") {
    bases_ = build_bases(2, seed, [](std::size_t i) {
      if (i == 0) {
        // The suite's kronecker-18 stand-in.
        trico::gen::RmatParams params;
        params.scale = 13;
        params.edge_factor = 24;
        return trico::gen::rmat(params, derive(kShapeSeed, 3, 0));
      }
      trico::gen::SocialParams params;
      params.n = 15000;
      params.attach = 8;
      params.closure_rounds = 2.0;
      params.closure_prob = 0.5;
      return trico::gen::social(params, derive(kShapeSeed, 3, 1));
    });
  } else if (spec.name == "churn-store") {
    bases_ = build_bases(kChurnGraphs, seed, [](std::size_t i) {
      trico::gen::RmatParams params;
      params.scale = 12;
      params.edge_factor = 16;
      return trico::gen::rmat(params, derive(kShapeSeed, 4, i));
    });
    zipf_cdf_.resize(kChurnGraphs);
    double total = 0;
    for (std::size_t k = 0; k < kChurnGraphs; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      zipf_cdf_[k] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  } else {
    throw std::invalid_argument("unknown workload: " + spec.name);
  }
}

Input Workload::item(std::uint64_t index) const {
  if (spec_.name == "cold-graphs") {
    const Input& base = bases_[index % 2];
    return {std::make_shared<const trico::EdgeList>(
                permute(*base.graph, derive(seed_, 5, index))),
            base.truth};
  }
  if (spec_.name == "churn-store") {
    trico::gen::Rng rng(derive(seed_, 6, index));
    const double u = rng.next_double();
    const std::size_t pick = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    const Input& base = bases_[std::min(pick, bases_.size() - 1)];
    if (rng.bernoulli(kChurnNewShare)) {
      return {std::make_shared<const trico::EdgeList>(
                  permute(*base.graph, rng.next())),
              base.truth};
    }
    return base;
  }
  return bases_[index % bases_.size()];
}

Feed::Feed(const Workload& workload) : workload_(workload) {
  if (workload.spec().producer) producer_ = std::thread([this] { produce(); });
}

Feed::~Feed() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (producer_.joinable()) producer_.join();
}

void Feed::produce() {
  constexpr std::size_t kAhead = 8;
  try {
    for (;;) {
      std::uint64_t index = 0;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || queue_.size() < kAhead; });
        if (stop_) return;
        index = produced_++;
      }
      Input input = workload_.item(index);
      {
        std::lock_guard lock(mutex_);
        queue_.emplace_back(index, std::move(input));
      }
      cv_.notify_all();
    }
  } catch (...) {
    {
      std::lock_guard lock(mutex_);
      error_ = std::current_exception();
    }
    cv_.notify_all();
  }
}

std::pair<std::uint64_t, Input> Feed::next() {
  if (!producer_.joinable()) {
    const std::uint64_t index = cursor_++;
    return {index, workload_.item(index)};
  }
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return !queue_.empty() || error_ != nullptr; });
  if (queue_.empty()) std::rethrow_exception(error_);
  auto front = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  cv_.notify_all();
  return front;
}

}  // namespace e2e
