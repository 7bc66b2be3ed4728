// perfbench — one workload of the serving benchmark, driven from outside.
//
// The binary builds one of three serving stacks from generated inputs, runs
// closed-loop clients (plus, on mutate-50k, an open-loop writer) for a
// measured window, checks a seeded sample of the answers against a direct
// engine oracle, and writes raw records — setups, per-request samples,
// spans, cache counters, update receipts — to the --out file. run.py turns
// the records into metrics; README.md documents the workloads.
//
// Tracing is done here, around calls into each layer's public functions:
// a QueryEngine decorator times engine calls (the `engine` span), the
// service's own wait/total split gives `service.wait` and
// `service.dispatch`, and the net client's Send is timed separately. With
// --trace 1 the window is split in two halves: the first runs untraced
// (the decorator only forwards), the second records spans, so the run
// also measures what tracing costs.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/column_cache.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/csrplus_engine.h"
#include "core/dynamic_engine.h"
#include "core/topk.h"
#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/normalize.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire_protocol.h"
#include "obs/stats.h"
#include "service/engine_registry.h"
#include "service/query_service.h"

namespace {

using namespace csrplus;
using linalg::DenseMatrix;
using linalg::Index;

// ---------------------------------------------------------------------------
// Records written to --out.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

// Thread budget of one workload. Load generators (clients + writer) may not
// exceed the CPUs this process may run on; run.py prints the header line.
struct Budget {
  int clients = 0;
  int writers = 0;
  int net_workers = 0;
  int pool_threads = 0;
};

enum class Phase { kWarmup, kMeasured, kTraced };

struct Sample {
  int client = 0;
  uint64_t start = 0;  // client-observed, obs::NowMicros
  uint64_t end = 0;
  bool ok = false;
  uint64_t wait = 0;   // service-reported submit -> dispatch
  uint64_t total = 0;  // service-reported submit -> completion
  int batch_requests = 0;
  int64_t batch_queries = 0;
  uint64_t send = 0;   // socket only, traced half: Client::Send duration
  bool traced = false;
};

struct EngineSpan {
  uint64_t start = 0;
  uint64_t end = 0;
  int64_t columns = 0;
};

struct SetupTiming {
  double graph_s = 0.0;
  double svd_s = 0.0;
  double subspace_s = 0.0;
  double serve_start_s = 0.0;
  double total_s = 0.0;
};

struct UpdateRecord {
  uint64_t due = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  bool ok = false;
  int effective = 0;
  int64_t touched = 0;
  bool rebuilt = false;
};

struct Window {
  uint64_t open = 0;
  uint64_t mid = 0;  // trace runs: recording starts here
  uint64_t close = 0;
};

struct Records {
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<SetupTiming> setups;
  Window window;
  std::vector<Sample> samples;
  std::vector<EngineSpan> engine_spans;
  // Cache counters at window open, mid and close.
  std::vector<cache::ColumnCacheStats> cache;
  std::vector<UpdateRecord> updates;
  int64_t oracle_checked = 0;
  int64_t oracle_mismatches = 0;
  double response_bytes = 0.0;

  template <typename T>
  void Meta(const std::string& key, const T& value) {
    if constexpr (std::is_arithmetic_v<T>) {
      meta.emplace_back(key, std::to_string(value));
    } else {
      meta.emplace_back(key, std::string(value));
    }
  }
};

uint64_t Now() { return obs::NowMicros(); }

double Seconds(uint64_t from, uint64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

void SleepUntil(uint64_t micros) {
  const uint64_t now = Now();
  if (micros > now) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros - now));
  }
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

// The `engine` span: times every call the service makes into the engine.
// Forwards the engine's whole advertised contract (fingerprint, cost,
// accuracy) so the service, cache and tier logic see the wrapped engine.
class TimedEngine final : public core::QueryEngine {
 public:
  explicit TimedEngine(std::shared_ptr<const core::QueryEngine> inner)
      : inner_(std::move(inner)) {}

  void SetRecording(bool on) { recording_.store(on); }
  std::vector<EngineSpan> Spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override {
    const uint64_t start = Now();
    Result<DenseMatrix> result = inner_->MultiSourceQuery(queries);
    Record(start, static_cast<int64_t>(queries.size()));
    return result;
  }
  Status SingleSourceQueryInto(Index query,
                               std::vector<double>* out) const override {
    const uint64_t start = Now();
    Status status = inner_->SingleSourceQueryInto(query, out);
    Record(start, 1);
    return status;
  }
  Index NumNodes() const override { return inner_->NumNodes(); }
  std::string_view Name() const override { return inner_->Name(); }
  uint64_t StateFingerprint() const override {
    return inner_->StateFingerprint();
  }
  core::CostModel EstimateCost(Index batch_queries) const override {
    return inner_->EstimateCost(batch_queries);
  }
  core::AccuracyTag Accuracy() const override { return inner_->Accuracy(); }

 private:
  void Record(uint64_t start, int64_t columns) const {
    if (!recording_.load()) return;
    const uint64_t end = Now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({start, end, columns});
  }

  std::shared_ptr<const core::QueryEngine> inner_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  mutable std::vector<EngineSpan> spans_;
};

// Zipf(1.0) over ranks 0..universe-1; rank k maps to nodes[k], a seeded
// permutation, so the hot set moves with the seed.
class Zipf {
 public:
  Zipf(std::vector<Index> nodes) : nodes_(std::move(nodes)) {
    double total = 0.0;
    for (std::size_t k = 1; k <= nodes_.size(); ++k) {
      total += 1.0 / static_cast<double>(k);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  Index Sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform());
    const auto k = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), nodes_.size() - 1);
    return nodes_[k];
  }

 private:
  std::vector<Index> nodes_;
  std::vector<double> cdf_;
};

std::vector<Index> ShuffledRange(Index lo, Index hi, Rng& rng) {
  std::vector<Index> nodes;
  for (Index v = lo; v < hi; ++v) nodes.push_back(v);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.Below(i)]);
  }
  return nodes;
}

// `count` distinct nodes drawn by `draw`.
std::vector<Index> DistinctQueries(std::size_t count,
                                   const std::function<Index()>& draw) {
  std::vector<Index> queries;
  while (queries.size() < count) {
    const Index q = draw();
    if (std::find(queries.begin(), queries.end(), q) == queries.end()) {
      queries.push_back(q);
    }
  }
  return queries;
}

// Keeps a seeded uniform sample of k items from a stream (reservoir).
template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t k, uint64_t seed) : k_(k), rng_(seed) {}
  // True when the next item should be kept; *slot is where it goes.
  bool Offer(std::size_t* slot) {
    ++seen_;
    if (items_.size() < k_) {
      items_.emplace_back();
      *slot = items_.size() - 1;
      return true;
    }
    const uint64_t j = rng_.Below(seen_);
    if (j >= k_) return false;
    *slot = static_cast<std::size_t>(j);
    return true;
  }
  std::vector<T>& items() { return items_; }

 private:
  std::size_t k_;
  Rng rng_;
  uint64_t seen_ = 0;
  std::vector<T> items_;
};

// ---------------------------------------------------------------------------
// Closed-loop load shared by the workloads.

using CallFn = std::function<void(int client, Phase phase, Sample* sample)>;

// Runs `clients` closed-loop threads. Each first sends `warmup` requests
// (not recorded), then all start the measured window together and keep
// sending until it closes; requests that end after the close are still
// recorded and run.py keeps only those completed inside the window.
// `on_open` runs on the main thread as the window opens (starts the
// writer); `cache` and `engine` (may be null) are snapshotted / toggled at
// window boundaries.
void RunClosedLoop(const Options& options, int clients, int warmup,
                   const CallFn& call, const std::function<void()>& on_open,
                   cache::ColumnCache* cache, TimedEngine* engine,
                   Records* records) {
  std::vector<std::vector<Sample>> per_client(
      static_cast<std::size_t>(clients));
  std::latch warmed(clients);
  std::latch go(1);
  Window window;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < warmup; ++i) {
        Sample sample;
        call(c, Phase::kWarmup, &sample);
      }
      warmed.count_down();
      go.wait();
      auto& mine = per_client[static_cast<std::size_t>(c)];
      for (;;) {
        Sample sample;
        sample.client = c;
        sample.start = Now();
        if (sample.start >= window.close) break;
        sample.traced = options.trace && sample.start >= window.mid;
        call(c, sample.traced ? Phase::kTraced : Phase::kMeasured, &sample);
        sample.end = Now();
        mine.push_back(sample);
      }
    });
  }
  warmed.wait();
  const uint64_t length = static_cast<uint64_t>(options.seconds * 1e6);
  window.open = Now();
  window.close = window.open + length;
  window.mid = options.trace ? window.open + length / 2 : window.close;
  if (cache != nullptr) records->cache.push_back(cache->Stats());
  if (on_open) on_open();
  go.count_down();
  if (options.trace) {
    SleepUntil(window.mid);
    if (cache != nullptr) records->cache.push_back(cache->Stats());
    if (engine != nullptr) engine->SetRecording(true);
  }
  SleepUntil(window.close);
  if (cache != nullptr) records->cache.push_back(cache->Stats());
  if (engine != nullptr) engine->SetRecording(false);
  for (auto& t : threads) t.join();
  records->window = window;
  for (auto& mine : per_client) {
    records->samples.insert(records->samples.end(), mine.begin(), mine.end());
  }
  if (engine != nullptr) records->engine_spans = engine->Spans();
}

void FillFromResponse(const service::QueryResponse& response, Sample* s) {
  s->ok = response.status.ok();
  s->wait = response.wait_micros;
  s->total = response.total_micros;
  s->batch_requests = response.batch_requests;
  s->batch_queries = response.batch_queries;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// search-200k: the paper's multi-source top-k search at ROADMAP scale.

constexpr Index kSearchNodes = 200000;
constexpr Index kSearchEdgesPerNode = 5;  // Barabási–Albert, ~1M edges
constexpr Index kSearchRank = 32;
constexpr std::size_t kSearchQueries = 16;
constexpr Index kSearchTopK = 10;
constexpr int kSearchClients = 2;
constexpr int kSearchWarmup = 2;
constexpr int kSearchSetups = 1;
constexpr std::size_t kSearchOracleSamples = 6;  // per client

void RunSearch(const Options& options, Records* records) {
  struct Kept {
    std::vector<Index> queries;
    std::vector<std::vector<core::ScoredNode>> topk;
  };
  std::shared_ptr<const core::CsrPlusEngine> engine;
  std::shared_ptr<TimedEngine> timed;
  std::unique_ptr<service::QueryService> service;
  for (int i = 0; i < kSearchSetups; ++i) {
    service.reset();
    timed.reset();
    engine.reset();
    SetupTiming t;
    const uint64_t t0 = Now();
    graph::Graph g = Must(
        graph::BarabasiAlbert(kSearchNodes, kSearchEdgesPerNode, options.seed),
        "generate graph");
    const uint64_t t1 = Now();
    core::CsrPlusOptions engine_options;
    engine_options.rank = kSearchRank;
    engine = std::make_shared<const core::CsrPlusEngine>(
        Must(core::CsrPlusEngine::Precompute(g, engine_options), "precompute"));
    const uint64_t t2 = Now();
    std::shared_ptr<const core::QueryEngine> served = engine;
    if (options.trace) {
      timed = std::make_shared<TimedEngine>(engine);
      served = timed;
    }
    service = std::make_unique<service::QueryService>(served);
    const uint64_t t3 = Now();
    t.graph_s = Seconds(t0, t1);
    t.svd_s = engine->stats().svd_seconds;
    t.subspace_s = engine->stats().subspace_seconds;
    t.serve_start_s = Seconds(t2, t3);
    t.total_s = Seconds(t0, t3);
    records->setups.push_back(t);
  }
  records->Meta("n", kSearchNodes);
  records->Meta("rank", kSearchRank);
  records->Meta("transport", "in-process");

  std::vector<Rng> streams;
  std::vector<Reservoir<Kept>> kept;
  for (int c = 0; c < kSearchClients; ++c) {
    streams.push_back(Rng::ForBlock(options.seed, 100 + c));
    kept.emplace_back(kSearchOracleSamples,
                      Rng::ForBlock(options.seed, 200 + c).Next());
  }
  const CallFn call = [&](int c, Phase phase, Sample* s) {
    Rng& rng = streams[static_cast<std::size_t>(c)];
    service::QueryRequest request;
    request.queries = DistinctQueries(kSearchQueries, [&] {
      return static_cast<Index>(rng.Below(kSearchNodes));
    });
    request.top_k = kSearchTopK;
    const std::vector<Index> queries = request.queries;
    service::QueryResponse response = service->Query(std::move(request));
    FillFromResponse(response, s);
    std::size_t slot = 0;
    if (phase != Phase::kWarmup && response.status.ok() &&
        kept[static_cast<std::size_t>(c)].Offer(&slot)) {
      kept[static_cast<std::size_t>(c)].items()[slot] =
          Kept{queries, std::move(response.topk)};
    }
  };
  RunClosedLoop(options, kSearchClients, kSearchWarmup, call, nullptr, nullptr,
                timed.get(), records);
  service->Shutdown();

  // Oracle: the engine's own block, then core::TopKOfColumn.
  for (auto& reservoir : kept) {
    for (const Kept& k : reservoir.items()) {
      const DenseMatrix block =
          Must(engine->MultiSourceQuery(k.queries), "oracle query");
      for (std::size_t j = 0; j < k.queries.size(); ++j) {
        ++records->oracle_checked;
        const auto expect = core::TopKOfColumn(block, static_cast<Index>(j),
                                               kSearchTopK, {k.queries[j]});
        if (j >= k.topk.size() || k.topk[j] != expect) {
          ++records->oracle_mismatches;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// columns-socket-20k: full columns over loopback through registry + cache.

constexpr Index kColumnsNodes = 20000;
constexpr Index kColumnsEdgesPerNode = 5;
constexpr Index kColumnsRank = 32;
constexpr std::size_t kColumnsQueries = 4;
constexpr Index kColumnsUniverse = 512;
constexpr int64_t kColumnsCacheColumns = 64;  // universe is 8x this
constexpr int kColumnsClients = 2;
constexpr int kColumnsWarmup = 200;
constexpr int kColumnsSetups = 3;
constexpr std::size_t kColumnsOracleSamples = 4;  // per client
const char kTenant[] = "g";

void RunColumns(const Options& options, Records* records) {
  struct Stack {
    std::unique_ptr<service::EngineRegistry> registry;
    std::unique_ptr<net::ServerOptions::Route> route;
    std::unique_ptr<net::Server> server;
    std::vector<net::Client> clients;
    std::shared_ptr<const core::CsrPlusEngine> engine;
    std::shared_ptr<TimedEngine> timed;

    ~Stack() {
      clients.clear();
      if (server) server->Shutdown();
      if (registry) registry->Shutdown();
    }
  };
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kColumnsSetups; ++i) {
    stack.reset();
    stack = std::make_unique<Stack>();
    SetupTiming t;
    const uint64_t t0 = Now();
    graph::Graph g =
        Must(graph::BarabasiAlbert(kColumnsNodes, kColumnsEdgesPerNode,
                                   options.seed),
             "generate graph");
    const uint64_t t1 = Now();
    core::CsrPlusOptions engine_options;
    engine_options.rank = kColumnsRank;
    stack->engine = std::make_shared<const core::CsrPlusEngine>(
        Must(core::CsrPlusEngine::Precompute(g, engine_options), "precompute"));
    const uint64_t t2 = Now();
    std::shared_ptr<const core::QueryEngine> served = stack->engine;
    if (options.trace) {
      stack->timed = std::make_shared<TimedEngine>(stack->engine);
      served = stack->timed;
    }
    stack->registry = std::make_unique<service::EngineRegistry>();
    service::TenantOptions tenant;
    tenant.cache_capacity_bytes = kColumnsCacheColumns * kColumnsNodes *
                                  static_cast<int64_t>(sizeof(double));
    // One LRU over all columns: the hit rate then depends only on the Zipf
    // ranks, not on how the seed's hot nodes happen to hash across shards.
    tenant.cache_shards = 1;
    MustOk(stack->registry->AddTenantWithEngine(kTenant, served, tenant),
           "add tenant");
    stack->route = std::make_unique<net::ServerOptions::Route>();
    stack->route->service = stack->registry->Find(kTenant);
    net::ServerOptions server_options;
    server_options.num_workers = 1;
    service::EngineRegistry* registry = stack->registry.get();
    const net::ServerOptions::Route* route = stack->route.get();
    server_options.router =
        [registry, route](const std::string& graph_id)
        -> const net::ServerOptions::Route* {
      return registry->Route(graph_id) == nullptr ? nullptr : route;
    };
    stack->server = std::make_unique<net::Server>(nullptr, server_options);
    MustOk(stack->server->Start(), "start server");
    for (int c = 0; c < kColumnsClients; ++c) {
      stack->clients.push_back(
          Must(net::Client::Connect(stack->server->address()), "connect"));
    }
    const uint64_t t3 = Now();
    t.graph_s = Seconds(t0, t1);
    t.svd_s = stack->engine->stats().svd_seconds;
    t.subspace_s = stack->engine->stats().subspace_seconds;
    t.serve_start_s = Seconds(t2, t3);
    t.total_s = Seconds(t0, t3);
    records->setups.push_back(t);
  }
  records->Meta("n", kColumnsNodes);
  records->Meta("rank", kColumnsRank);
  records->Meta("transport", "socket");

  Rng universe_rng = Rng::ForBlock(options.seed, 300);
  const Zipf zipf(ShuffledRange(0, kColumnsUniverse, universe_rng));
  struct Kept {
    std::vector<int64_t> queries;
    net::WireResponse response;
  };
  std::vector<Rng> streams;
  std::vector<Reservoir<Kept>> kept;
  for (int c = 0; c < kColumnsClients; ++c) {
    streams.push_back(Rng::ForBlock(options.seed, 100 + c));
    kept.emplace_back(kColumnsOracleSamples,
                      Rng::ForBlock(options.seed, 200 + c).Next());
  }
  const CallFn call = [&](int c, Phase phase, Sample* s) {
    Rng& rng = streams[static_cast<std::size_t>(c)];
    net::Client& client = stack->clients[static_cast<std::size_t>(c)];
    net::WireRequest request;
    request.graph_id = kTenant;
    for (Index q : DistinctQueries(kColumnsQueries,
                                   [&] { return zipf.Sample(rng); })) {
      request.queries.push_back(q);
    }
    Result<net::WireResponse> response = [&]() -> Result<net::WireResponse> {
      if (phase != Phase::kTraced) return client.Call(request);
      const uint64_t send_start = Now();
      const Status sent = client.Send(request);
      s->send = Now() - send_start;
      if (!sent.ok()) return sent;
      return client.Receive();
    }();
    if (!response.ok()) {
      s->ok = false;
      return;
    }
    s->ok = response->ok();
    s->wait = response->wait_micros;
    s->total = response->total_micros;
    s->batch_requests = static_cast<int>(response->batch_requests);
    s->batch_queries = response->batch_queries;
    std::size_t slot = 0;
    if (phase != Phase::kWarmup && s->ok &&
        kept[static_cast<std::size_t>(c)].Offer(&slot)) {
      kept[static_cast<std::size_t>(c)].items()[slot] =
          Kept{request.queries, std::move(*response)};
    }
  };
  cache::ColumnCache* cache = stack->registry->TenantCache(kTenant);
  RunClosedLoop(options, kColumnsClients, kColumnsWarmup, call, nullptr, cache,
                stack->timed.get(), records);

  // Oracle: every sampled socket column is bit-identical to the engine's
  // single-source answer.
  std::vector<double> expect;
  double bytes = 0.0;
  int64_t responses = 0;
  for (auto& reservoir : kept) {
    for (const Kept& k : reservoir.items()) {
      std::string frame;
      net::AppendResponseFrame(k.response, &frame);
      bytes += static_cast<double>(frame.size());
      ++responses;
      const DenseMatrix& scores = k.response.scores;
      for (std::size_t j = 0; j < k.queries.size(); ++j) {
        ++records->oracle_checked;
        MustOk(stack->engine->SingleSourceQueryInto(k.queries[j], &expect),
               "oracle query");
        bool same = scores.rows() == kColumnsNodes &&
                    scores.cols() == static_cast<Index>(k.queries.size());
        for (Index v = 0; same && v < kColumnsNodes; ++v) {
          same = SameBits(scores(v, static_cast<Index>(j)),
                          expect[static_cast<std::size_t>(v)]);
        }
        if (!same) ++records->oracle_mismatches;
      }
    }
  }
  records->response_bytes = responses > 0 ? bytes / responses : 0.0;
}

// ---------------------------------------------------------------------------
// mutate-50k: reads through a cached dynamic tenant beside a live writer.

constexpr Index kMutateBlocks = 625;
constexpr Index kMutateBlockSize = 80;  // n = 50,000
constexpr Index kMutateNodes = kMutateBlocks * kMutateBlockSize;
constexpr Index kMutateDegree = 8;
constexpr Index kMutateRank = 16;
constexpr std::size_t kMutateQueries = 8;
constexpr Index kMutateTopK = 10;
constexpr int kMutateBatch = 8;
constexpr double kMutatePeriodS = 1.0;
constexpr int kMutateRebuildBudget = 4096;
constexpr int kMutateClients = 2;
constexpr int kMutateWarmup = 50;
constexpr int kMutateSetups = 3;
constexpr std::size_t kMutateOracleSources = 24;

graph::Graph Communities(uint64_t seed) {
  graph::GraphBuilder builder(kMutateNodes);
  Rng rng = Rng::ForBlock(seed, 400);
  for (Index block = 0; block < kMutateBlocks; ++block) {
    const Index lo = block * kMutateBlockSize;
    for (int64_t added = 0; added < kMutateDegree * kMutateBlockSize;) {
      const Index u = lo + static_cast<Index>(rng.Below(kMutateBlockSize));
      const Index v = lo + static_cast<Index>(rng.Below(kMutateBlockSize));
      if (u == v) continue;
      builder.AddEdge(u, v);
      ++added;
    }
  }
  return Must(builder.Build(), "build communities");
}

// The writer's whole batch sequence, fixed by the seed: inserts inside the
// written community (block 0) alternate with deletes of edges inserted
// earlier.
std::vector<std::vector<core::EdgeUpdate>> WriterBatches(uint64_t seed,
                                                         int count) {
  Rng rng = Rng::ForBlock(seed, 500);
  std::vector<std::pair<Index, Index>> inserted;
  std::vector<std::vector<core::EdgeUpdate>> batches;
  for (int b = 0; b < count; ++b) {
    std::vector<core::EdgeUpdate> batch;
    while (static_cast<int>(batch.size()) < kMutateBatch) {
      if (batch.size() % 2 == 1 && !inserted.empty()) {
        const std::size_t pick = rng.Below(inserted.size());
        const auto [u, v] = inserted[pick];
        inserted.erase(inserted.begin() + static_cast<int64_t>(pick));
        batch.push_back(core::EdgeUpdate::Delete(u, v));
        continue;
      }
      const Index u = static_cast<Index>(rng.Below(kMutateBlockSize));
      const Index v = static_cast<Index>(rng.Below(kMutateBlockSize));
      if (u == v) continue;
      batch.push_back(core::EdgeUpdate::Insert(u, v));
      inserted.emplace_back(u, v);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void RunMutate(const Options& options, Records* records) {
  const int64_t column_bytes =
      kMutateNodes * static_cast<int64_t>(sizeof(double));
  const Index universe = 2 * kMutateBlockSize;  // the hot universe
  std::unique_ptr<service::EngineRegistry> registry;
  for (int i = 0; i < kMutateSetups; ++i) {
    registry.reset();
    SetupTiming t;
    const uint64_t t0 = Now();
    graph::Graph g = Communities(options.seed);
    const uint64_t t1 = Now();
    registry = std::make_unique<service::EngineRegistry>();
    service::TenantOptions tenant;
    tenant.kind = service::EngineKind::kDynamic;
    tenant.config.rank = kMutateRank;
    tenant.config.max_incremental_updates = kMutateRebuildBudget;
    // Room for the whole hot universe, so misses come from invalidation
    // only; one shard, so no uneven shard fill evicts a hot column.
    tenant.cache_capacity_bytes = (universe + 1) * column_bytes;
    tenant.cache_shards = 1;
    MustOk(registry->AddTenant(kTenant, graph::ColumnNormalizedTransition(g),
                               tenant),
           "add tenant");
    const uint64_t t2 = Now();
    auto dynamic = std::dynamic_pointer_cast<const core::DynamicCsrPlusEngine>(
        registry->TenantEngine(kTenant));
    CSR_CHECK(dynamic != nullptr);
    // The registry builds the engine inside AddTenant, so the SVD share is
    // AddTenant time minus the subspace phase the engine reports.
    t.graph_s = Seconds(t0, t1);
    t.subspace_s = dynamic->engine().stats().subspace_seconds;
    t.svd_s = std::max(0.0, Seconds(t1, t2) - t.subspace_s);
    t.serve_start_s = 0.0;
    t.total_s = Seconds(t0, t2);
    records->setups.push_back(t);
  }
  records->Meta("n", kMutateNodes);
  records->Meta("rank", kMutateRank);
  records->Meta("transport", "in-process");

  // The universe is blocks 0 and 1; the writer mutates block 0. Zipf ranks
  // alternate between the two blocks (a seeded order inside each), so every
  // seed puts the same share of the read load on written columns.
  Rng universe_rng = Rng::ForBlock(options.seed, 300);
  const std::vector<Index> written =
      ShuffledRange(0, kMutateBlockSize, universe_rng);
  const std::vector<Index> clean =
      ShuffledRange(kMutateBlockSize, universe, universe_rng);
  std::vector<Index> ranked;
  for (std::size_t i = 0; i < written.size(); ++i) {
    ranked.push_back(written[i]);
    ranked.push_back(clean[i]);
  }
  const Zipf zipf(std::move(ranked));
  const int num_batches = static_cast<int>(options.seconds / kMutatePeriodS);
  const auto batches = WriterBatches(options.seed, num_batches);

  // Warm the cache with the whole universe before any timing.
  service::QueryService* service = registry->Find(kTenant);
  for (Index base = 0; base < universe;
       base += static_cast<Index>(kMutateQueries)) {
    service::QueryRequest request;
    for (Index q = base;
         q < std::min<Index>(base + kMutateQueries, universe); ++q) {
      request.queries.push_back(q);
    }
    MustOk(service->Query(std::move(request)).status, "cache warm-up");
  }

  std::vector<Rng> streams;
  for (int c = 0; c < kMutateClients; ++c) {
    streams.push_back(Rng::ForBlock(options.seed, 100 + c));
  }
  const CallFn call = [&](int c, Phase, Sample* s) {
    Rng& rng = streams[static_cast<std::size_t>(c)];
    service::QueryRequest request;
    request.queries =
        DistinctQueries(kMutateQueries, [&] { return zipf.Sample(rng); });
    request.top_k = kMutateTopK;
    service::QueryService* routed = registry->Route(kTenant);
    FillFromResponse(routed->Query(std::move(request)), s);
  };

  // Open-loop writer: batch b is due at open + (b + 0.5) * period and runs
  // as soon as it is due, however late the previous one finished.
  std::thread writer;
  std::vector<UpdateRecord> updates(static_cast<std::size_t>(num_batches));
  std::vector<Index> last_touched;
  const auto start_writer = [&] {
    const uint64_t open = Now();
    writer = std::thread([&, open] {
      for (int b = 0; b < num_batches; ++b) {
        UpdateRecord& u = updates[static_cast<std::size_t>(b)];
        u.due = open + static_cast<uint64_t>((b + 0.5) * kMutatePeriodS * 1e6);
        SleepUntil(u.due);
        u.start = Now();
        auto receipt = registry->ApplyUpdates(
            kTenant, batches[static_cast<std::size_t>(b)]);
        u.end = Now();
        u.ok = receipt.ok();
        if (!receipt.ok()) continue;
        u.effective = receipt->effective_count;
        u.touched = static_cast<int64_t>(receipt->touched_support.size());
        u.rebuilt = receipt->rebuilt;
        last_touched = receipt->touched_support;
      }
    });
  };
  cache::ColumnCache* cache = registry->TenantCache(kTenant);
  RunClosedLoop(options, kMutateClients, kMutateWarmup, call, start_writer,
                cache, nullptr, records);
  writer.join();
  records->updates = std::move(updates);

  // Oracle: served columns for sampled sources — touched ones included —
  // are bit-identical to the final snapshot's direct answers, so no stale
  // cache entry survived an update.
  Rng pick = Rng::ForBlock(options.seed, 600);
  std::vector<Index> sources;
  const auto add = [&](Index q) {
    if (std::find(sources.begin(), sources.end(), q) == sources.end()) {
      sources.push_back(q);
    }
  };
  for (std::size_t i = 0; i < kMutateOracleSources / 2 && !last_touched.empty();
       ++i) {
    add(last_touched[pick.Below(last_touched.size())]);
  }
  while (sources.size() < kMutateOracleSources) {
    add(zipf.Sample(pick));
  }
  const auto final_engine = registry->TenantEngine(kTenant);
  std::vector<double> expect;
  for (std::size_t base = 0; base < sources.size(); base += kMutateQueries) {
    service::QueryRequest request;
    for (std::size_t i = base;
         i < std::min(base + kMutateQueries, sources.size()); ++i) {
      request.queries.push_back(sources[i]);
    }
    const std::vector<Index> queries = request.queries;
    const service::QueryResponse served = service->Query(std::move(request));
    MustOk(served.status, "oracle served query");
    for (std::size_t j = 0; j < queries.size(); ++j) {
      ++records->oracle_checked;
      MustOk(final_engine->SingleSourceQueryInto(queries[j], &expect),
             "oracle direct query");
      bool same = true;
      for (Index v = 0; same && v < kMutateNodes; ++v) {
        same = SameBits(served.scores(v, static_cast<Index>(j)),
                        expect[static_cast<std::size_t>(v)]);
      }
      if (!same) ++records->oracle_mismatches;
    }
  }
  registry->Shutdown();
}

// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  Budget budget;
  void (*run)(const Options&, Records*);
};

constexpr int kPoolThreads = 4;

const Workload kWorkloads[] = {
    {"search-200k", {kSearchClients, 0, 0, kPoolThreads}, RunSearch},
    {"columns-socket-20k", {kColumnsClients, 0, 1, kPoolThreads}, RunColumns},
    {"mutate-50k", {kMutateClients, 1, 0, kPoolThreads}, RunMutate},
};

void Write(const Records& r, std::FILE* out) {
  for (const auto& [key, value] : r.meta) {
    std::fprintf(out, "meta %s %s\n", key.c_str(), value.c_str());
  }
  for (const SetupTiming& t : r.setups) {
    std::fprintf(out, "setup %.6f %.6f %.6f %.6f %.6f\n", t.graph_s, t.svd_s,
                 t.subspace_s, t.serve_start_s, t.total_s);
  }
  std::fprintf(out, "window %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
               r.window.open, r.window.mid, r.window.close);
  // Request samples; traced ones also become spans below.
  for (const Sample& s : r.samples) {
    std::fprintf(out,
                 "req %d %" PRIu64 " %" PRIu64 " %d %" PRIu64 " %" PRIu64
                 " %d %" PRId64 " %" PRIu64 " %d\n",
                 s.client, s.start, s.end, s.ok ? 1 : 0, s.wait, s.total,
                 s.batch_requests, s.batch_queries, s.send, s.traced ? 1 : 0);
  }
  // Spans: name start end parent request columns. The service runs one
  // dispatcher, so engine spans get their parent (a dispatch span) by
  // interval containment in run.py. Socket requests place the server-side
  // spans from the end of the client's Send.
  int64_t id = 0;
  int64_t request = 0;
  for (const Sample& s : r.samples) {
    if (!s.traced || !s.ok) continue;
    const int64_t parent = id;
    const uint64_t submit = s.start + s.send;
    std::fprintf(out, "span request %" PRIu64 " %" PRIu64 " -1 %" PRId64 " 0\n",
                 s.start, s.end, request);
    std::fprintf(out,
                 "span service.wait %" PRIu64 " %" PRIu64 " %" PRId64
                 " %" PRId64 " 0\n",
                 submit, submit + s.wait, parent, request);
    std::fprintf(out,
                 "span service.dispatch %" PRIu64 " %" PRIu64 " %" PRId64
                 " %" PRId64 " 0\n",
                 submit + s.wait, submit + s.total, parent, request);
    id += 3;
    if (s.send > 0) {
      std::fprintf(out,
                   "span net.send %" PRIu64 " %" PRIu64 " %" PRId64
                   " %" PRId64 " 0\n",
                   s.start, s.start + s.send, parent, request);
      ++id;
    }
    ++request;
  }
  for (const EngineSpan& e : r.engine_spans) {
    std::fprintf(out, "span engine %" PRIu64 " %" PRIu64 " -1 -1 %" PRId64 "\n",
                 e.start, e.end, e.columns);
  }
  for (std::size_t i = 0; i < r.cache.size(); ++i) {
    const cache::ColumnCacheStats& c = r.cache[i];
    std::fprintf(out,
                 "cache %zu %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                 " %" PRId64 " %" PRId64 " %" PRId64 "\n",
                 i, c.hits, c.misses, c.inserts, c.evictions, c.invalidations,
                 c.rejections, c.resident_bytes);
  }
  for (const UpdateRecord& u : r.updates) {
    std::fprintf(out,
                 "update %" PRIu64 " %" PRIu64 " %" PRIu64 " %d %d %" PRId64
                 " %d\n",
                 u.due, u.start, u.end, u.ok ? 1 : 0, u.effective, u.touched,
                 u.rebuilt ? 1 : 0);
  }
  std::fprintf(out, "oracle %" PRId64 " %" PRId64 "\n", r.oracle_checked,
               r.oracle_mismatches);
  std::fprintf(out, "net_bytes %.1f\n", r.response_bytes);
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--out") {
      options->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->out.empty() && options->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const Budget& b = workload->budget;
  const int cpus = AvailableCpus();
  std::printf("# %s: clients=%d writer=%d net_workers=%d pool_threads=%d "
              "nproc=%d\n",
              workload->name, b.clients, b.writers, b.net_workers,
              b.pool_threads, cpus);
  std::fflush(stdout);
  if (b.clients + b.writers > cpus) {
    std::fprintf(stderr,
                 "perfbench: %d load generators exceed the %d available "
                 "CPUs; refusing to run\n",
                 b.clients + b.writers, cpus);
    return 3;
  }
  obs::Init();
  SetNumThreads(b.pool_threads);

  Records records;
  records.Meta("workload", workload->name);
  records.Meta("seed", options.seed);
  records.Meta("trace", options.trace ? 1 : 0);
  workload->run(options, &records);
  records.Meta("peak_rss_kb", PeakRssKb());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  records.Meta("minor_faults", static_cast<int64_t>(usage.ru_minflt));
  records.Meta("involuntary_switches", static_cast<int64_t>(usage.ru_nivcsw));

  std::FILE* out = std::fopen(options.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", options.out.c_str());
    return 1;
  }
  Write(records, out);
  return std::fclose(out) == 0 ? 0 : 1;
}
