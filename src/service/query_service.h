// Batched concurrent query service over any core::QueryEngine.
//
// Motivation: Theorem 3.5 prices a multi-source query at one shared Z U_Q^T
// evaluation whose cost grows sub-linearly in |Q| — a merged batch is
// strictly cheaper than its parts. The service exploits that at serving
// time: concurrent requests enter a bounded queue, a dispatcher coalesces
// compatible pending requests into one micro-batch (union of their query
// sets, deduplicated), runs a single engine evaluation, and scatters the
// results back per request. Because the engine contract (query_engine.h)
// guarantees column j depends only on queries[j], the scattered columns are
// bit-identical to what each request would have computed alone. A batch of
// top-k requests with no cache to fill goes through the engine's TopKQuery
// (fused on CSR+: the n x |Q| block is never built); every other batch
// evaluates the block, and its top-k requests share one selection pass.
//
// Control plane:
//  * Admission — a bounded submission queue plus a byte charge per request
//    (n x |Q| doubles for a columns response, |Q| x top_k ScoredNodes for a
//    top-k one) checked against the global MemoryBudget. Over either limit
//    => kResourceExhausted, never blocking.
//  * Deadlines — per-request relative timeouts, checked when the dispatcher
//    pops the request and again before scattering => kDeadlineExceeded.
//  * Cancellation — cooperative: a queued request completes immediately
//    with kCancelled; a running one is dropped at scatter time.
//
// Threading: one dispatcher thread owns batch assembly; the engine's own
// kernels parallelise through the shared pool. Lock order is service mutex
// before per-request mutex, everywhere.
//
// Live mutation (docs/mutations.md): the service serves an *engine
// snapshot* held in an atomic shared_ptr. Queries pin the current snapshot
// for the duration of one micro-batch; writers build the next generation
// off-path (clone + ApplyUpdates) and hand it to PublishEngine, which swaps
// the pointer, waits out the at-most-one in-flight batch on the old
// snapshot (RCU grace period — readers never block on writers, writers wait
// only for batches already running), and then drops exactly the cached
// columns the update invalidated.

#ifndef CSRPLUS_SERVICE_QUERY_SERVICE_H_
#define CSRPLUS_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/column_cache.h"
#include "common/status.h"
#include "core/query_engine.h"
#include "core/topk.h"
#include "linalg/dense_matrix.h"

namespace csrplus::service {

using linalg::DenseMatrix;
using linalg::Index;

/// Per-request quality class (normative semantics: docs/serving-tiers.md).
/// The numeric values are the wire encoding and must not change.
enum class QualityClass : uint8_t {
  kExact = 0,        ///< always served by the exact engine
  kApproximate = 1,  ///< the approximate engine when configured, else exact
  kBestEffort = 2,   ///< exact normally; shed to approximate under load
};

/// Which engine tier actually answered a request (echoed on the wire).
/// The numeric values are the wire encoding and must not change.
enum class ServedTier : uint8_t {
  kExact = 0,
  kApproximate = 1,
  kUnspecified = 2,  ///< the request never reached an engine (admission
                     ///< rejects, queued cancellations/expiries, pings)
};

/// Stable lowercase names ("exact", "approximate", "best-effort" /
/// "unspecified"); match the CLI --quality values.
const char* QualityClassName(QualityClass quality);
const char* ServedTierName(ServedTier tier);

/// Serving-time knobs.
struct ServiceOptions {
  /// Bounded submission queue; Submit beyond this => kResourceExhausted.
  int max_queue_requests = 256;
  /// Cap on distinct queries merged into one micro-batch.
  Index max_batch_queries = 64;
  /// Cap on requests coalesced into one micro-batch.
  int max_batch_requests = 16;
  /// When false every request runs alone — the serialized A/B arm used by
  /// bench_service_throughput; results are identical either way.
  bool coalesce = true;
  /// Optional column cache consulted before every micro-batch evaluation:
  /// cached columns are scattered directly, only the miss set goes through
  /// the engine, and fresh columns are inserted on the way out. Results stay
  /// bit-identical to the uncached path by the column-independence contract.
  /// Ignored (pure pass-through) when null or when the engine reports
  /// StateFingerprint() == 0. Not owned; must outlive the service.
  cache::ColumnCache* cache = nullptr;
  /// Optional approximate serving tier (docs/serving-tiers.md): kApproximate
  /// requests route here, and the adaptive controller sheds kBestEffort
  /// requests here when the thresholds below trip. Must serve the same node
  /// set as the exact engine (checked at construction). Not owned; must
  /// outlive the service. Null = tiering off, every request served exact.
  const core::QueryEngine* approximate_engine = nullptr;
  /// Depth-shedding hysteresis pair: the controller starts shedding when the
  /// dispatcher observes `queue depth >= shed_trigger_depth` at batch
  /// assembly and stops once `depth <= shed_resume_depth`. A non-positive
  /// trigger disables depth shedding. Only meaningful with an
  /// approximate_engine.
  int shed_trigger_depth = 8;
  int shed_resume_depth = 1;
  /// Deadline-headroom shedding: a best-effort request whose remaining
  /// deadline at assembly is below this is routed approximate regardless of
  /// queue depth. 0 = off.
  uint64_t shed_headroom_micros = 0;
  /// Per-service cap on outstanding response bytes (admission charge),
  /// checked in addition to the process-wide MemoryBudget. This is the
  /// per-tenant isolation knob: the EngineRegistry gives each tenant's
  /// service its own slice so one tenant's burst cannot exhaust the shared
  /// budget for the others. 0 = no per-service cap.
  int64_t max_outstanding_bytes = 0;
};

/// One client request.
struct QueryRequest {
  /// Query node ids; duplicates within one request are rejected.
  std::vector<Index> queries;
  /// When > 0, also extract the top-k neighbours per query column.
  Index top_k = 0;
  /// Top-k only: exclude each query node from its own ranking.
  bool exclude_query = true;
  /// Relative deadline from submission; 0 = none.
  uint64_t timeout_micros = 0;
  /// Requested quality class; routing semantics in docs/serving-tiers.md.
  QualityClass quality = QualityClass::kExact;
  /// Free-form client label (shows up in logs; no semantic meaning).
  std::string tag;
};

/// Outcome of one request.
struct QueryResponse {
  Status status;
  /// n x |queries| score block for a columns request (top_k == 0). Empty
  /// when top_k > 0 — the top-k lists are the whole answer — and on error.
  DenseMatrix scores;
  /// Per-query top-k (empty unless top_k > 0).
  std::vector<std::vector<core::ScoredNode>> topk;
  /// Time from submission to dispatch.
  uint64_t wait_micros = 0;
  /// Time from submission to completion.
  uint64_t total_micros = 0;
  /// How many requests shared this request's micro-batch (1 = ran alone).
  int batch_requests = 0;
  /// Distinct queries in that micro-batch.
  Index batch_queries = 0;
  /// The engine tier that answered (kUnspecified when the request never
  /// reached an engine: admission rejects, queued cancellations/expiries).
  ServedTier served_tier = ServedTier::kUnspecified;
};

/// A concurrent, batching front-end for a QueryEngine. The service must
/// outlive every Ticket it issued.
class QueryService {
 public:
  /// Serves `engine` as the initial snapshot; later generations arrive via
  /// PublishEngine. The service shares ownership, so the engine lives at
  /// least until the snapshot is superseded and the last query drains.
  explicit QueryService(std::shared_ptr<const core::QueryEngine> engine,
                        ServiceOptions options = {});
  /// Non-owning convenience overload: the caller guarantees `engine`
  /// outlives the service (the original single-engine wiring).
  explicit QueryService(const core::QueryEngine* engine,
                        ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  class Ticket;

  /// Validates and enqueues `request`. Fails fast with kResourceExhausted
  /// (queue full or budget), kInvalidArgument (bad query set, or more
  /// queries than `max_batch_queries` — the dispatcher never widens a batch
  /// past that limit, so a request that cannot fit in any batch is rejected
  /// here), or kFailedPrecondition (after Shutdown). Never blocks on queue
  /// capacity.
  ///
  /// `on_done`, when set, fires exactly once when the request completes —
  /// any terminal path: scatter, deadline, cancellation or shutdown drain.
  /// It runs on whichever thread finishes the request with internal locks
  /// held, so it must only signal (write an eventfd, set a flag) and must
  /// never call back into the service. The socket front end (src/net/)
  /// uses it to pump its event loop without blocking a thread per request.
  Result<Ticket> Submit(QueryRequest request,
                        std::function<void()> on_done = nullptr);

  /// Submit + Wait. On admission failure the status lands in the response.
  QueryResponse Query(QueryRequest request);

  /// Atomically replaces the served engine snapshot with `next` (same node
  /// count; built off-path by the writer) and reconciles the column cache:
  /// after the RCU grace period — the at-most-one micro-batch still running
  /// on the old snapshot, waited out so it cannot re-insert stale columns —
  /// either the whole old generation is evicted (fingerprint rotated, e.g. a
  /// full rebuild) or exactly `touched_support` is dropped (fingerprint
  /// stable across an incremental ApplyUpdates; UpdateReceipt contract).
  /// In-flight and future queries never block: they keep answering from
  /// whichever snapshot they pinned. Concurrent publishers are serialised
  /// internally; each tenant's writer typically holds its own lock anyway.
  Status PublishEngine(std::shared_ptr<const core::QueryEngine> next,
                       const std::vector<Index>& touched_support = {});

  /// Stops the dispatcher. Requests still queued complete with kCancelled;
  /// a batch already executing finishes normally. Idempotent; implied by
  /// the destructor. Submit afterwards returns kFailedPrecondition.
  void Shutdown();

  const ServiceOptions& options() const { return options_; }
  /// The current engine snapshot (pins the generation while held).
  std::shared_ptr<const core::QueryEngine> engine_snapshot() const {
    return engine_.load(std::memory_order_acquire);
  }
  /// Reference convenience — only safe when no PublishEngine can run
  /// concurrently (tests, single-generation setups); the reference does not
  /// pin the snapshot.
  const core::QueryEngine& engine() const {
    return *engine_.load(std::memory_order_acquire);
  }

 private:
  struct RequestState;

 public:
  /// Handle to one in-flight request. Copies share the same request.
  class Ticket {
   public:
    /// Blocks until the request completes; returns (and keeps) the response.
    const QueryResponse& Wait();
    /// Waits up to `micros`; true when the request has completed.
    bool WaitFor(uint64_t micros);
    /// True when the request has completed (non-blocking).
    bool Done() const;
    /// Requests cancellation. A still-queued request completes immediately
    /// with kCancelled; a running one is dropped when its batch finishes.
    void Cancel();

   private:
    friend class QueryService;
    Ticket(QueryService* service, std::shared_ptr<RequestState> state)
        : service_(service), state_(std::move(state)) {}
    QueryService* service_;
    std::shared_ptr<RequestState> state_;
  };

 private:
  enum class Phase { kQueued, kRunning, kDone };

  struct RequestState {
    QueryRequest request;
    uint64_t submit_micros = 0;
    uint64_t deadline_micros = 0;  ///< absolute; 0 = none
    int64_t admission_bytes = 0;

    std::mutex mu;
    std::condition_variable cv;
    Phase phase = Phase::kQueued;
    bool cancel_requested = false;
    /// Tier decided at batch assembly (dispatcher writes it under mu; read
    /// back by the dispatcher when the batch completes).
    ServedTier routed_tier = ServedTier::kExact;
    QueryResponse response;
    /// Completion signal (see Submit); consumed by FinishLocked.
    std::function<void()> on_done;
  };

  void DispatcherLoop();
  /// The engine serving `tier`: `exact` is the batch's pinned snapshot (the
  /// approximate tier, when configured, is generation-invariant).
  const core::QueryEngine* EngineFor(const core::QueryEngine* exact,
                                     ServedTier tier) const;
  /// Routing decision for one request at batch assembly (deterministic in
  /// the observed controller state; docs/serving-tiers.md). `now` is the
  /// assembly timestamp shared by the whole batch.
  ServedTier RouteTier(const QueryRequest& request, uint64_t deadline_micros,
                       uint64_t now) const;
  /// The fingerprint the cache is served under for `engine` (`tier`'s
  /// engine for this batch), evicting a rotated generation first; 0 means
  /// no cache to consult or fill (no cache configured, or the engine cannot
  /// vouch for its state). Dispatcher thread only (touches
  /// served_fingerprint_ without a lock).
  uint64_t CacheFingerprint(const core::QueryEngine* engine, ServedTier tier);
  /// Evaluates one micro-batch's union query set on `engine` as an n x |Q|
  /// block: straight through when `fp` is 0, else scatter cached columns /
  /// evaluate the miss set / insert fresh columns under `fp`.
  Result<DenseMatrix> EvaluateBatch(const core::QueryEngine* engine,
                                    const std::vector<Index>& union_queries,
                                    uint64_t fp);
  /// Pops one micro-batch (holding mu_); finishes cancelled/expired
  /// requests in place; updates the shedding controller and routes every
  /// popped request (batches are tier-homogeneous — coalescing stops at a
  /// tier boundary). Empty result means "shut down".
  std::vector<std::shared_ptr<RequestState>> NextBatch();
  /// Completes `state` (caller holds state->mu). Records latency metrics.
  void FinishLocked(RequestState* state, QueryResponse response);
  void CancelRequest(const std::shared_ptr<RequestState>& state);

  /// The served engine snapshot. Readers (Submit, the dispatcher) load it
  /// with acquire; PublishEngine swaps it. Never null.
  std::atomic<std::shared_ptr<const core::QueryEngine>> engine_;
  const ServiceOptions options_;
  /// Serialises concurrent PublishEngine calls (grace wait + eviction must
  /// not interleave between two publishers).
  std::mutex publish_mu_;
  /// Seqlock-style grace-period marker: the dispatcher increments it when a
  /// micro-batch starts (odd = evaluating) and again when the batch's
  /// results are scattered (even = idle). The snapshot load happens inside
  /// the odd window, so once PublishEngine has swapped the pointer and seen
  /// the counter leave the window it observed, no batch can still be using
  /// — or start using — the old snapshot.
  std::atomic<uint64_t> batch_epoch_{0};
  /// Per-tier engine fingerprint the cache was last populated under (slot 0
  /// exact, slot 1 approximate — tiers alternating must not evict each
  /// other's generations). When a live fingerprint moves (e.g. a dynamic
  /// engine absorbed an edge between batches), the dispatcher eagerly
  /// evicts that stale generation's columns.
  uint64_t served_fingerprint_[2] = {0, 0};
  /// Adaptive-controller state: currently shedding best-effort traffic to
  /// the approximate tier. Written by the dispatcher under mu_ (hysteresis:
  /// trips at shed_trigger_depth, clears at shed_resume_depth).
  bool shedding_ = false;

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<RequestState>> queue_;
  int64_t outstanding_bytes_ = 0;
  bool shutdown_ = false;
  std::thread dispatcher_;
};

}  // namespace csrplus::service

#endif  // CSRPLUS_SERVICE_QUERY_SERVICE_H_
