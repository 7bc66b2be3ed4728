// CSR+ — the paper's contribution (Algorithm 1).
//
// Multi-source CoSimRank search in O(r(m + n(r + |Q|))) time and O(rn)
// memory via a rank-r truncated SVD of the transition matrix Q = U Sigma V^T
// and the four optimisation stages of Theorems 3.1–3.5:
//
//   Precompute (query-independent):
//     H_0 = V^T U Sigma                        (r x r subspace)         [Thm 3.3]
//     P_{k+1} = P_k + c^{2^k} H_k P_k H_k^T,   H_{k+1} = H_k^2
//       until k reaches max{0, floor(log2 log_c eps) + 1}               [Thm 3.4]
//     Z = U (Sigma P Sigma)                    (n x r, memoised)        [Thm 3.5]
//
//   Query (per query set Q):
//     [S]_{*,Q} = [I_n]_{*,Q} + c Z [U]_{Q,*}^T                         [Thm 3.5]
//
// The result is bit-identical to Li et al.'s NI method on the same SVD
// factors (the theorems are exact identities); the only approximation in
// either method is the rank-r truncation itself.

#ifndef CSRPLUS_CORE_CSRPLUS_ENGINE_H_
#define CSRPLUS_CORE_CSRPLUS_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query_engine.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"
#include "svd/truncated_svd.h"

namespace csrplus::core {

class ArtifactMapping;

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::DenseMatrixView;
using linalg::Index;

/// Serving-precision tier of a CSR+ engine. Precomputation always runs in
/// double; kF32 additionally quantises the memoised U/Z factors to float
/// once (at precompute or artifact-load time) and answers queries with the
/// float32 SIMD kernels — roughly half the factor bandwidth and twice the
/// lanes per instruction, at a bounded accuracy cost (max |Δ| <= 1e-4 and
/// top-10 overlap >= 0.99 vs the double engine; gated by
/// bench_table3_accuracy).
enum class Precision { kF64, kF32 };

/// Stable lowercase name ("f64", "f32"); matches the CLI --precision values.
const char* PrecisionName(Precision precision);

/// Parameters of CSR+ (defaults are the paper's §4.1 settings).
struct CsrPlusOptions {
  /// Target low rank r of the truncated SVD.
  Index rank = 5;
  /// Damping factor c in (0, 1).
  double damping = 0.6;
  /// Desired accuracy epsilon of the P fixed point (Algorithm 1, line 4).
  double epsilon = 1e-5;
  /// Kernel thread count. 0 keeps the ambient process-wide setting
  /// (CSRPLUS_NUM_THREADS env var, else hardware concurrency); a positive
  /// value resizes the shared pool for this precompute and all subsequent
  /// kernels. 1 bypasses the pool entirely (bit-identical serial execution).
  int num_threads = 0;
  /// Truncated SVD engine configuration (rank is overridden by `rank`).
  svd::SvdOptions svd;
  /// Serving precision. kF32 quantises U/Z to float after the (always
  /// double) precomputation; see Precision. Engines loaded from an artifact
  /// apply it via SetServingPrecision instead.
  Precision precision = Precision::kF64;

  /// Graph-independent validation: rank >= 1, damping in (0, 1),
  /// epsilon in (0, 1), num_threads >= 0. Every Precompute* entry point
  /// calls this (plus the rank <= n check) before doing any work.
  Status Validate() const;
};

/// Identity of the graph a precomputation was built from: node count, edge
/// count and a content hash over the transition matrix's CSR arrays
/// (structure *and* values, so renormalisation changes are caught).
/// Persisted inside precompute artifacts and checked on warm start so a
/// saved factorisation can never silently serve queries for another graph.
struct GraphFingerprint {
  Index num_nodes = 0;
  int64_t nnz = 0;
  uint64_t content_hash = 0;

  bool operator==(const GraphFingerprint& other) const {
    return num_nodes == other.num_nodes && nnz == other.nnz &&
           content_hash == other.content_hash;
  }
  /// True for the default-constructed value (engines built directly from
  /// factors, where no graph was ever seen).
  bool empty() const {
    return num_nodes == 0 && nnz == 0 && content_hash == 0;
  }
};

/// Fingerprints a column-normalised transition matrix (FNV-1a 64 over the
/// row_ptr / col_index / values arrays). Deterministic across runs and
/// thread counts; see precompute_io.h for the artifact that embeds it.
GraphFingerprint FingerprintTransition(const CsrMatrix& transition);

/// How LoadPrecompute materialises an artifact's factor sections.
enum class LoadMode {
  /// Deserialise everything into heap DenseMatrix buffers, verifying every
  /// section checksum before the engine is returned (the original, fully
  /// eager path; O(rn) RAM and copy time).
  kHeapVerified,
  /// mmap the artifact and serve U/Z/P/V zero-copy out of the page cache.
  /// Header, fingerprint and the small Sigma section are validated eagerly;
  /// the large section checksums are verified lazily on a background thread
  /// (see CsrPlusEngine::VerifyMappedSections). Warm start is ~O(1) and
  /// factors larger than RAM page in on demand.
  kMapped,
};

/// Stable lowercase name ("heap", "mmap"); matches --artifact-mode values.
const char* LoadModeName(LoadMode mode);

/// Options for the consolidated LoadPrecompute entry point.
struct LoadOptions {
  /// When set, the artifact's embedded graph fingerprint must equal this
  /// value (FailedPrecondition otherwise). Unset skips the graph check —
  /// only for tooling that inspects artifacts detached from any graph.
  std::optional<GraphFingerprint> expected_fingerprint;

  /// Materialisation strategy; see LoadMode.
  LoadMode mode = LoadMode::kHeapVerified;

  /// Advisory bytes charged against MemoryBudget::Global() for a kMapped
  /// load (an expected-resident-set estimate; mapped pages are reclaimable,
  /// so by default only the small heap copies are charged). kHeapVerified
  /// always charges the full EngineStateBytes regardless of this field.
  int64_t mapped_budget_bytes = 0;

  /// kMapped only: start the background checksum pass at load time. Turning
  /// it off defers all large-section verification to an explicit
  /// VerifyMappedSections() call (tests use this to race corruption).
  bool background_verify = true;
};

/// Timings and sizes recorded during precomputation; consumed by the
/// benchmark harness (Figures 3 and 7 split precompute vs query).
struct PrecomputeStats {
  double normalize_seconds = 0.0;   ///< building Q from the graph.
  double svd_seconds = 0.0;         ///< truncated SVD.
  double subspace_seconds = 0.0;    ///< H, P iteration, Z.
  int squaring_iterations = 0;      ///< loop trips of Algorithm 1 line 4-5.
  int64_t state_bytes = 0;          ///< heap bytes of the memoised Z and U.
};

/// The precomputed CSR+ state plus its online query interface.
///
/// Construction runs Algorithm 1 lines 1–6; queries run line 7 and are safe
/// to issue concurrently from multiple threads (the state is immutable).
class CsrPlusEngine : public QueryEngine {
 public:
  /// Precomputes from a graph (builds the column-normalised Q internally).
  static Result<CsrPlusEngine> Precompute(const graph::Graph& g,
                                          const CsrPlusOptions& options);

  /// Precomputes from an already-normalised transition matrix.
  static Result<CsrPlusEngine> PrecomputeFromTransition(
      const CsrMatrix& transition, const CsrPlusOptions& options);

  /// Precomputes lines 3–6 of Algorithm 1 from existing SVD factors in the
  /// paper's convention (i.e. factors of Q^T; see the note in the .cc).
  /// Used by the dynamic engine, which maintains the factors incrementally.
  static Result<CsrPlusEngine> PrecomputeFromPaperFactors(
      svd::TruncatedSvd factors, const CsrPlusOptions& options);

  /// Persists the full precomputed state (U, Sigma, V, P, Z plus rank,
  /// damping, epsilon and the graph fingerprint) to `path` in the versioned
  /// artifact format of precompute_io.h. A later LoadPrecompute skips the
  /// SVD and repeated-squaring stages entirely — warm start is pure I/O.
  Status SavePrecompute(const std::string& path) const;

  /// Restores an engine from a SavePrecompute artifact — the single load
  /// surface. Validates magic, format version and header checksum eagerly;
  /// section payloads are verified per `options.mode` (kHeapVerified: every
  /// checksum before returning; kMapped: Sigma eagerly, U/V/P/Z lazily on a
  /// background thread). Any mismatch yields a typed error (DataLoss /
  /// FailedPrecondition / ...) and never a partially-initialised engine.
  static Result<CsrPlusEngine> LoadPrecompute(const std::string& path,
                                              const LoadOptions& options);

  /// Deprecated forwarder: LoadPrecompute(path, LoadOptions{}) — heap mode,
  /// no graph fingerprint check.
  [[deprecated(
      "use LoadPrecompute(path, LoadOptions{}) — the LoadOptions overload is "
      "the single load surface")]]
  static Result<CsrPlusEngine> LoadPrecompute(const std::string& path);

  /// Deprecated forwarder: LoadPrecompute with options.expected_fingerprint
  /// set to `expected` (heap mode).
  [[deprecated(
      "use LoadPrecompute(path, LoadOptions{.expected_fingerprint = fp}) — "
      "the LoadOptions overload is the single load surface")]]
  static Result<CsrPlusEngine> LoadPrecompute(const std::string& path,
                                              const GraphFingerprint& expected);

  /// Multi-source query: returns the n x |Q| block [S]_{*,Q}.
  Result<DenseMatrix> MultiSourceQuery(
      const std::vector<Index>& queries) const override;

  /// Single-source query: the column [S]_{*,q}.
  Result<std::vector<double>> SingleSourceQuery(Index query) const;

  /// As SingleSourceQuery but writes into a caller-owned vector (resized to
  /// n), so loops issuing many single-source queries (AllPairsTopK) reuse
  /// one buffer instead of allocating an n-length column per source.
  Status SingleSourceQueryInto(Index query,
                               std::vector<double>* out) const override;

  /// Single-pair score [S]_{a,b} in O(r) time from the memoised factors.
  Result<double> SinglePairQuery(Index a, Index b) const;

  /// All-pairs S = I + c Z U^T (n x n dense; budget-guarded).
  Result<DenseMatrix> AllPairs() const;

  /// Fused top-k search (QueryEngine::TopKQuery): row shards compute
  /// cache-sized panels of Theorem 3.5's [S]_{*,Q} with the same producer
  /// as MultiSourceQuery and feed them straight into per-query bounded
  /// selectors, merged under RanksBefore. Lists are bit-identical to
  /// TopKOfColumn over MultiSourceQuery(queries) for every thread count,
  /// while the n x |Q| block is never allocated: memory is
  /// O(|Q| (k + panel)) per shard.
  Result<TopKLists> TopKQuery(const std::vector<Index>& queries, Index k,
                              bool exclude_query = true) const override;

  /// Similarity join: the k most similar *pairs* (a < b) in the whole
  /// graph, streamed one score column at a time (O(n) working memory plus
  /// the k-entry heap; never materialises the n x n matrix).
  struct ScoredPair {
    Index a;
    Index b;
    double score;
    bool operator==(const ScoredPair& other) const {
      return a == other.a && b == other.b && score == other.score;
    }
  };
  Result<std::vector<ScoredPair>> AllPairsTopK(Index k) const;

  /// Number of nodes n.
  Index num_nodes() const { return mapping_ ? u_map_.rows() : u_.rows(); }

  /// Switches the serving tier. kF32 quantises U/Z into float side buffers
  /// (budget-charged; the double masters are kept, so switching back is
  /// lossless and free). Idempotent. Query results, Name() and
  /// StateFingerprint() all change with the tier — an f32 engine is a
  /// different cacheable identity from its f64 twin.
  Status SetServingPrecision(Precision precision);

  /// The active serving tier.
  Precision serving_precision() const { return precision_; }

  // QueryEngine identity.
  Index NumNodes() const override { return num_nodes(); }
  std::string_view Name() const override {
    return precision_ == Precision::kF32 ? "CSR+f32" : "CSR+";
  }

  /// Cacheable-state identity: FNV-1a over the graph fingerprint and the
  /// answer-relevant parameters (rank, damping, epsilon). Engines built from
  /// the same graph + parameters — including warm starts from the same
  /// artifact — share the value, so a column cache survives an engine swap.
  /// Returns 0 (never cache) when the graph fingerprint is empty, i.e. for
  /// engines built via PrecomputeFromPaperFactors where no graph was seen.
  uint64_t StateFingerprint() const override;

  /// Query cost per Theorem 3.5: the [S]_{*,Q} block is one n x r by
  /// r x |Q| GEMM plus the diagonal scatter — n(r + 1) fused multiply-adds
  /// per query column, independent of batch width.
  CostModel EstimateCost(Index batch_queries) const override {
    const double per_query =
        static_cast<double>(num_nodes()) * (static_cast<double>(rank()) + 1.0);
    return CostModel{per_query * static_cast<double>(batch_queries),
                     per_query};
  }

  /// Exact up to the rank-r truncation the whole engine is defined by; the
  /// serving contract treats CSR+ as the exact tier (docs/serving-tiers.md).
  AccuracyTag Accuracy() const override { return AccuracyTag{}; }

  /// The configured rank r.
  Index rank() const { return mapping_ ? u_map_.cols() : u_.cols(); }

  double damping() const { return damping_; }

  /// The memoised query factor (the paper's "U"; under the standard SVD
  /// convention this is the *right* factor V of Q — see the derivation note
  /// in csrplus_engine.cc). Exposed for baselines/tests that must share the
  /// same factors, e.g. the CSR+ == CSR-NI losslessness check.
  ///
  /// All factor accessors return non-owning const views: over the heap
  /// buffers for computed / heap-loaded engines, over the mapped artifact
  /// sections for kMapped engines. Views stay valid as long as this engine
  /// (or any copy of it) is alive; materialising one is an explicit
  /// ToMatrix() copy.
  DenseMatrixView u() const {
    return mapping_ ? u_map_ : DenseMatrixView(u_);
  }
  DenseMatrixView z() const {
    return mapping_ ? z_map_ : DenseMatrixView(z_);
  }

  /// The subspace fixed point P (r x r) — Theorem 3.4's solution.
  DenseMatrixView p() const {
    return mapping_ ? p_map_ : DenseMatrixView(p_);
  }

  /// The retained singular values (r, descending) and the paper's "V"
  /// factor (n x r). Queries never touch them, but they are kept so the
  /// complete factorisation can be persisted (SavePrecompute) and reused at
  /// the factor level (e.g. incremental updates on a warm-started engine).
  const std::vector<double>& sigma() const { return sigma_; }
  DenseMatrixView v() const {
    return mapping_ ? v_map_ : DenseMatrixView(v_);
  }

  /// True when the factors are served zero-copy from a mapped artifact.
  bool is_mapped() const { return mapping_ != nullptr; }

  /// For kMapped engines: blocks until the lazy section-checksum pass has
  /// finished (running it inline when background verification was disabled)
  /// and returns its verdict — OK, or DataLoss naming the corrupt section.
  /// Serving processes call this at a convenient barrier (end of a batch,
  /// shutdown) to promote lazy verification into a hard failure. Returns OK
  /// for heap engines, whose checksums were verified during load.
  Status VerifyMappedSections() const;

  double epsilon() const { return epsilon_; }

  /// Fingerprint of the transition matrix this engine was precomputed from;
  /// empty() for engines built via PrecomputeFromPaperFactors.
  const GraphFingerprint& fingerprint() const { return fingerprint_; }

  /// Precomputation timings/sizes.
  const PrecomputeStats& stats() const { return stats_; }

 private:
  CsrPlusEngine() = default;

  // Mode-specific loaders behind LoadPrecompute; defined in
  // precompute_io.cc.
  static Result<CsrPlusEngine> LoadPrecomputeHeap(const std::string& path,
                                                  const LoadOptions& options);
  static Result<CsrPlusEngine> LoadPrecomputeMapped(const std::string& path,
                                                    const LoadOptions& options);

  // [U]_{Q,*}^T for one query set, r x |Q| row-major in the serving
  // precision (only the active tier's vector is filled): the B operand of
  // the tiled NN driver.
  struct QueryOperand {
    const std::vector<Index>* queries = nullptr;
    std::vector<double> f64;
    std::vector<float> f32;
  };
  QueryOperand MakeQueryOperand(const std::vector<Index>& queries) const;

  // Transient bytes of one query call over `num_queries` sources besides
  // its output, charged against the memory budget: the operand, plus on
  // the f32 tier one float accumulator panel per shard.
  int64_t QueryScratchBytes(Index num_queries) const;

  // The one producer of Theorem 3.5's score rows: rows [begin, end) of
  // [S]_{*,Q} = [I_n]_{*,Q} + c Z [U]_{Q,*}^T, accumulated into the zeroed
  // row-major `out` (leading dimension |Q|) in cache-sized panels. f64
  // accumulates through GemmNnTiled and applies the damping multiply after
  // full accumulation; f32 accumulates in float into `scratch` and widens
  // with the damping multiply in double. The diagonal 1.0 is added last.
  // Every element sees the same operations whatever the row range, so
  // MultiSourceQuery, AllPairs and TopKQuery agree bit for bit.
  void ScoreRows(const QueryOperand& operand, Index begin, Index end,
                 double* out, std::vector<float>* scratch) const;

  // The n x |Q| block over ScoreRows (no validation or budget charge).
  DenseMatrix ScoreBlock(const std::vector<Index>& queries) const;

  DenseMatrix u_;  // n x r left singular vectors.
  DenseMatrix z_;  // n x r memoised Z = U (Sigma P Sigma).
  DenseMatrix p_;  // r x r subspace fixed point (kept for diagnostics).
  std::vector<double> sigma_;  // r singular values (persisted, not queried).
  DenseMatrix v_;              // n x r paper-"V" factor (persisted).
  // Zero-copy tier (LoadMode::kMapped): the mapping keeps the artifact's
  // pages alive and the *_map_ views alias its section payloads; the heap
  // matrices above stay empty. shared_ptr makes engine copies cheap and
  // keeps every copy's views valid. Sigma is always copied to heap (r
  // doubles) — too small to be worth a view and needed as std::vector.
  std::shared_ptr<ArtifactMapping> mapping_;
  DenseMatrixView u_map_;
  DenseMatrixView z_map_;
  DenseMatrixView p_map_;
  DenseMatrixView v_map_;
  double damping_ = 0.6;
  double epsilon_ = 1e-5;
  GraphFingerprint fingerprint_;
  PrecomputeStats stats_;
  // Serving tier. The float factor copies are row-major n x r mirrors of
  // u_/z_, populated only while precision_ == kF32 (the doubles stay the
  // masters; persistence is always double).
  Precision precision_ = Precision::kF64;
  std::vector<float> u32_;
  std::vector<float> z32_;
};

/// Computes the iteration bound of Algorithm 1 line 4:
/// max{0, floor(log2 log_c eps) + 1}.
int RepeatedSquaringIterations(double damping, double epsilon);

/// Validates a CsrPlusOptions instance.
Status ValidateCsrPlusOptions(const CsrPlusOptions& options, Index num_nodes);

}  // namespace csrplus::core

#endif  // CSRPLUS_CORE_CSRPLUS_ENGINE_H_
