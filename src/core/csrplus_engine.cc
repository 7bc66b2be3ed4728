#include "core/csrplus_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/precompute_io.h"
#include "graph/normalize.h"
#include "linalg/dense_ops.h"
#include "linalg/kernels/kernels.h"
#include "obs/trace.h"

namespace csrplus::core {

const char* PrecisionName(Precision precision) {
  return precision == Precision::kF32 ? "f32" : "f64";
}

int RepeatedSquaringIterations(double damping, double epsilon) {
  // max{0, floor(log2 log_c eps) + 1}; note log_c eps > 0 since both are
  // in (0, 1).
  const double log_c_eps = std::log(epsilon) / std::log(damping);
  const int k = static_cast<int>(std::floor(std::log2(log_c_eps))) + 1;
  return std::max(0, k);
}

Status CsrPlusOptions::Validate() const {
  if (rank < 1) {
    return Status::InvalidArgument("rank must be >= 1");
  }
  if (damping <= 0.0 || damping >= 1.0) {
    return Status::InvalidArgument("damping factor must be in (0, 1)");
  }
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  return Status::OK();
}

Status ValidateCsrPlusOptions(const CsrPlusOptions& options, Index num_nodes) {
  CSR_RETURN_IF_ERROR(options.Validate());
  if (options.rank > num_nodes) {
    return Status::InvalidArgument("rank " + std::to_string(options.rank) +
                                   " exceeds node count " +
                                   std::to_string(num_nodes));
  }
  return Status::OK();
}

namespace {

// Applies the per-options thread override to the shared pool (0 = keep the
// ambient CSRPLUS_NUM_THREADS / hardware default).
void ApplyThreadOptions(const CsrPlusOptions& options) {
  if (options.num_threads > 0) SetNumThreads(options.num_threads);
}

// Rows per score panel in the query phase: |Q| output doubles plus the
// r-wide Z row per panel row stay within ~64 KiB, so the damping multiply,
// the f32 widening and the top-k scan all run on cache-hot data.
Index PanelRows(Index num_queries, Index rank) {
  constexpr Index kPanelBytes = Index{64} << 10;
  return std::clamp<Index>(
      kPanelBytes /
          ((num_queries + rank) * static_cast<Index>(sizeof(double))),
      8, 1024);
}

}  // namespace

Result<CsrPlusEngine> CsrPlusEngine::Precompute(const graph::Graph& g,
                                                const CsrPlusOptions& options) {
  WallTimer timer;
  const CsrMatrix transition = graph::ColumnNormalizedTransition(g);
  const double normalize_seconds = timer.ElapsedSeconds();
  CSR_ASSIGN_OR_RETURN(CsrPlusEngine engine,
                       PrecomputeFromTransition(transition, options));
  engine.stats_.normalize_seconds = normalize_seconds;
  return engine;
}

Result<CsrPlusEngine> CsrPlusEngine::PrecomputeFromTransition(
    const CsrMatrix& transition, const CsrPlusOptions& options) {
  if (transition.rows() != transition.cols()) {
    return Status::InvalidArgument("transition matrix must be square");
  }
  CSR_RETURN_IF_ERROR(ValidateCsrPlusOptions(options, transition.rows()));
  ApplyThreadOptions(options);
  CSRPLUS_TRACE_SPAN_ARG(precompute_span, obs::spans::kPrecompute, "rank",
                         options.rank);
  CSRPLUS_TRACE_ARG(precompute_span, "n", transition.rows());

  // Line 2: rank-r truncated SVD, taken of Q^T so the paper's formulas
  // apply verbatim. Deriving Eq.(6a) from Eq.(1) with the standard
  // convention Q = U Sigma V^T puts the *right* factor V in the query role
  // (S = I + c V (Sigma P Sigma) V^T with H = U^T V Sigma); the paper's "U"
  // is therefore the left factor of Q^T = V Sigma U^T. Swapping the factors
  // of SVD(Q) yields exactly SVD(Q^T), so Algorithm 1 below reads just like
  // the paper with `factors.u`/`factors.v` post-swap. The worked Example 3.6
  // (node b has in-links but no out-links, yet query b returns non-trivial
  // similarities) confirms this reading; the equivalence is covered by
  // tests/theorems_test.cc.
  WallTimer timer;
  svd::SvdOptions svd_options = options.svd;
  svd_options.rank = options.rank;
  CSR_ASSIGN_OR_RETURN(svd::TruncatedSvd factors,
                       svd::ComputeTruncatedSvd(transition, svd_options));
  std::swap(factors.u, factors.v);  // factors now decompose Q^T.
  const double svd_seconds = timer.ElapsedSeconds();

  CSR_ASSIGN_OR_RETURN(CsrPlusEngine engine,
                       PrecomputeFromPaperFactors(std::move(factors), options));
  engine.stats_.svd_seconds = svd_seconds;
  engine.fingerprint_ = FingerprintTransition(transition);
  return engine;
}

Result<CsrPlusEngine> CsrPlusEngine::PrecomputeFromPaperFactors(
    svd::TruncatedSvd factors, const CsrPlusOptions& options) {
  if (factors.rank() != options.rank) {
    return Status::InvalidArgument("factor rank does not match options.rank");
  }
  CSR_RETURN_IF_ERROR(ValidateCsrPlusOptions(options, factors.u.rows()));
  ApplyThreadOptions(options);
  // Charge the retained state (U, Sigma, V, P, Z) up front — the same
  // reservation LoadPrecompute makes, so a budget that rejects a cold start
  // rejects the matching warm start too (and vice versa).
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      precompute_io::EngineStateBytes(factors.u.rows(), options.rank),
      "CSR+ precompute state"));

  CSRPLUS_OBS_COUNTER_ADD("csrplus.precompute.runs", "calls",
                          "CSR+ precomputations (Algorithm 1 lines 3-6)", 1);
  CsrPlusEngine engine;
  engine.damping_ = options.damping;
  engine.epsilon_ = options.epsilon;

  // Line 3: H_0 = V^T U Sigma in the r x r subspace.
  WallTimer timer;
  int max_k = 0;
  DenseMatrix p;
  {
    CSRPLUS_OBS_SCOPED_US(
        "csrplus.phase.squaring_us",
        "repeated squaring for the subspace fixed point P (Thm 3.4)");
    CSRPLUS_TRACE_SPAN_ARG(squaring_span, obs::spans::kRepeatedSquaring,
                           "rank", options.rank);
    DenseMatrix h = linalg::Gemm(factors.v, factors.u, linalg::Transpose::kYes,
                                 linalg::Transpose::kNo);
    for (Index i = 0; i < h.rows(); ++i) {
      double* row = h.RowPtr(i);
      for (Index j = 0; j < h.cols(); ++j) {
        row[j] *= factors.sigma[static_cast<std::size_t>(j)];
      }
    }

    // Lines 4-5: repeated squaring for P (Theorem 3.4 / prior work [12]).
    max_k = RepeatedSquaringIterations(options.damping, options.epsilon);
    p = DenseMatrix::Identity(options.rank);
    double c_pow = options.damping;  // c^{2^k} for k = 0.
    for (int k = 0; k <= max_k; ++k) {
      // P <- P + c^{2^k} H P H^T.
      DenseMatrix hp = linalg::Gemm(h, p);
      DenseMatrix hpht =
          linalg::Gemm(hp, h, linalg::Transpose::kNo, linalg::Transpose::kYes);
      linalg::AddScaled(c_pow, hpht, &p);
      // H <- H^2, c^{2^k} -> c^{2^{k+1}}.
      h = linalg::Gemm(h, h);
      c_pow *= c_pow;
    }
    CSRPLUS_TRACE_ARG(squaring_span, "iterations", max_k + 1);
  }
  engine.stats_.squaring_iterations = max_k + 1;

  // Line 6: Z = U (Sigma P Sigma), memoised for the query phase.
  {
    CSRPLUS_OBS_SCOPED_US("csrplus.phase.z_memoise_us",
                          "memoising Z = U (Sigma P Sigma) (Thm 3.5)");
    CSRPLUS_TRACE_SPAN(z_span, obs::spans::kZMemoise);
    DenseMatrix sps = linalg::DiagScale(factors.sigma, p, factors.sigma);
    engine.z_ = linalg::Gemm(factors.u, sps);
  }
  engine.u_ = std::move(factors.u);
  engine.p_ = std::move(p);
  engine.sigma_ = std::move(factors.sigma);
  engine.v_ = std::move(factors.v);
  engine.stats_.subspace_seconds = timer.ElapsedSeconds();
  engine.stats_.state_bytes =
      engine.u_.AllocatedBytes() + engine.z_.AllocatedBytes() +
      engine.p_.AllocatedBytes();
  CSRPLUS_OBS_GAUGE_SET("csrplus.engine.state_bytes", "bytes",
                        "heap bytes of the most recent engine's U + Z + P",
                        engine.stats_.state_bytes);
  if (options.precision != Precision::kF64) {
    CSR_RETURN_IF_ERROR(engine.SetServingPrecision(options.precision));
  }
  return engine;
}

Status CsrPlusEngine::SetServingPrecision(Precision precision) {
  if (precision == precision_) return Status::OK();
  if (precision == Precision::kF64) {
    // The double masters were never dropped — just release the mirrors.
    precision_ = Precision::kF64;
    std::vector<float>().swap(u32_);
    std::vector<float>().swap(z32_);
    return Status::OK();
  }
  const Index n = num_nodes();
  const Index r = rank();
  const std::size_t total = static_cast<std::size_t>(n) * static_cast<std::size_t>(r);
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      2 * static_cast<int64_t>(total) * static_cast<int64_t>(sizeof(float)),
      "CSR+ f32 serving factors"));
  u32_.resize(total);
  z32_.resize(total);
  const double* u_src = u().data();
  const double* z_src = z().data();
  for (std::size_t i = 0; i < total; ++i) {
    u32_[i] = static_cast<float>(u_src[i]);
    z32_[i] = static_cast<float>(z_src[i]);
  }
  precision_ = Precision::kF32;
  return Status::OK();
}

uint64_t CsrPlusEngine::StateFingerprint() const {
  // No graph fingerprint means the engine cannot tie its answers to a
  // specific input (PrecomputeFromPaperFactors path) — never cacheable.
  if (fingerprint_.empty()) return 0;
  const Index r = rank();
  const uint64_t damping_bits = std::bit_cast<uint64_t>(damping_);
  const uint64_t epsilon_bits = std::bit_cast<uint64_t>(epsilon_);
  uint64_t hash = precompute_io::kFnvOffsetBasis;
  hash = precompute_io::FnvHash(hash, &fingerprint_.num_nodes,
                                sizeof(fingerprint_.num_nodes));
  hash = precompute_io::FnvHash(hash, &fingerprint_.nnz,
                                sizeof(fingerprint_.nnz));
  hash = precompute_io::FnvHash(hash, &fingerprint_.content_hash,
                                sizeof(fingerprint_.content_hash));
  hash = precompute_io::FnvHash(hash, &r, sizeof(r));
  hash = precompute_io::FnvHash(hash, &damping_bits, sizeof(damping_bits));
  hash = precompute_io::FnvHash(hash, &epsilon_bits, sizeof(epsilon_bits));
  if (precision_ == Precision::kF32) {
    // The f32 tier answers differently, so it must never share cached
    // columns with its f64 twin. f64 fingerprints are unchanged from
    // before the tier existed, keeping existing caches/artifacts valid.
    const char tag[] = "f32";
    hash = precompute_io::FnvHash(hash, tag, sizeof(tag));
  }
  // FNV never maps non-empty input to 0 in practice, but 0 is the reserved
  // "uncacheable" value, so steer clear of it deterministically.
  return hash == 0 ? 1 : hash;
}

Result<DenseMatrix> CsrPlusEngine::MultiSourceQuery(
    const std::vector<Index>& queries) const {
  const Index n = num_nodes();
  CSR_RETURN_IF_ERROR(ValidateQueries(queries, n));
  // Account both the n x |Q| output block and the transient scratch — near
  // the cap the query fails for the block *plus* its scratch, keeping the
  // "fails due to memory explosion" reproduction honest.
  const Index nq = static_cast<Index>(queries.size());
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      n * nq * static_cast<int64_t>(sizeof(double)) + QueryScratchBytes(nq),
      "CSR+ multi-source output"));
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.query_us",
                        "top-level CSR+ query entry points (Alg. 1 line 7)");
  CSRPLUS_OBS_COUNTER_ADD("csrplus.query.multi_source", "calls",
                          "MultiSourceQuery invocations", 1);
  CSRPLUS_OBS_COUNTER_ADD("csrplus.query.sources", "nodes",
                          "total query sources across all query calls",
                          queries.size());
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kQuery, "num_queries",
                         static_cast<int64_t>(queries.size()));
  CSRPLUS_TRACE_ARG(span, "n", n);
  // Line 7: [S]_{*,Q} = [I_n]_{*,Q} + c Z [U]_{Q,*}^T.
  return ScoreBlock(queries);
}

int64_t CsrPlusEngine::QueryScratchBytes(Index num_queries) const {
  const Index n = num_nodes();
  const Index r = rank();
  if (precision_ == Precision::kF64) {
    return r * num_queries * static_cast<int64_t>(sizeof(double));
  }
  const int64_t panel_rows = std::min<int64_t>(
      n, ParallelShardCount(n, n * r * num_queries) * PanelRows(num_queries, r));
  return (r + panel_rows) * num_queries * static_cast<int64_t>(sizeof(float));
}

CsrPlusEngine::QueryOperand CsrPlusEngine::MakeQueryOperand(
    const std::vector<Index>& queries) const {
  const Index r = rank();
  const std::size_t nq = queries.size();
  QueryOperand operand;
  operand.queries = &queries;
  if (precision_ == Precision::kF32) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.kernel.f32_queries", "calls",
                            "queries answered by the float32 serving tier",
                            1);
  }
  // bt[p][j] = U[queries[j]][p]: [U]_{Q,*}^T laid out for the NN driver.
  const auto fill = [&](auto* bt, auto row_of) {
    bt->resize(static_cast<std::size_t>(r) * nq);
    for (std::size_t j = 0; j < nq; ++j) {
      const auto* uq = row_of(queries[j]);
      for (Index p = 0; p < r; ++p) {
        (*bt)[static_cast<std::size_t>(p) * nq + j] = uq[p];
      }
    }
  };
  if (precision_ == Precision::kF32) {
    fill(&operand.f32, [&](Index q) {
      return u32_.data() + static_cast<std::size_t>(q * r);
    });
  } else {
    const DenseMatrixView u_view = u();
    fill(&operand.f64, [&](Index q) { return u_view.RowPtr(q); });
  }
  return operand;
}

void CsrPlusEngine::ScoreRows(const QueryOperand& operand, Index begin,
                              Index end, double* out,
                              std::vector<float>* scratch) const {
  const Index r = rank();
  const std::vector<Index>& queries = *operand.queries;
  const Index nq = static_cast<Index>(queries.size());
  const Index panel = PanelRows(nq, r);
  for (Index p0 = begin; p0 < end; p0 += panel) {
    const Index rows = std::min(panel, end - p0);
    double* dst = out + (p0 - begin) * nq;
    if (precision_ == Precision::kF32) {
      // Float accumulation through the SIMD axpy (each element's products
      // in ascending p — the same float sequence the f32 single-source dot
      // computes), then the widening damping multiply in double.
      scratch->assign(static_cast<std::size_t>(rows * nq), 0.0f);
      linalg::kernels::GemmNnTiled(
          linalg::kernels::F32(),
          z32_.data() + static_cast<std::size_t>(p0 * r), r,
          operand.f32.data(), nq, scratch->data(), nq, rows, r, nq);
      for (Index e = 0; e < rows * nq; ++e) {
        dst[e] = damping_ *
                 static_cast<double>((*scratch)[static_cast<std::size_t>(e)]);
      }
    } else {
      const linalg::kernels::KernelTable<double>& kt = linalg::kernels::F64();
      linalg::kernels::GemmNnTiled(kt, z().RowPtr(p0), r, operand.f64.data(),
                                   nq, dst, nq, rows, r, nq);
      kt.scale(dst, damping_, rows * nq);
    }
  }
  for (Index j = 0; j < nq; ++j) {
    const Index q = queries[static_cast<std::size_t>(j)];
    if (q >= begin && q < end) out[(q - begin) * nq + j] += 1.0;
  }
}

DenseMatrix CsrPlusEngine::ScoreBlock(const std::vector<Index>& queries) const {
  const Index n = num_nodes();
  const Index nq = static_cast<Index>(queries.size());
  const QueryOperand operand = MakeQueryOperand(queries);
  DenseMatrix s(n, nq);
  ParallelFor(n, n * rank() * nq, [&](Index begin, Index end) {
    std::vector<float> scratch;
    ScoreRows(operand, begin, end, s.RowPtr(begin), &scratch);
  });
  return s;
}

Result<std::vector<double>> CsrPlusEngine::SingleSourceQuery(
    Index query) const {
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.query_us",
                        "top-level CSR+ query entry points (Alg. 1 line 7)");
  std::vector<double> out;
  CSR_RETURN_IF_ERROR(SingleSourceQueryInto(query, &out));
  return out;
}

Status CsrPlusEngine::SingleSourceQueryInto(Index query,
                                            std::vector<double>* out) const {
  const Index n = num_nodes();
  if (query < 0 || query >= n) {
    return Status::InvalidArgument("query node out of range");
  }
  CSRPLUS_OBS_SCOPED_US(
      "csrplus.query.latency_us",
      "per-source query latency (may nest under batch entry points)");
  CSRPLUS_OBS_COUNTER_ADD("csrplus.query.single_source", "calls",
                          "single-source query columns computed", 1);
  CSRPLUS_TRACE_SPAN(span, obs::spans::kQuery);
  const Index r = rank();
  out->resize(static_cast<std::size_t>(n));
  double* data = out->data();
  if (precision_ == Precision::kF32) {
    CSRPLUS_OBS_COUNTER_ADD("csrplus.kernel.f32_queries", "calls",
                            "queries answered by the float32 serving tier",
                            1);
    const float* urow =
        u32_.data() + static_cast<std::size_t>(query) * static_cast<std::size_t>(r);
    const linalg::kernels::KernelTable<float>& kt = linalg::kernels::F32();
    ParallelFor(n, n * r, [&](Index begin, Index end) {
      std::vector<float> dots(static_cast<std::size_t>(end - begin));
      kt.dot_rows(
          z32_.data() + static_cast<std::size_t>(begin) * static_cast<std::size_t>(r),
          r, urow, dots.data(), end - begin, r);
      for (Index i = begin; i < end; ++i) {
        data[i] = damping_ *
                  static_cast<double>(dots[static_cast<std::size_t>(i - begin)]);
      }
    });
    data[query] += 1.0;
    return Status::OK();
  }
  const DenseMatrixView z_view = z();
  const double* urow = u().RowPtr(query);
  const linalg::kernels::KernelTable<double>& kt = linalg::kernels::F64();
  // dot_rows leaves data[i] = <Z_i, U_q>; the scale pass applies the same
  // damping_ * dot multiply the fused scalar loop used to (one rounding
  // either way — bitwise unchanged).
  ParallelFor(n, n * r, [&](Index begin, Index end) {
    kt.dot_rows(z_view.RowPtr(begin), r, urow, data + begin, end - begin, r);
    kt.scale(data + begin, damping_, end - begin);
  });
  data[query] += 1.0;
  return Status::OK();
}

Result<double> CsrPlusEngine::SinglePairQuery(Index a, Index b) const {
  const Index n = num_nodes();
  if (a < 0 || a >= n || b < 0 || b >= n) {
    return Status::InvalidArgument("node out of range");
  }
  // O(r) work: a counter only — a clock pair here would dominate the query.
  CSRPLUS_OBS_COUNTER_ADD("csrplus.query.single_pair", "calls",
                          "single-pair O(r) score lookups", 1);
  const Index r = rank();
  if (precision_ == Precision::kF32) {
    // Same float accumulation sequence as the f32 column kernels, so the
    // pair score equals the corresponding column entry bit-for-bit.
    const float* zrow =
        z32_.data() + static_cast<std::size_t>(a) * static_cast<std::size_t>(r);
    const float* urow =
        u32_.data() + static_cast<std::size_t>(b) * static_cast<std::size_t>(r);
    float dot = 0.0f;
    for (Index k = 0; k < r; ++k) dot += zrow[k] * urow[k];
    return damping_ * static_cast<double>(dot) + (a == b ? 1.0 : 0.0);
  }
  const double* zrow = z().RowPtr(a);
  const double* urow = u().RowPtr(b);
  double dot = 0.0;
  for (Index k = 0; k < r; ++k) dot += zrow[k] * urow[k];
  return damping_ * dot + (a == b ? 1.0 : 0.0);
}

Result<TopKLists> CsrPlusEngine::TopKQuery(const std::vector<Index>& queries,
                                           Index k, bool exclude_query) const {
  if (k < 0) {
    return Status::InvalidArgument("k must be non-negative");
  }
  const Index n = num_nodes();
  CSR_RETURN_IF_ERROR(ValidateQueries(queries, n));
  const Index nq = static_cast<Index>(queries.size());
  const Index r = rank();
  const Index width = SelectionWidth(k, exclude_query ? 1 : 0, n);
  const int shards = ParallelShardCount(n, n * r * nq);
  const Index panel = PanelRows(nq, r);
  // Transient scratch: the query operand, one score panel per shard, and the
  // shard selectors, which hold at most min(width, shard rows) entries each.
  const int64_t scratch_bytes =
      QueryScratchBytes(nq) +
      shards * panel * nq * static_cast<int64_t>(sizeof(double)) +
      nq * std::min<int64_t>(n, shards * width) *
          static_cast<int64_t>(sizeof(ScoredNode));
  CSR_RETURN_IF_ERROR(
      MemoryBudget::Global().TryReserve(scratch_bytes, "CSR+ top-k scratch"));
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.query_us",
                        "top-level CSR+ query entry points (Alg. 1 line 7)");
  CSRPLUS_OBS_COUNTER_ADD("csrplus.query.sources", "nodes",
                          "total query sources across all query calls",
                          queries.size());
  CSRPLUS_TRACE_SPAN_ARG(topk_span, obs::spans::kQuery, "num_queries",
                         static_cast<int64_t>(queries.size()));
  CSRPLUS_TRACE_ARG(topk_span, "n", n);
  TopKLists out(queries.size());
  if (width == 0) return out;

  // Each shard owns a contiguous row range and one selector per query; a
  // panel is produced exactly as MultiSourceQuery would, then scanned while
  // it is still cache-hot.
  const QueryOperand operand = MakeQueryOperand(queries);
  std::vector<std::vector<TopKSelector>> selectors(
      static_cast<std::size_t>(shards),
      std::vector<TopKSelector>(queries.size(), TopKSelector(width)));
  ParallelForShards(n, shards, [&](int s, Index begin, Index end) {
    std::vector<TopKSelector>& mine = selectors[static_cast<std::size_t>(s)];
    std::vector<double> scores(static_cast<std::size_t>(panel * nq));
    std::vector<float> scratch;
    for (Index p0 = begin; p0 < end; p0 += panel) {
      const Index rows = std::min(panel, end - p0);
      std::fill_n(scores.begin(), rows * nq, 0.0);
      ScoreRows(operand, p0, p0 + rows, scores.data(), &scratch);
      for (Index j = 0; j < nq; ++j) {
        TopKSelector& selector = mine[static_cast<std::size_t>(j)];
        const double* column = scores.data() + j;
        for (Index i = 0; i < rows; ++i) {
          selector.Offer(p0 + i, column[i * nq]);
        }
      }
    }
  });

  // Merge the shard selectors; RanksBefore is a strict total order, so the
  // result is independent of how the rows were split.
  {
    CSRPLUS_OBS_SCOPED_US(
        "csrplus.query.topk_select_us",
        "top-k selection pass per call (block scan or fused shard merge)");
    CSRPLUS_TRACE_SPAN_ARG(select_span, obs::spans::kTopKSelect, "columns",
                           nq);
    for (std::size_t j = 0; j < queries.size(); ++j) {
      TopKSelector& merged = selectors[0][j];
      for (std::size_t s = 1; s < selectors.size(); ++s) {
        merged.Merge(selectors[s][j]);
      }
      out[j] = TrimTopK(merged.Take(), k,
                        exclude_query ? std::span<const Index>(&queries[j], 1)
                                      : std::span<const Index>());
    }
  }
  return out;
}

Result<std::vector<CsrPlusEngine::ScoredPair>> CsrPlusEngine::AllPairsTopK(
    Index k) const {
  if (k < 0) {
    return Status::InvalidArgument("k must be non-negative");
  }
  const Index n = num_nodes();
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.query_us",
                        "top-level CSR+ query entry points (Alg. 1 line 7)");
  CSRPLUS_TRACE_SPAN_ARG(join_span, obs::spans::kQuery, "n", n);
  // Min-heap on score (worst pair at front) capped at k entries. Each shard
  // owns a contiguous range of source rows, reuses one n-length column
  // buffer across its sources (no per-source allocation), and keeps a
  // private top-k heap; shard heaps are merged under the same strict total
  // order afterwards, so the result equals the serial scan for any thread
  // count.
  const auto better = [](const ScoredPair& x, const ScoredPair& y) {
    if (ScoreRanksAbove(x.score, y.score)) return true;
    if (ScoreRanksAbove(y.score, x.score)) return false;
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  };
  const int shards = ParallelShardCount(n, n * n);
  std::vector<std::vector<ScoredPair>> shard_heaps(
      static_cast<std::size_t>(shards));
  ParallelForShards(n, shards, [&](int s, Index begin, Index end) {
    std::vector<ScoredPair>& heap = shard_heaps[static_cast<std::size_t>(s)];
    heap.reserve(static_cast<std::size_t>(k));
    std::vector<double> column;
    for (Index a = begin; a < end; ++a) {
      CSR_CHECK_OK(SingleSourceQueryInto(a, &column));
      for (Index b = a + 1; b < n; ++b) {
        const ScoredPair candidate{a, b, column[static_cast<std::size_t>(b)]};
        if (static_cast<Index>(heap.size()) < k) {
          heap.push_back(candidate);
          std::push_heap(heap.begin(), heap.end(), better);
        } else if (k > 0 && better(candidate, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), better);
          heap.back() = candidate;
          std::push_heap(heap.begin(), heap.end(), better);
        }
      }
    }
  });
  std::vector<ScoredPair> merged;
  for (const auto& heap : shard_heaps) {
    merged.insert(merged.end(), heap.begin(), heap.end());
  }
  std::sort(merged.begin(), merged.end(), better);
  if (static_cast<Index>(merged.size()) > k) {
    merged.resize(static_cast<std::size_t>(k));
  }
  return merged;
}

Result<DenseMatrix> CsrPlusEngine::AllPairs() const {
  const Index n = num_nodes();
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      n * n * static_cast<int64_t>(sizeof(double)) + QueryScratchBytes(n),
      "CSR+ all-pairs output"));
  CSRPLUS_OBS_SCOPED_US("csrplus.phase.query_us",
                        "top-level CSR+ query entry points (Alg. 1 line 7)");
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kQuery, "n", n);
  std::vector<Index> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), Index{0});
  return ScoreBlock(all);
}

}  // namespace csrplus::core
