#include "core/csrplus_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <tuple>
#include <type_traits>
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

// Euclidean norm of an r-entry row, computed in double with dnrm2-style
// scaling so that squaring can neither underflow nor overflow. NaN when any
// entry is NaN, +inf when any entry is infinite.
template <typename T>
double RowNorm(const T* row, Index r) {
  double scale = 0.0;
  for (Index p = 0; p < r; ++p) {
    const double a = std::fabs(static_cast<double>(row[p]));
    if (std::isnan(a)) return a;
    scale = std::max(scale, a);
  }
  if (scale == 0.0 || std::isinf(scale)) return scale;
  double sum = 0.0;
  for (Index p = 0; p < r; ++p) {
    const double x = static_cast<double>(row[p]) / scale;
    sum += x * x;
  }
  return scale * std::sqrt(sum);
}

// Cauchy-Schwarz bound of one query for the pruned top-k walk: for a row of
// norm ||Z_i|| it returns a value at or above every *computed* off-diagonal
// score c <Z_i, U_q>, or NaN when it knows none (a NaN bound never lets a
// query retire). The derivation is in docs/architecture.md ("Top-k
// search"): the relative slack covers the dot product's accumulation error
// (gamma_{r+2} in the accumulation precision) plus the rounding of the
// norms, the damping multiply and the bound's own products; the absolute
// term covers subnormal products. Past `limit` the accumulation itself may
// overflow to +inf (float overflows long before the double bound does), so
// no finite bound holds there.
struct QueryBound {
  double u_norm;     // ||U_q||
  double factor;     // c (1 + slack)
  double limit;      // c times a quarter of the accumulation type's max
  double subnormal;  // (r + 2) denorm_min of the accumulation type

  static QueryBound Make(double u_norm, double damping, Index r, bool f32) {
    const auto gamma = [](double m, double unit) {
      return m * unit / (1.0 - m * unit);
    };
    const double rank = static_cast<double>(r);
    const double unit = f32 ? 0x1p-24 : 0x1p-53;
    const double slack =
        2.0 * (gamma(rank + 2.0, unit) + gamma(3.0 * rank + 16.0, 0x1p-53));
    const double max =
        f32 ? static_cast<double>(std::numeric_limits<float>::max())
            : std::numeric_limits<double>::max();
    const double denorm =
        f32 ? static_cast<double>(std::numeric_limits<float>::denorm_min())
            : std::numeric_limits<double>::denorm_min();
    return {u_norm, damping * (1.0 + slack), damping * (max / 4.0),
            (rank + 2.0) * denorm};
  }

  double operator()(double z_norm) const {
    // A zero row on either side makes every product exactly zero.
    if ((z_norm == 0.0 && std::isfinite(u_norm)) ||
        (u_norm == 0.0 && std::isfinite(z_norm))) {
      return 0.0;
    }
    const double scaled = (z_norm * u_norm) * factor;
    return scaled < limit ? scaled + subnormal
                          : std::numeric_limits<double>::quiet_NaN();
  }
};

}  // namespace

// The lazily built norm index of the pruned top-k walk.
struct CsrPlusEngine::TopKIndex {
  std::mutex mu;  // guards the three fields below until `built` is set
  bool built = false;
  std::vector<double> norms;   // RowNorm of every row of the serving Z
  std::vector<int32_t> order;  // rows by norm descending, NaN last, then id
};

CsrPlusEngine::CsrPlusEngine() : topk_index_(std::make_shared<TopKIndex>()) {}

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
    topk_index_ = std::make_shared<TopKIndex>();
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
  topk_index_ = std::make_shared<TopKIndex>();
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

double CsrPlusEngine::ScoreEntry(const QueryOperand& operand, Index row,
                                 Index j) const {
  const Index r = rank();
  const Index nq = static_cast<Index>(operand.queries->size());
  const bool diagonal = (*operand.queries)[static_cast<std::size_t>(j)] == row;
  // One-element GemmNnTiled + scale: the scalar lane of the panel kernels.
  if (precision_ == Precision::kF32) {
    float acc = 0.0f;
    linalg::kernels::GemmNnTiled(
        linalg::kernels::F32(), z32_.data() + static_cast<std::size_t>(row * r),
        r, operand.f32.data() + j, nq, &acc, 1, 1, r, 1);
    const double score = damping_ * static_cast<double>(acc);
    return diagonal ? score + 1.0 : score;
  }
  const linalg::kernels::KernelTable<double>& kt = linalg::kernels::F64();
  double score = 0.0;
  linalg::kernels::GemmNnTiled(kt, z().RowPtr(row), r, operand.f64.data() + j,
                               nq, &score, 1, 1, r, 1);
  kt.scale(&score, damping_, 1);
  return diagonal ? score + 1.0 : score;
}

Result<const CsrPlusEngine::TopKIndex*> CsrPlusEngine::EnsureTopKIndex()
    const {
  TopKIndex& index = *topk_index_;
  std::lock_guard<std::mutex> lock(index.mu);
  if (index.built) return &index;
  const Index n = num_nodes();
  const Index r = rank();
  CSR_CHECK(n <= std::numeric_limits<int32_t>::max());
  CSR_RETURN_IF_ERROR(MemoryBudget::Global().TryReserve(
      n * static_cast<int64_t>(sizeof(double) + sizeof(int32_t)),
      "CSR+ top-k norm index"));
  CSRPLUS_OBS_SCOPED_US("csrplus.query.topk_index_us",
                        "one-time build of the top-k norm index (row norms "
                        "of Z and their order)");
  index.norms.resize(static_cast<std::size_t>(n));
  const DenseMatrixView z_view = z();
  ParallelFor(n, n * r, [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      index.norms[static_cast<std::size_t>(i)] =
          precision_ == Precision::kF32
              ? RowNorm(z32_.data() + static_cast<std::size_t>(i * r), r)
              : RowNorm(z_view.RowPtr(i), r);
    }
  });
  // Norm descending, NaN last, ties by id: RanksBefore on (row, norm).
  index.order.resize(static_cast<std::size_t>(n));
  std::iota(index.order.begin(), index.order.end(), 0);
  const std::vector<double>& norms = index.norms;
  std::sort(index.order.begin(), index.order.end(),
            [&norms](int32_t a, int32_t b) {
              return RanksBefore({a, norms[static_cast<std::size_t>(a)]},
                                 {b, norms[static_cast<std::size_t>(b)]});
            });
  index.built = true;
  return &index;
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
  const bool f32 = precision_ == Precision::kF32;
  const int64_t elem = f32 ? sizeof(float) : sizeof(double);
  const int shards = ParallelShardCount(n, n * r * nq);
  const Index block = PanelRows(nq, r);
  // Transient scratch: the query operand; per shard a score panel (plus its
  // widened copy on the f32 tier) and a compacted operand; and the shard
  // selectors, which hold at most min(width, shard rows) entries per query.
  const int64_t panel_bytes =
      (block + r) * nq * elem +
      (f32 ? block * nq * static_cast<int64_t>(sizeof(double)) : 0);
  const int64_t scratch_bytes =
      r * nq * elem + shards * panel_bytes +
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
  CSR_ASSIGN_OR_RETURN(const TopKIndex* index, EnsureTopKIndex());
  const std::vector<double>& norms = index->norms;
  const std::vector<int32_t>& order = index->order;

  const QueryOperand operand = MakeQueryOperand(queries);
  std::vector<QueryBound> bounds;
  bounds.reserve(queries.size());
  for (const Index q : queries) {
    const double u_norm =
        f32 ? RowNorm(u32_.data() + static_cast<std::size_t>(q * r), r)
            : RowNorm(u().RowPtr(q), r);
    bounds.push_back(QueryBound::Make(u_norm, damping_, r, f32));
  }

  // Shard s walks blocks s, s + S, ... of the norm order, so every later
  // block of a shard has norms at or below its current block's leading
  // row. A query's own row carries the diagonal 1, which its bound does not
  // cover: the walk adds it where it meets the row, as ScoreRows does, and
  // the merge scores the row if the walk retired before reaching it.
  const auto keyed = [&norms](Index row) {
    return ScoredNode{row, norms[static_cast<std::size_t>(row)]};
  };
  std::vector<Index> own_position(queries.size());
  for (std::size_t j = 0; j < queries.size(); ++j) {
    own_position[j] =
        std::lower_bound(order.begin(), order.end(), keyed(queries[j]),
                         [&keyed](int32_t row, const ScoredNode& key) {
                           return RanksBefore(keyed(row), key);
                         }) -
        order.begin();
  }
  struct ShardWalk {
    std::vector<TopKSelector> selectors;
    std::vector<Index> stopped_at;  // per query: first block not scanned
    int64_t scored = 0;
  };
  std::vector<ShardWalk> walks(static_cast<std::size_t>(shards));
  const Index num_blocks = (n + block - 1) / block;
  const auto walk = [&](const auto& kt, const auto* z_data, const auto* bt,
                        ShardWalk* mine, Index first_block) {
    using T = std::remove_cvref_t<decltype(*z_data)>;
    mine->selectors.assign(queries.size(), TopKSelector(width));
    mine->stopped_at.assign(queries.size(), num_blocks);
    std::vector<Index> active(queries.size());
    std::iota(active.begin(), active.end(), Index{0});
    Index operand_for = -1;  // active-set size the compact operand holds
    std::vector<T> compact;
    std::vector<T> acc(static_cast<std::size_t>(block * nq));
    std::vector<double> widened;  // f32 only: the scores in double
    for (Index b = first_block; b < num_blocks; b += shards) {
      const Index begin = b * block;
      const Index rows = std::min(block, n - begin);
      const double lead = norms[static_cast<std::size_t>(order[begin])];
      std::erase_if(active, [&](Index j) {
        const auto c = static_cast<std::size_t>(j);
        const TopKSelector& selector = mine->selectors[c];
        if (!selector.full()) return false;
        if (!(bounds[c](lead) <= selector.worst().score)) return false;
        mine->stopped_at[c] = b;
        return true;
      });
      if (active.empty()) break;
      const Index na = static_cast<Index>(active.size());
      if (na != operand_for) {
        compact.resize(static_cast<std::size_t>(r * na));
        for (Index p = 0; p < r; ++p) {
          for (Index a = 0; a < na; ++a) {
            compact[static_cast<std::size_t>(p * na + a)] =
                bt[p * nq + active[static_cast<std::size_t>(a)]];
          }
        }
        operand_for = na;
      }
      // Row by row, straight from Z: GemmNnTiled runs its rows one at a
      // time anyway, so copying the block's rows together would add only
      // the copy.
      std::fill_n(acc.begin(), rows * na, T(0));
      for (Index t = 0; t < rows; ++t) {
        linalg::kernels::GemmNnTiled(
            kt, z_data + static_cast<std::size_t>(order[begin + t]) * r, r,
            compact.data(), na, acc.data() + t * na, na, 1, r, na);
      }
      double* scores = nullptr;
      if constexpr (std::is_same_v<T, double>) {
        kt.scale(acc.data(), damping_, rows * na);
        scores = acc.data();
      } else {
        widened.resize(static_cast<std::size_t>(rows * na));
        for (Index e = 0; e < rows * na; ++e) {
          widened[static_cast<std::size_t>(e)] =
              damping_ * static_cast<double>(acc[static_cast<std::size_t>(e)]);
        }
        scores = widened.data();
      }
      for (Index a = 0; a < na; ++a) {
        const auto c = static_cast<std::size_t>(active[static_cast<std::size_t>(a)]);
        const Index own = own_position[c] - begin;
        if (own >= 0 && own < rows) scores[own * na + a] += 1.0;
        TopKSelector& selector = mine->selectors[c];
        for (Index t = 0; t < rows; ++t) {
          selector.Offer(order[begin + t], scores[t * na + a]);
        }
      }
      mine->scored += rows * na;
    }
  };
  ParallelForShards(shards, shards, [&](int s, Index, Index) {
    ShardWalk* mine = &walks[static_cast<std::size_t>(s)];
    if (f32) {
      walk(linalg::kernels::F32(), z32_.data(), operand.f32.data(), mine, s);
    } else {
      walk(linalg::kernels::F64(), z().data(), operand.f64.data(), mine, s);
    }
  });

  // Merge under RanksBefore (a strict total order, so the result does not
  // depend on the split), add the query's own row if the walk left it
  // unscanned, then probe the rows a retired shard left unscanned that
  // could still tie the kth entry.
  int64_t scored = 0;
  for (const ShardWalk& walked : walks) scored += walked.scored;
  {
    CSRPLUS_OBS_SCOPED_US(
        "csrplus.query.topk_select_us",
        "top-k selection per call (block scan, or shard merge and tie probe)");
    CSRPLUS_TRACE_SPAN_ARG(select_span, obs::spans::kTopKSelect, "columns", nq);
    for (Index j = 0; j < nq; ++j) {
      const auto c = static_cast<std::size_t>(j);
      const Index q = queries[c];
      TopKSelector merged = std::move(walks[0].selectors[c]);
      // The largest bound a shard retired the query at; NaN if none did.
      double retired_max = std::numeric_limits<double>::quiet_NaN();
      for (std::size_t s = 0; s < walks.size(); ++s) {
        if (s > 0) merged.Merge(walks[s].selectors[c]);
        const Index stop = walks[s].stopped_at[c];
        if (stop < num_blocks) {
          retired_max = std::fmax(
              retired_max,
              bounds[c](norms[static_cast<std::size_t>(order[stop * block])]));
        }
      }
      const Index own_block = own_position[c] / block;
      if (own_block >=
          walks[static_cast<std::size_t>(own_block % shards)].stopped_at[c]) {
        merged.Offer(q, ScoreEntry(operand, q, j));
        ++scored;
      }
      // An unscanned row scores at most its bound, which is at most its
      // shard's retirement bound, which is at most the kth score. It can
      // still enter only with exactly that score and a smaller id.
      if (!std::isnan(retired_max) &&
          retired_max >= merged.worst().score) {
        std::vector<Index> members;
        for (const ScoredNode& entry : merged.kept()) {
          members.push_back(entry.node);
        }
        std::sort(members.begin(), members.end());
        const QueryBound& bound = bounds[c];
        for (Index i = 0; i < merged.worst().node; ++i) {
          if (i == q || std::binary_search(members.begin(), members.end(), i) ||
              std::isnan(norms[static_cast<std::size_t>(i)]) ||
              bound(norms[static_cast<std::size_t>(i)]) <
                  merged.worst().score) {
            continue;
          }
          // Re-offering a row the walk already scored is harmless: it lost
          // to an entry that is still kept or was displaced by a better one.
          merged.Offer(i, ScoreEntry(operand, i, j));
          ++scored;
        }
      }
      out[c] = TrimTopK(merged.Take(), k,
                        exclude_query ? std::span<const Index>(&queries[c], 1)
                                      : std::span<const Index>());
    }
  }
  CSRPLUS_OBS_COUNTER_ADD("csrplus.query.topk_rows_scored", "pairs",
                          "row x query scores computed by TopKQuery", scored);
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
