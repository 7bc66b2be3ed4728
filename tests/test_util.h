// Shared helpers for the csrplus test suite.

#ifndef CSRPLUS_TESTS_TEST_UTIL_H_
#define CSRPLUS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "core/topk.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/dense_ops.h"
#include "linalg/kernels/kernels.h"
#include "linalg/sparse_matrix.h"

namespace csrplus::testing {

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Index;

/// The paper's Figure 1(a) Wiki-Talk toy graph; nodes a..f = 0..5. Its
/// column-normalised transition matrix is printed in Example 3.6, which the
/// tests reproduce digit for digit.
inline graph::Graph Figure1Graph() {
  graph::GraphBuilder builder(6);
  const Index a = 0, b = 1, c = 2, d = 3, e = 4, f = 5;
  for (auto [u, v] : std::vector<std::pair<Index, Index>>{
           {d, a}, {a, b}, {c, b}, {e, b}, {d, c}, {a, d},
           {e, d}, {f, d}, {c, e}, {f, e}, {d, f}}) {
    builder.AddEdge(u, v);
  }
  auto result = builder.Build();
  CSR_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

/// A random dense matrix with standard normal entries.
inline DenseMatrix RandomDense(Index rows, Index cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.Gaussian();
  }
  return m;
}

/// A random sparse matrix with ~`nnz` normal entries at uniform coordinates.
inline CsrMatrix RandomSparse(Index rows, Index cols, int64_t nnz,
                              uint64_t seed) {
  Rng rng(seed);
  linalg::CooMatrix coo(rows, cols);
  for (int64_t k = 0; k < nnz; ++k) {
    coo.Add(static_cast<Index>(rng.Below(static_cast<uint64_t>(rows))),
            static_cast<Index>(rng.Below(static_cast<uint64_t>(cols))),
            rng.Gaussian());
  }
  return CsrMatrix::FromCoo(coo);
}

/// A random directed graph for integration tests (Erdős–Rényi style built by
/// hand so this header has no generator dependency).
inline graph::Graph RandomGraph(Index nodes, int64_t edges, uint64_t seed) {
  Rng rng(seed);
  graph::GraphBuilder builder(nodes);
  for (int64_t k = 0; k < edges; ++k) {
    const Index u =
        static_cast<Index>(rng.Below(static_cast<uint64_t>(nodes)));
    const Index v =
        static_cast<Index>(rng.Below(static_cast<uint64_t>(nodes)));
    builder.AddEdge(u, v);
  }
  auto result = builder.Build();
  CSR_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

/// Overrides the shared pool width for one scope, restoring the ambient
/// setting on exit (tests must not leak thread-count changes).
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) : saved_(GetNumThreads()) {
    SetNumThreads(n);
  }
  ~ScopedNumThreads() { SetNumThreads(saved_); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int saved_;
};

/// Forces the process-wide kernel dispatch tables to one ISA for the scope,
/// restoring the previously active ISA on exit. Construct only with a
/// supported ISA (SetActiveIsa CHECK-fails otherwise) — sweeps should test
/// linalg::kernels::IsaSupported first and skip-with-log.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(linalg::kernels::Isa isa)
      : saved_(linalg::kernels::ActiveIsa()) {
    linalg::kernels::SetActiveIsa(isa);
  }
  ~ScopedKernelIsa() { linalg::kernels::SetActiveIsa(saved_); }
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;

 private:
  linalg::kernels::Isa saved_;
};

/// All ISA enum values in dispatch order, for parameterized sweeps. Tests
/// must skip (with a log line) the entries IsaSupported rejects — e.g.
/// avx512 on older CPUs — rather than assume availability.
inline const std::vector<linalg::kernels::Isa>& AllKernelIsas() {
  static const std::vector<linalg::kernels::Isa> kIsas = {
      linalg::kernels::Isa::kPortable, linalg::kernels::Isa::kAvx2,
      linalg::kernels::Isa::kAvx512};
  return kIsas;
}

/// gtest predicate: max-abs difference between two matrices at most tol.
/// Takes views so owning matrices and engine factor views both work.
inline ::testing::AssertionResult MatricesNear(linalg::DenseMatrixView a,
                                               linalg::DenseMatrixView b,
                                               double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  const double diff = linalg::MaxAbsDiff(a, b);
  if (diff > tol) {
    return ::testing::AssertionFailure()
           << "max abs diff " << diff << " > " << tol;
  }
  return ::testing::AssertionSuccess();
}

/// gtest predicate: two top-k lists hold the same nodes with bit-identical
/// scores, in the same order (unlike ScoredNode::operator==, a NaN score
/// equals a NaN with the same bits).
inline ::testing::AssertionResult SameTopK(
    const std::vector<core::ScoredNode>& a,
    const std::vector<core::ScoredNode>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "list lengths differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node ||
        std::bit_cast<uint64_t>(a[i].score) !=
            std::bit_cast<uint64_t>(b[i].score)) {
      return ::testing::AssertionFailure()
             << "entry " << i << " differs: (" << a[i].node << ", "
             << a[i].score << ") vs (" << b[i].node << ", " << b[i].score
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace csrplus::testing

#endif  // CSRPLUS_TESTS_TEST_UTIL_H_
