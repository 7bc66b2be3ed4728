#include "core/csrplus_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "common/memory.h"
#include "common/rng.h"
#include "core/cosimrank.h"
#include "core/precompute_io.h"
#include "graph/generators/generators.h"
#include "graph/normalize.h"
#include "obs/stats.h"
#include "test_util.h"

namespace csrplus::core {
namespace {

using csrplus::testing::Figure1Graph;
using csrplus::testing::MatricesNear;
using csrplus::testing::RandomGraph;
using csrplus::testing::SameTopK;
using csrplus::testing::ScopedKernelIsa;
using csrplus::testing::ScopedNumThreads;

TEST(RepeatedSquaringIterationsTest, MatchesAlgorithm1Bound) {
  // c = 0.6, eps = 1e-5: log_c(eps) = 22.54, floor(log2) = 4, +1 = 5.
  EXPECT_EQ(RepeatedSquaringIterations(0.6, 1e-5), 5);
  // c = 0.8, eps = 1e-5: log_c = 51.6, floor(log2) = 5, +1 = 6.
  EXPECT_EQ(RepeatedSquaringIterations(0.8, 1e-5), 6);
  // Very loose accuracy degenerates to a single squaring step.
  EXPECT_EQ(RepeatedSquaringIterations(0.6, 0.59), 1);
  // Accuracy looser than one application of c clamps at zero.
  EXPECT_EQ(RepeatedSquaringIterations(0.6, 0.9), 0);
}

TEST(ValidateOptionsTest, CatchesEveryBadField) {
  CsrPlusOptions options;
  options.rank = 0;
  EXPECT_FALSE(ValidateCsrPlusOptions(options, 10).ok());
  options.rank = 11;
  EXPECT_FALSE(ValidateCsrPlusOptions(options, 10).ok());
  options.rank = 5;
  options.damping = 0.0;
  EXPECT_FALSE(ValidateCsrPlusOptions(options, 10).ok());
  options.damping = 0.6;
  options.epsilon = 1.5;
  EXPECT_FALSE(ValidateCsrPlusOptions(options, 10).ok());
  options.epsilon = 1e-5;
  EXPECT_TRUE(ValidateCsrPlusOptions(options, 10).ok());
}

TEST(CsrPlusEngineTest, ReproducesPaperExample36) {
  // Example 3.6: Q = {b, d}, r = 3, c = 0.6 on the Figure 1 graph. The paper
  // prints [S]_{*,b} = [0.16 1.49 0.16 0.49 0.48 0.16] and
  //        [S]_{*,d} = [0.16 0.49 0.16 1.49 0.48 0.16] (2-decimal rounding).
  CsrPlusOptions options;
  options.rank = 3;
  options.damping = 0.6;
  options.epsilon = 1e-5;
  auto engine = CsrPlusEngine::Precompute(Figure1Graph(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto s = engine->MultiSourceQuery({1, 3});  // b, d
  ASSERT_TRUE(s.ok());
  const DenseMatrix expected{{0.16, 0.16}, {1.49, 0.49}, {0.16, 0.16},
                             {0.49, 1.49}, {0.48, 0.48}, {0.16, 0.16}};
  EXPECT_TRUE(MatricesNear(*s, expected, 0.01))
      << "got:\n" << s->ToString(4);
}

TEST(CsrPlusEngineTest, FullRankMatchesExactCoSimRank) {
  // With r = n the SVD is exact, so CSR+ must agree with the reference
  // iterative evaluation to the epsilon of the series truncation.
  graph::Graph g = RandomGraph(40, 220, 3);
  CsrMatrix transition = graph::ColumnNormalizedTransition(g);

  CsrPlusOptions options;
  options.rank = 40;
  options.epsilon = 1e-10;
  auto engine = CsrPlusEngine::PrecomputeFromTransition(transition, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<Index> queries = {0, 7, 19, 33};
  auto approx = engine->MultiSourceQuery(queries);
  ASSERT_TRUE(approx.ok());

  CoSimRankOptions exact_options;
  exact_options.epsilon = 1e-12;
  auto exact = ReferenceEngine(&transition, exact_options).MultiSourceQuery(queries);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(MatricesNear(*approx, *exact, 1e-6));
}

TEST(CsrPlusEngineTest, SingleSourceMatchesMultiSourceColumn) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(50, 300, 7), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  auto block = engine->MultiSourceQuery({11, 22});
  auto column = engine->SingleSourceQuery(22);
  ASSERT_TRUE(block.ok() && column.ok());
  for (Index i = 0; i < 50; ++i) {
    EXPECT_NEAR((*block)(i, 1), (*column)[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(CsrPlusEngineTest, SinglePairMatchesMatrixEntry) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(30, 150, 11), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  auto block = engine->MultiSourceQuery({4});
  ASSERT_TRUE(block.ok());
  for (Index i = 0; i < 30; ++i) {
    auto pair = engine->SinglePairQuery(i, 4);
    ASSERT_TRUE(pair.ok());
    EXPECT_NEAR(*pair, (*block)(i, 0), 1e-12);
  }
}

TEST(CsrPlusEngineTest, AllPairsMatchesQueryingEveryNode) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(25, 120, 13), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  auto all = engine->AllPairs();
  ASSERT_TRUE(all.ok());
  std::vector<Index> everything(25);
  for (Index i = 0; i < 25; ++i) everything[static_cast<std::size_t>(i)] = i;
  auto block = engine->MultiSourceQuery(everything);
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(MatricesNear(*all, *block, 1e-12));
}

TEST(CsrPlusEngineTest, TopKQueryMatchesFullColumn) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(60, 350, 31), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  std::vector<Index> queries = {5, 40};
  auto topk = engine->TopKQuery(queries, 4);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->size(), 2u);
  for (std::size_t j = 0; j < queries.size(); ++j) {
    auto column = engine->SingleSourceQuery(queries[j]);
    ASSERT_TRUE(column.ok());
    auto expected = TopK(*column, 4, {queries[j]});
    EXPECT_EQ((*topk)[j], expected);
  }
}

TEST(CsrPlusEngineTest, TopKQueryCanIncludeTheQueryItself) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(30, 150, 37), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  auto topk = engine->TopKQuery({7}, 1, /*exclude_query=*/false);
  ASSERT_TRUE(topk.ok());
  // Self-similarity >= 1 dominates, so the query tops its own list.
  EXPECT_EQ((*topk)[0][0].node, 7);
}

TEST(CsrPlusEngineTest, AllPairsTopKMatchesDenseScan) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(30, 160, 43), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  auto pairs = engine->AllPairsTopK(5);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 5u);

  // Brute force from the dense matrix.
  auto all = engine->AllPairs();
  ASSERT_TRUE(all.ok());
  std::vector<CsrPlusEngine::ScoredPair> brute;
  for (Index a = 0; a < 30; ++a) {
    for (Index b = a + 1; b < 30; ++b) {
      brute.push_back({a, b, (*all)(a, b)});
    }
  }
  std::sort(brute.begin(), brute.end(),
            [](const auto& x, const auto& y) { return x.score > y.score; });
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*pairs)[i].a, brute[i].a) << i;
    EXPECT_EQ((*pairs)[i].b, brute[i].b) << i;
    EXPECT_NEAR((*pairs)[i].score, brute[i].score, 1e-12);
  }
}

TEST(CsrPlusEngineTest, AllPairsTopKEdgeCases) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(8, 30, 47), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  auto empty = engine->AllPairsTopK(0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_TRUE(engine->AllPairsTopK(-1).status().IsInvalidArgument());
  // k beyond the number of pairs returns all pairs, sorted.
  auto all = engine->AllPairsTopK(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 8u * 7u / 2u);
  for (std::size_t i = 1; i < all->size(); ++i) {
    EXPECT_GE((*all)[i - 1].score + 1e-15, (*all)[i].score);
  }
}

TEST(CsrPlusEngineTest, TopKQueryValidation) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(10, 50, 41), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->TopKQuery({}, 3).status().IsInvalidArgument());
  EXPECT_TRUE(engine->TopKQuery({1}, -1).status().IsInvalidArgument());
  EXPECT_TRUE(engine->TopKQuery({99}, 3).status().IsInvalidArgument());
}

TEST(CsrPlusEngineTest, QueryValidation) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(10, 40, 17), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->MultiSourceQuery({}).status().IsInvalidArgument());
  EXPECT_TRUE(engine->MultiSourceQuery({10}).status().IsInvalidArgument());
  EXPECT_TRUE(engine->SingleSourceQuery(-1).status().IsInvalidArgument());
  EXPECT_TRUE(engine->SinglePairQuery(0, 99).status().IsInvalidArgument());
}

TEST(CsrPlusEngineTest, StatsArePopulated) {
  auto engine =
      CsrPlusEngine::Precompute(RandomGraph(60, 400, 19), CsrPlusOptions{});
  ASSERT_TRUE(engine.ok());
  const PrecomputeStats& stats = engine->stats();
  EXPECT_GT(stats.state_bytes, 0);
  EXPECT_EQ(stats.squaring_iterations, 6);  // max_k = 5 -> 6 loop trips
  EXPECT_GE(stats.svd_seconds, 0.0);
}

TEST(CsrPlusEngineTest, SingleSourceQueryIntoMatchesAndReusesBuffer) {
  CsrPlusOptions options;
  options.rank = 4;
  auto engine = CsrPlusEngine::Precompute(RandomGraph(120, 700, 3), options);
  ASSERT_TRUE(engine.ok());
  std::vector<double> column;
  for (Index q : {Index{0}, Index{17}, Index{119}}) {
    ASSERT_TRUE(engine->SingleSourceQueryInto(q, &column).ok());
    auto fresh = engine->SingleSourceQuery(q);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(column, *fresh) << "query " << q;
  }
  // Once sized, repeated queries must not reallocate the caller's buffer.
  const double* data = column.data();
  const std::size_t cap = column.capacity();
  ASSERT_TRUE(engine->SingleSourceQueryInto(5, &column).ok());
  EXPECT_EQ(column.data(), data);
  EXPECT_EQ(column.capacity(), cap);
  EXPECT_FALSE(engine->SingleSourceQueryInto(120, &column).ok());
}

TEST(CsrPlusEngineTest, MultiSourceQueryBudgetsTheTransientFactorCopy) {
  CsrPlusOptions options;
  options.rank = 4;
  auto engine = CsrPlusEngine::Precompute(RandomGraph(200, 1200, 9), options);
  ASSERT_TRUE(engine.ok());
  const std::vector<Index> queries = {0, 3, 50, 199};
  const int64_t out_bytes =
      int64_t{200} * static_cast<int64_t>(queries.size()) * sizeof(double);
  const int64_t u_q_bytes =
      static_cast<int64_t>(queries.size()) * 4 * sizeof(double);
  const int64_t saved = MemoryBudget::Global().limit_bytes();
  // The n x |Q| output alone fits, but output + the transient [U]_{Q,*}
  // copy does not: the reservation must count both.
  MemoryBudget::Global().SetLimit(out_bytes + u_q_bytes / 2);
  auto s = engine->MultiSourceQuery(queries);
  MemoryBudget::Global().SetLimit(saved);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
  auto retry = engine->MultiSourceQuery(queries);
  EXPECT_TRUE(retry.ok());
}

TEST(CsrPlusEngineTest, DampingAffectsScores) {
  graph::Graph g = RandomGraph(30, 200, 23);
  CsrPlusOptions low;
  low.damping = 0.2;
  CsrPlusOptions high;
  high.damping = 0.8;
  auto engine_low = CsrPlusEngine::Precompute(g, low);
  auto engine_high = CsrPlusEngine::Precompute(g, high);
  ASSERT_TRUE(engine_low.ok() && engine_high.ok());
  auto s_low = engine_low->MultiSourceQuery({5});
  auto s_high = engine_high->MultiSourceQuery({5});
  ASSERT_TRUE(s_low.ok() && s_high.ok());
  // Higher damping keeps more of the series mass: off-diagonal scores grow.
  double sum_low = 0.0, sum_high = 0.0;
  for (Index i = 0; i < 30; ++i) {
    if (i == 5) continue;
    sum_low += (*s_low)(i, 0);
    sum_high += (*s_high)(i, 0);
  }
  EXPECT_GT(sum_high, sum_low);
}

TEST(CsrPlusEngineTest, RankImprovesAccuracyMonotonically) {
  graph::Graph g = RandomGraph(50, 350, 29);
  CsrMatrix transition = graph::ColumnNormalizedTransition(g);
  CoSimRankOptions exact_options;
  exact_options.epsilon = 1e-12;
  std::vector<Index> queries = {1, 2, 3};
  auto exact = ReferenceEngine(&transition, exact_options).MultiSourceQuery(queries);
  ASSERT_TRUE(exact.ok());

  double prev_err = 1e300;
  for (Index rank : {5, 15, 30, 50}) {
    CsrPlusOptions options;
    options.rank = rank;
    options.epsilon = 1e-10;
    auto engine = CsrPlusEngine::PrecomputeFromTransition(transition, options);
    ASSERT_TRUE(engine.ok());
    auto approx = engine->MultiSourceQuery(queries);
    ASSERT_TRUE(approx.ok());
    double err = 0.0;
    for (Index i = 0; i < approx->size(); ++i) {
      err += std::fabs(approx->data()[i] - exact->data()[i]);
    }
    EXPECT_LE(err, prev_err + 1e-6);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-4);  // full rank is essentially exact
}

TEST(CsrPlusEngineTest, LoadPrecomputeChargesBudgetLikeTheComputePath) {
  const Index n = 150;
  const Index r = 6;
  graph::Graph g = RandomGraph(n, 900, 31);
  CsrPlusOptions options;
  options.rank = r;
  auto engine = CsrPlusEngine::Precompute(g, options);
  ASSERT_TRUE(engine.ok());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("csrplus_engine_budget_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "state.cspc").string();
  ASSERT_TRUE(engine->SavePrecompute(path).ok());

  // Warm and cold starts must hit the same wall: with the cap one byte
  // below the engine state's footprint, BOTH the compute path and
  // LoadPrecompute return ResourceExhausted — a warm start cannot sneak a
  // factorisation past the budget that a cold start would have refused.
  const int64_t state_bytes = precompute_io::EngineStateBytes(n, r);
  const int64_t saved = MemoryBudget::Global().limit_bytes();
  MemoryBudget::Global().SetLimit(state_bytes - 1);
  auto cold = CsrPlusEngine::Precompute(g, options);
  auto warm = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
  MemoryBudget::Global().SetLimit(saved);
  ASSERT_FALSE(cold.ok());
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(warm.status().code(), StatusCode::kResourceExhausted);

  // With the cap restored both succeed and agree bit for bit.
  auto retry = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  auto q_cold = engine->MultiSourceQuery({0, n / 2, n - 1});
  auto q_warm = retry->MultiSourceQuery({0, n / 2, n - 1});
  ASSERT_TRUE(q_cold.ok() && q_warm.ok());
  EXPECT_TRUE(*q_cold == *q_warm);

  std::filesystem::remove_all(dir);
}

// Rewrites section `id` of a v2 artifact through `edit` (over its double
// payload) and reseals the section checksum, so the artifact still loads
// with every check passing — nothing in the load path inspects factor
// values.
void RewriteSection(const std::string& path, uint32_t id,
                    const std::function<void(std::vector<double>*)>& edit) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  constexpr int64_t kHeaderBytes = 88;
  constexpr int64_t kDescriptorBytes = 24;
  int64_t at = kHeaderBytes;
  for (uint32_t section = 0; section < precompute_io::kSectionCount;
       ++section) {
    uint32_t section_id = 0;
    uint64_t size = 0;
    std::memcpy(&section_id, bytes.data() + at, sizeof(section_id));
    std::memcpy(&size, bytes.data() + at + 8, sizeof(size));
    const int64_t descriptor_end = at + kDescriptorBytes;
    const int64_t payload_at =
        descriptor_end + precompute_io::SectionPadBytes(2, descriptor_end);
    if (section_id == id) {
      std::vector<double> payload(size / sizeof(double));
      std::memcpy(payload.data(), bytes.data() + payload_at, size);
      edit(&payload);
      std::memcpy(bytes.data() + payload_at, payload.data(), size);
      const uint64_t checksum = precompute_io::FnvHash(
          precompute_io::kFnvOffsetBasis, bytes.data() + payload_at,
          static_cast<std::size_t>(size));
      std::memcpy(bytes.data() + at + 16, &checksum, sizeof(checksum));
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      return;
    }
    at = payload_at + static_cast<int64_t>(size);
  }
  FAIL() << "section " << id << " not found";
}

// Sets the first entry of `rows` of the Z section to NaN.
void PoisonZRows(const std::string& path, Index n, Index r,
                 const std::vector<Index>& rows) {
  RewriteSection(path, precompute_io::kSectionZ, [&](std::vector<double>* z) {
    for (const Index row : rows) {
      (*z)[static_cast<std::size_t>(row * r)] =
          std::numeric_limits<double>::quiet_NaN();
    }
  });
}

TEST(CsrPlusEngineTest, NanScoresRankLastForEveryThreadCountAndIsa) {
  // A checksum-valid artifact whose Z carries NaN rows: every score column
  // then holds NaN at those rows. Top-k must still be one well-defined
  // list — NaN below every number, NaNs ordered by node id — whatever the
  // shard split, ISA or precision.
  const Index n = 2048;
  const Index r = 8;
  CsrPlusOptions options;
  options.rank = r;
  auto built = CsrPlusEngine::Precompute(RandomGraph(n, 12000, 53), options);
  ASSERT_TRUE(built.ok());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("csrplus_engine_nan_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "nan.cspc").string();
  ASSERT_TRUE(built->SavePrecompute(path).ok());
  const std::vector<Index> nan_rows = {0, 3, 255, 256, 1023, 1024, n - 1};
  PoisonZRows(path, n, r, nan_rows);
  auto engine = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<Index> queries;
  for (Index q = 0; q < n; q += n / 16) queries.push_back(q + 1);
  queries.back() = 3;  // a NaN row as a query: its whole column is NaN
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    ASSERT_TRUE(engine->SetServingPrecision(precision).ok());
    std::optional<TopKLists> reference;
    for (const linalg::kernels::Isa isa : linalg::kernels::SupportedIsas()) {
      ScopedKernelIsa scoped_isa(isa);
      for (const int threads : {1, 2, 3, 4, 8}) {
        ScopedNumThreads scoped(threads);
        auto lists = engine->TopKQuery(queries, n);
        ASSERT_TRUE(lists.ok()) << lists.status().ToString();
        if (!reference) {
          reference = *lists;
          // Finite scores first, then the NaN rows in node order.
          const std::vector<ScoredNode>& first = (*lists)[0];
          ASSERT_EQ(first.size(), static_cast<std::size_t>(n - 1));
          for (std::size_t i = 0; i < nan_rows.size(); ++i) {
            const ScoredNode& tail = first[first.size() - nan_rows.size() + i];
            EXPECT_TRUE(std::isnan(tail.score));
            EXPECT_EQ(tail.node, nan_rows[i]);
          }
        }
        auto block = engine->MultiSourceQuery(queries);
        ASSERT_TRUE(block.ok());
        for (std::size_t j = 0; j < queries.size(); ++j) {
          EXPECT_TRUE(SameTopK((*lists)[j], (*reference)[j]))
              << PrecisionName(precision) << " "
              << linalg::kernels::IsaName(isa)
              << " threads=" << threads << " query " << queries[j];
          EXPECT_TRUE(SameTopK(
              (*lists)[j], TopKOfColumn(*block, static_cast<Index>(j), n,
                                        {queries[j]})));
        }
      }
    }
  }

  // The similarity join uses the same order.
  ASSERT_TRUE(engine->SetServingPrecision(Precision::kF64).ok());
  std::optional<std::vector<CsrPlusEngine::ScoredPair>> pairs_reference;
  for (const int threads : {1, 2, 3, 4, 8}) {
    ScopedNumThreads scoped(threads);
    auto pairs = engine->AllPairsTopK(64);
    ASSERT_TRUE(pairs.ok());
    if (!pairs_reference) pairs_reference = *pairs;
    ASSERT_EQ(pairs->size(), pairs_reference->size());
    for (std::size_t i = 0; i < pairs->size(); ++i) {
      EXPECT_FALSE(std::isnan((*pairs)[i].score));
      EXPECT_TRUE((*pairs)[i] == (*pairs_reference)[i])
          << "threads=" << threads;
    }
  }
}

// --- Exactness of the norm-pruned TopKQuery ---------------------------------
//
// TopKQuery walks Z's rows by norm and skips the rows whose Cauchy-Schwarz
// bound cannot reach a query's kth entry. These inputs attack that bound
// and the id tie-break: equal norms, zero and non-finite rows, subnormal
// products and massive score ties. Every list must still equal the full
// column's selection bit for bit, for every precision, ISA, pool width, k
// and exclude setting.

// Checks TopKQuery against TopKOfColumn over MultiSourceQuery for every
// precision x ISA x thread count x k in {0, 1, 3, 10, n-1, n, n+5} x
// exclude_query.
void ExpectPrunedTopKExact(CsrPlusEngine* engine,
                           const std::vector<Index>& queries,
                           const std::string& label) {
  const Index n = engine->NumNodes();
  const std::vector<Index> ks = {0, 1, 3, 10, n - 1, n, n + 5};
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    ASSERT_TRUE(engine->SetServingPrecision(precision).ok());
    auto block = engine->MultiSourceQuery(queries);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    // expected[k index][exclude][j]
    std::vector<std::array<TopKLists, 2>> expected(ks.size());
    for (std::size_t x = 0; x < ks.size(); ++x) {
      for (const bool exclude : {false, true}) {
        for (std::size_t j = 0; j < queries.size(); ++j) {
          expected[x][exclude].push_back(TopKOfColumn(
              *block, static_cast<Index>(j), ks[x],
              exclude ? std::vector<Index>{queries[j]}
                      : std::vector<Index>{}));
        }
      }
    }
    for (const linalg::kernels::Isa isa : linalg::kernels::SupportedIsas()) {
      ScopedKernelIsa scoped_isa(isa);
      for (const int threads : {1, 2, 3, 4, 8}) {
        ScopedNumThreads scoped(threads);
        for (std::size_t x = 0; x < ks.size(); ++x) {
          for (const bool exclude : {false, true}) {
            auto lists = engine->TopKQuery(queries, ks[x], exclude);
            ASSERT_TRUE(lists.ok()) << lists.status().ToString();
            for (std::size_t j = 0; j < queries.size(); ++j) {
              ASSERT_TRUE(SameTopK((*lists)[j], expected[x][exclude][j]))
                  << label << " " << PrecisionName(precision) << " "
                  << linalg::kernels::IsaName(isa) << " threads=" << threads
                  << " k=" << ks[x] << " exclude=" << exclude << " query "
                  << queries[j];
            }
          }
        }
      }
    }
  }
  ASSERT_TRUE(engine->SetServingPrecision(Precision::kF64).ok());
}

// Factors in the paper's convention for PrecomputeFromPaperFactors: U as
// given, unit singular values unless `sigma` says otherwise, and V = 0, so
// H = 0, P = I and Z = U diag(sigma)^2.
CsrPlusEngine EngineFromU(DenseMatrix u, double sigma) {
  svd::TruncatedSvd factors;
  factors.v = DenseMatrix(u.rows(), u.cols());
  factors.sigma.assign(static_cast<std::size_t>(u.cols()), sigma);
  factors.u = std::move(u);
  CsrPlusOptions options;
  options.rank = factors.rank();
  auto engine =
      CsrPlusEngine::PrecomputeFromPaperFactors(std::move(factors), options);
  CSR_CHECK_OK(engine.status());
  return *std::move(engine);
}

// Saves `engine`, rewrites section `id` through `edit` and loads it back.
CsrPlusEngine RewrittenCopy(
    const CsrPlusEngine& engine, uint32_t id,
    const std::function<void(std::vector<double>*)>& edit) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("csrplus_topk_prune_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "rewritten.cspc").string();
  CSR_CHECK_OK(engine.SavePrecompute(path));
  RewriteSection(path, id, edit);
  auto loaded = CsrPlusEngine::LoadPrecompute(path, LoadOptions{});
  std::filesystem::remove_all(dir);
  CSR_CHECK_OK(loaded.status());
  return *std::move(loaded);
}

TEST(CsrPlusTopKPruningTest, EqualNormRowsWithTiedScores) {
  // Every entry of U is +-1/2 at r = 4: all rows of Z share one norm, so no
  // row can be pruned by its bound alone, and with 16 sign patterns over
  // 700 rows nearly every score ties with dozens of others.
  const Index n = 700;
  DenseMatrix u(n, 4);
  Rng rng(41);
  for (Index i = 0; i < u.size(); ++i) u.data()[i] = rng.Below(2) ? 0.5 : -0.5;
  CsrPlusEngine engine = EngineFromU(std::move(u), 1.0);
  ExpectPrunedTopKExact(&engine, {0, 1, 17, 350, n - 1}, "equal norms");
}

TEST(CsrPlusTopKPruningTest, ZeroQueryRowsAndAllZeroZ) {
  // Queries whose U row is zero score exactly 0 against every other node,
  // so their lists are decided by the id tie-break alone.
  const Index n = 900;
  DenseMatrix u = csrplus::testing::RandomDense(n, 6, 43);
  for (const Index zero : {Index{0}, Index{5}, Index{600}, n - 1}) {
    std::fill_n(u.RowPtr(zero), 6, 0.0);
  }
  CsrPlusEngine engine = EngineFromU(u, 0.9);
  ExpectPrunedTopKExact(&engine, {0, 5, 600, n - 1, 2, 301}, "zero U rows");

  // Zero singular values make Z = 0 while U stays non-zero: every
  // off-diagonal score is 0 for every query.
  CsrPlusEngine zero_z = EngineFromU(std::move(u), 0.0);
  ExpectPrunedTopKExact(&zero_z, {0, 2, 301, 899}, "all-zero Z");
}

TEST(CsrPlusTopKPruningTest, ZeroQueryRowsOfARealGraph) {
  // On a Barabasi-Albert graph some nodes get no in-links. Their U rows,
  // whatever the SVD made of them, are mixed into a batch with ordinary
  // queries; the nodes whose row is exactly zero take the tie-probe path.
  const Index n = 3000;
  auto g = graph::BarabasiAlbert(n, 4, 47);
  ASSERT_TRUE(g.ok());
  CsrPlusOptions options;
  options.rank = 16;
  auto engine = CsrPlusEngine::Precompute(*g, options);
  ASSERT_TRUE(engine.ok());
  std::vector<Index> queries = {0, 1, 1500, n - 1};
  for (Index q = 0; q < n && queries.size() < 12; ++q) {
    const double* row = engine->u().RowPtr(q);
    if (std::all_of(row, row + 16, [](double x) { return x == 0.0; })) {
      queries.push_back(q);
    }
  }
  ASSERT_GT(queries.size(), 4u) << "no node of the graph has a zero U row";
  ExpectPrunedTopKExact(&*engine, queries, "BA zero rows");
}

TEST(CsrPlusTopKPruningTest, NonFiniteRowsInZ) {
  const Index n = 1200;
  const Index r = 8;
  auto built = CsrPlusEngine::Precompute(RandomGraph(n, 7200, 59), [] {
    CsrPlusOptions options;
    options.rank = 8;
    return options;
  }());
  ASSERT_TRUE(built.ok());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CsrPlusEngine engine = RewrittenCopy(
      *built, precompute_io::kSectionZ, [&](std::vector<double>* z) {
        const auto set = [&](Index row, Index p, double value) {
          (*z)[static_cast<std::size_t>(row * r + p)] = value;
        };
        for (Index p = 0; p < r; ++p) set(3, p, nan);  // a whole NaN row
        set(10, 0, inf);
        set(11, 2, -inf);
        for (Index p = 0; p < r; ++p) set(700, p, p % 2 ? inf : -inf);
        set(n - 1, 5, nan);
      });
  ExpectPrunedTopKExact(&engine, {0, 3, 10, 11, 12, 700, 701, n - 1},
                        "non-finite Z");
}

TEST(CsrPlusTopKPruningTest, NanRowInU) {
  // A NaN in U_q makes every bound of that query NaN: it must scan all
  // rows, while the other queries of the batch keep pruning.
  const Index n = 1200;
  const Index r = 8;
  CsrPlusOptions options;
  options.rank = r;
  auto built = CsrPlusEngine::Precompute(RandomGraph(n, 7200, 61), options);
  ASSERT_TRUE(built.ok());
  CsrPlusEngine engine = RewrittenCopy(
      *built, precompute_io::kSectionU, [&](std::vector<double>* u) {
        (*u)[static_cast<std::size_t>(40 * r + 3)] =
            std::numeric_limits<double>::quiet_NaN();
      });
  ExpectPrunedTopKExact(&engine, {40, 0, 41, 600, n - 1}, "NaN in U");
}

TEST(CsrPlusTopKPruningTest, SubnormalProductsAndUnderflowingNorms) {
  // Rows of ~1e-170 entries: squaring them underflows to 0, so a naive
  // sum-of-squares norm would be 0 and prune rows that score above 0. U
  // rows of the same size push the products themselves into the
  // subnormal range.
  const Index n = 1200;
  const Index r = 8;
  CsrPlusOptions options;
  options.rank = r;
  auto built = CsrPlusEngine::Precompute(RandomGraph(n, 7200, 67), options);
  ASSERT_TRUE(built.ok());
  const auto shrink = [&](std::vector<double>* factor, Index row,
                          double scale) {
    for (Index p = 0; p < r; ++p) {
      double& x = (*factor)[static_cast<std::size_t>(row * r + p)];
      x = (p % 3 == 0 ? -scale : scale) * (1.0 + 0.1 * static_cast<double>(p));
    }
  };
  CsrPlusEngine tiny_z = RewrittenCopy(
      *built, precompute_io::kSectionZ, [&](std::vector<double>* z) {
        for (const Index row : {Index{1}, Index{2}, Index{500}, n - 2}) {
          shrink(z, row, 1e-170);
        }
        shrink(z, 7, 1e-160);
      });
  CsrPlusEngine tiny_both = RewrittenCopy(
      tiny_z, precompute_io::kSectionU, [&](std::vector<double>* u) {
        shrink(u, 9, 1e-170);
        shrink(u, 10, 1e-160);
      });
  ExpectPrunedTopKExact(&tiny_both, {1, 2, 7, 9, 10, 500, 800},
                        "tiny rows");
}

TEST(CsrPlusTopKPruningTest, UnderflowingNormsStillRankAboveZero) {
  // Query row e_1 against: five rows with positive scores, 1494 with
  // negative ones, 2497 zero rows and three rows of 1e-170 entries whose
  // tiny positive scores put them in every top-10. A sum-of-squares norm
  // of those three underflows to 0, which would sort them behind the zero
  // rows and let the walk retire before reaching them.
  const Index n = 4000;
  DenseMatrix u(n, 4);
  u(0, 0) = 1.0;
  for (Index i = 1; i <= 5; ++i) {
    u(i, 0) = 0.5 + 0.01 * static_cast<double>(i);
    u(i, 1) = 0.1;
  }
  for (Index i = 6; i < 1500; ++i) {
    u(i, 0) = -0.5 - 1e-4 * static_cast<double>(i);
    u(i, 1) = 0.2;
    u(i, 2) = 0.1;
  }
  for (Index i = n - 3; i < n; ++i) std::fill_n(u.RowPtr(i), 4, 1e-170);
  CsrPlusEngine engine = EngineFromU(std::move(u), 1.0);
  ExpectPrunedTopKExact(&engine, {0, 1}, "underflowing norms");
}

TEST(CsrPlusTopKPruningTest, BoundDominatesTheRoundedScore) {
  // Query row v = (x, y, w, 0), nine duplicates of it, and twenty larger
  // rows (x, y, w, t) whose computed scores against v equal v's own score
  // (t * 0 adds an exact zero). Ties rank by id, so the duplicates belong
  // in the top 10. Once the larger rows fill the selector, the duplicates'
  // block may be skipped only if the bound at their norm falls below that
  // shared score, as c ||v||^2 rounded can; the inflated bound must not.
  // 1020 copies of the query shrink the walk's blocks to 8 rows, so the
  // duplicates get a block of their own.
  const auto check = [](double x, double y, double w,
                         const std::string& label) {
    const double scale = std::max({x, y, w});
    DenseMatrix u(40, 4);
    for (Index i = 0; i < 40; ++i) {
      u(i, 0) = i < 30 ? x : -x / 4;
      u(i, 1) = i < 30 ? y : -y / 4;
      u(i, 2) = i < 30 ? w : 0.0;
      if (i >= 10 && i < 30) {
        u(i, 3) = (0.5 + 0.01 * static_cast<double>(i)) * scale;
      }
      if (i >= 30) u(i, 3) = 0.1 * scale;
    }
    CsrPlusEngine engine = EngineFromU(std::move(u), 1.0);
    auto block = engine.MultiSourceQuery({0});
    ASSERT_TRUE(block.ok());
    const std::vector<ScoredNode> expected = TopKOfColumn(*block, 0, 10);
    const std::vector<Index> queries(1020, 0);
    for (const Precision precision : {Precision::kF64, Precision::kF32}) {
      ASSERT_TRUE(engine.SetServingPrecision(precision).ok());
      auto f_block = engine.MultiSourceQuery({0});
      ASSERT_TRUE(f_block.ok());
      const std::vector<ScoredNode> f_expected =
          TopKOfColumn(*f_block, 0, 10);
      for (const int threads : {1, 2}) {
        ScopedNumThreads scoped(threads);
        auto lists = engine.TopKQuery(queries, 10, false);
        ASSERT_TRUE(lists.ok());
        for (const std::vector<ScoredNode>& list : *lists) {
          ASSERT_TRUE(SameTopK(list, f_expected))
              << label << " " << PrecisionName(precision)
              << " threads=" << threads;
        }
      }
    }
  };
  Rng rng(73);
  for (int trial = 0; trial < 32; ++trial) {
    const double x = rng.Uniform(0.1, 1.0);
    const double y = rng.Uniform(0.1, 1.0);
    check(x, y, 0.0, "trial " + std::to_string(trial));
  }
  // Subnormal products: each x * x is 0.55 denorm_min and rounds up to
  // denorm_min, so the computed dot is 3 denorm_min and the score
  // 0.6 * 3 -> 2 denorm_min, while c ||v||^2 rounds to 1 denorm_min. Only
  // the bound's absolute term covers that.
  const double x = std::sqrt(0.55) *
                   std::sqrt(std::numeric_limits<double>::denorm_min());
  check(x, x, x, "subnormal products");
  // Products that overflow: every tied score is +inf. In float that
  // happens at 4e38, while the bound, computed in double, stays finite; a
  // finite bound must not retire a query behind a +inf kth score. Double
  // overflows near 1.8e308.
  check(2e19, 2e19, 0.0, "float overflow");
  check(1.5e154, 1.5e154, 0.0, "double overflow");
}

TEST(CsrPlusTopKPruningTest, StarGraph) {
  // Every leaf of a bidirectional star has the same row, so leaves tie on
  // both norm and score.
  const Index n = 300;
  graph::GraphBuilder builder(n);
  for (Index leaf = 1; leaf < n; ++leaf) {
    builder.AddEdge(0, leaf);
    builder.AddEdge(leaf, 0);
  }
  auto star = builder.Build();
  ASSERT_TRUE(star.ok());
  CsrPlusOptions options;
  options.rank = 8;
  auto engine = CsrPlusEngine::Precompute(*star, options);
  ASSERT_TRUE(engine.ok());
  ExpectPrunedTopKExact(&*engine, {0, 1, 2, 150, n - 1}, "star");
}

TEST(CsrPlusTopKPruningTest, RandomGraphEveryNodeAsQuery) {
  const Index n = 200;
  CsrPlusOptions options;
  options.rank = 12;
  auto engine = CsrPlusEngine::Precompute(RandomGraph(n, 1200, 71), options);
  ASSERT_TRUE(engine.ok());
  std::vector<Index> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), Index{0});
  ExpectPrunedTopKExact(&*engine, all, "every node");
}

TEST(CsrPlusTopKPruningTest, ScoresAFractionOfThePairsAndBuildsTheIndexLazily) {
#if defined(CSRPLUS_OBS_DISABLED)
  GTEST_SKIP() << "metrics are compiled out";
#else
  const bool metrics = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter* scored = obs::StatsRegistry::Global().FindOrCreateCounter(
      "csrplus.query.topk_rows_scored", "pairs",
      "row x query scores computed by TopKQuery");
  obs::Histogram* builds = obs::StatsRegistry::Global().FindOrCreateHistogram(
      "csrplus.query.topk_index_us", "us",
      "one-time build of the top-k norm index (row norms of Z and their "
      "order)");
  const Index n = 20000;
  auto g = graph::BarabasiAlbert(n, 5, 12);
  ASSERT_TRUE(g.ok());
  CsrPlusOptions options;
  options.rank = 32;
  auto engine = CsrPlusEngine::Precompute(*g, options);
  ASSERT_TRUE(engine.ok());

  // A mapped warm start serving full columns never builds the index.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("csrplus_topk_index_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "ba.cspc").string();
  ASSERT_TRUE(engine->SavePrecompute(path).ok());
  LoadOptions mapped_options;
  mapped_options.mode = LoadMode::kMapped;
  const uint64_t builds_before = builds->count();
  auto mapped = CsrPlusEngine::LoadPrecompute(path, mapped_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->MultiSourceQuery({0, 1, n - 1}).ok());
  ASSERT_TRUE(mapped->VerifyMappedSections().ok());
  EXPECT_EQ(builds->count(), builds_before);
  std::filesystem::remove_all(dir);

  // On a power-law graph the walk scores a small share of n x |Q|; a prune
  // that silently stopped working would score all of it.
  Rng rng(29);
  const uint64_t scored_before = scored->value();
  constexpr int kBatches = 4;
  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<Index> queries;
    while (queries.size() < 16) {
      const auto q = static_cast<Index>(rng.Below(static_cast<uint64_t>(n)));
      if (std::find(queries.begin(), queries.end(), q) == queries.end()) {
        queries.push_back(q);
      }
    }
    ASSERT_TRUE(engine->TopKQuery(queries, 11, false).ok());
  }
  EXPECT_EQ(builds->count(), builds_before + 1);
  const double share = static_cast<double>(scored->value() - scored_before) /
                       static_cast<double>(n * 16 * kBatches);
  EXPECT_LT(share, 0.25);
  obs::SetMetricsEnabled(metrics);
#endif
}

TEST(CsrPlusTopKPruningTest, ConcurrentFirstCallsShareOneIndex) {
  // Engine copies share the lazily built index: threads that race on the
  // first TopKQuery of copies of one engine must all get the same lists.
  const Index n = 3000;
  CsrPlusOptions options;
  options.rank = 8;
  auto built = CsrPlusEngine::Precompute(RandomGraph(n, 18000, 83), options);
  ASSERT_TRUE(built.ok());
  const std::vector<Index> queries = {0, 7, 1500, n - 1};
  auto block = built->MultiSourceQuery(queries);
  ASSERT_TRUE(block.ok());
  const std::vector<CsrPlusEngine> copies(4, *built);
  std::vector<TopKLists> lists(copies.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < copies.size(); ++t) {
    threads.emplace_back([&, t] {
      auto result = copies[t].TopKQuery(queries, 10);
      if (result.ok()) lists[t] = *std::move(result);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const TopKLists& got : lists) {
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t j = 0; j < queries.size(); ++j) {
      EXPECT_TRUE(SameTopK(got[j], TopKOfColumn(*block, static_cast<Index>(j),
                                                10, {queries[j]})));
    }
  }
}

TEST(CsrPlusTopKPruningTest, BudgetChargesTheIndexOnceAndTheScratchPerCall) {
  // One shard, so the walk's scratch (~23 KiB here: a 682-row score panel,
  // the operands and the selectors) stays below the index's n * (8 + 4)
  // bytes. A cap between the two refuses the first call, which must build
  // the index, and admits every later one.
  ScopedNumThreads serial(1);
  const Index n = 20000;
  CsrPlusOptions options;
  options.rank = 8;
  auto engine = CsrPlusEngine::Precompute(RandomGraph(n, 120000, 79), options);
  ASSERT_TRUE(engine.ok());
  const std::vector<Index> queries = {0, 1, 2, 3};
  const int64_t index_bytes =
      n * static_cast<int64_t>(sizeof(double) + sizeof(int32_t));
  const int64_t saved = MemoryBudget::Global().limit_bytes();
  MemoryBudget::Global().SetLimit(index_bytes - 1);
  auto cold = engine->TopKQuery(queries, 10);
  MemoryBudget::Global().SetLimit(saved);
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(cold.status().message().find("top-k norm index"),
            std::string::npos)
      << cold.status().ToString();

  ASSERT_TRUE(engine->TopKQuery(queries, 10).ok());
  MemoryBudget::Global().SetLimit(index_bytes - 1);
  auto warm = engine->TopKQuery(queries, 10);
  MemoryBudget::Global().SetLimit(4096);
  auto starved = engine->TopKQuery(queries, 10);
  MemoryBudget::Global().SetLimit(saved);
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_FALSE(starved.ok());
  EXPECT_NE(starved.status().message().find("top-k scratch"),
            std::string::npos)
      << starved.status().ToString();
}

}  // namespace
}  // namespace csrplus::core
