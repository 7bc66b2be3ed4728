#include "core/csrplus_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>

#include "common/memory.h"
#include "core/cosimrank.h"
#include "core/precompute_io.h"
#include "graph/normalize.h"
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

// Rewrites `rows` of the Z section of a v2 artifact (the last section,
// directly before the 32-byte version trailer) to NaN and reseals the
// section checksum, so the artifact still loads with every check passing —
// nothing in the load path inspects factor values.
void PoisonZRows(const std::string& path, Index n, Index r,
                 const std::vector<Index>& rows) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const int64_t payload_bytes = n * r * static_cast<int64_t>(sizeof(double));
  const int64_t payload_at =
      static_cast<int64_t>(bytes.size()) - 32 - payload_bytes;
  int64_t descriptor_end = -1;
  for (int64_t pad = 0; pad < precompute_io::kSectionAlignment; ++pad) {
    const int64_t end = payload_at - pad;
    uint32_t id = 0;
    uint64_t size = 0;
    std::memcpy(&id, bytes.data() + end - 24, sizeof(id));
    std::memcpy(&size, bytes.data() + end - 16, sizeof(size));
    if (precompute_io::SectionPadBytes(2, end) == pad &&
        id == precompute_io::kSectionZ &&
        size == static_cast<uint64_t>(payload_bytes)) {
      descriptor_end = end;
      break;
    }
  }
  ASSERT_GE(descriptor_end, 0) << "Z section descriptor not found";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Index row : rows) {
    std::memcpy(bytes.data() + payload_at + row * r * 8, &nan, sizeof(nan));
  }
  const uint64_t checksum = precompute_io::FnvHash(
      precompute_io::kFnvOffsetBasis, bytes.data() + payload_at,
      static_cast<std::size_t>(payload_bytes));
  std::memcpy(bytes.data() + descriptor_end - 8, &checksum, sizeof(checksum));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

}  // namespace
}  // namespace csrplus::core
