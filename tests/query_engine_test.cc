// Conformance tests for the core::QueryEngine interface: every engine (CSR+,
// the five baselines and the dynamic engine) must honour the same contract,
// because the service layer batches through it blindly.

#include "core/query_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/csrplus_engine.h"
#include "eval/runner.h"
#include "graph/normalize.h"
#include "test_util.h"

namespace csrplus::core {
namespace {

using csrplus::testing::MatricesNear;
using csrplus::testing::RandomGraph;
using csrplus::testing::SameTopK;
using csrplus::testing::ScopedKernelIsa;
using csrplus::testing::ScopedNumThreads;
using linalg::CsrMatrix;
using linalg::DenseMatrix;

// A bidirectional star: every leaf has the same neighbourhood, so scores
// against any query tie across all leaves and top-k order is decided by
// the node-id tie-break alone.
graph::Graph StarGraph(Index nodes) {
  graph::GraphBuilder builder(nodes);
  for (Index leaf = 1; leaf < nodes; ++leaf) {
    builder.AddEdge(0, leaf);
    builder.AddEdge(leaf, 0);
  }
  auto result = builder.Build();
  CSR_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

// Checks TopKQuery(queries, k, exclude) against TopKOfColumn over the
// engine's own MultiSourceQuery block, bit for bit, for every k in `ks` and
// both exclude settings. Returns the number of adjacent equal-score pairs
// seen in the lists (so callers can assert ties were really exercised).
int64_t ExpectTopKMatchesBlock(const QueryEngine& engine,
                               const std::vector<Index>& queries,
                               const std::vector<Index>& ks) {
  auto block = engine.MultiSourceQuery(queries);
  EXPECT_TRUE(block.ok()) << block.status().ToString();
  if (!block.ok()) return 0;
  int64_t ties = 0;
  for (const Index k : ks) {
    for (const bool exclude : {false, true}) {
      auto lists = engine.TopKQuery(queries, k, exclude);
      EXPECT_TRUE(lists.ok()) << lists.status().ToString();
      if (!lists.ok()) continue;
      EXPECT_EQ(lists->size(), queries.size());
      if (lists->size() != queries.size()) continue;
      for (std::size_t j = 0; j < queries.size(); ++j) {
        const std::vector<Index> skip =
            exclude ? std::vector<Index>{queries[j]} : std::vector<Index>{};
        EXPECT_TRUE(SameTopK((*lists)[j],
                             TopKOfColumn(*block, static_cast<Index>(j), k,
                                          skip)))
            << engine.Name() << " query " << queries[j] << " k=" << k
            << " exclude=" << exclude;
        for (std::size_t i = 1; i < (*lists)[j].size(); ++i) {
          ties += (*lists)[j][i].score == (*lists)[j][i - 1].score ? 1 : 0;
        }
      }
    }
  }
  return ties;
}

// Every engine must honour the contract under every kernel ISA this machine
// can run — the batching and caching layers assume bit-stable answers no
// matter which dispatch table is live.
class QueryEngineConformanceTest
    : public ::testing::TestWithParam<
          std::tuple<eval::Method, linalg::kernels::Isa>> {
 protected:
  void SetUp() override {
    const linalg::kernels::Isa isa = std::get<1>(GetParam());
    if (!linalg::kernels::IsaCompiled(isa)) {
      GTEST_SKIP() << linalg::kernels::IsaName(isa)
                   << " kernels were not compiled into this binary";
    }
    if (!linalg::kernels::IsaSupported(isa)) {
      GTEST_SKIP() << "this CPU cannot execute " << linalg::kernels::IsaName(isa)
                   << " — conformance for that ISA is unverified on this host";
    }
    isa_.emplace(isa);
    graph_ = RandomGraph(60, 360, 7);
    transition_ = graph::ColumnNormalizedTransition(graph_);
    eval::RunConfig config;
    config.ni_fidelity = baselines::NiFidelity::kMixedProduct;
    auto engine = eval::CreateEngine(Method(), transition_, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
  }

  eval::Method Method() const { return std::get<0>(GetParam()); }

  std::optional<ScopedKernelIsa> isa_;
  graph::Graph graph_;
  CsrMatrix transition_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_P(QueryEngineConformanceTest, ReportsNameAndNodeCount) {
  EXPECT_EQ(engine_->Name(), eval::MethodName(Method()));
  EXPECT_EQ(engine_->NumNodes(), 60);
}

TEST_P(QueryEngineConformanceTest, ColumnJDependsOnlyOnQueryJ) {
  // The batching contract: column j of a multi-source result equals the
  // single-query result for queries[j], bit for bit, regardless of what
  // other queries share the batch.
  auto wide = engine_->MultiSourceQuery({5, 23, 41});
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  for (std::size_t j = 0; j < 3; ++j) {
    const Index q = std::vector<Index>{5, 23, 41}[j];
    auto alone = engine_->MultiSourceQuery({q});
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    for (Index i = 0; i < engine_->NumNodes(); ++i) {
      EXPECT_EQ((*wide)(i, static_cast<Index>(j)), (*alone)(i, 0))
          << "row " << i << " query " << q;
    }
  }
}

TEST_P(QueryEngineConformanceTest, SingleSourceMatchesMultiSourceColumn) {
  const Index q = 17;
  std::vector<double> column;
  ASSERT_TRUE(engine_->SingleSourceQueryInto(q, &column).ok());
  ASSERT_EQ(column.size(), 60u);
  auto block = engine_->MultiSourceQuery({q});
  ASSERT_TRUE(block.ok());
  for (Index i = 0; i < 60; ++i) {
    EXPECT_EQ(column[static_cast<std::size_t>(i)], (*block)(i, 0));
  }
}

TEST_P(QueryEngineConformanceTest, StateFingerprintIsStableAndShared) {
  // Stable across calls, and equal for a second engine built identically —
  // the property that lets a column cache survive an engine swap. Engines
  // that do not implement the hook return 0 ("never cache") both times.
  const uint64_t fp = engine_->StateFingerprint();
  EXPECT_EQ(fp, engine_->StateFingerprint());
  eval::RunConfig config;
  config.ni_fidelity = baselines::NiFidelity::kMixedProduct;
  auto twin = eval::CreateEngine(Method(), transition_, config);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ((*twin)->StateFingerprint(), fp);
}

TEST_P(QueryEngineConformanceTest, RejectsBadQuerySets) {
  EXPECT_TRUE(engine_->MultiSourceQuery({}).status().IsInvalidArgument());
  EXPECT_TRUE(engine_->MultiSourceQuery({-1}).status().IsInvalidArgument());
  EXPECT_TRUE(engine_->MultiSourceQuery({60}).status().IsInvalidArgument());
  std::vector<double> column;
  EXPECT_TRUE(engine_->SingleSourceQueryInto(-3, &column).IsInvalidArgument());
}

TEST_P(QueryEngineConformanceTest, TopKQueryEqualsFullColumnSelection) {
  const Index n = engine_->NumNodes();
  // First and last node, and nodes on either side of the 2-, 3- and 4-way
  // row-shard split points.
  const std::vector<Index> queries = {0, n - 1, 14, 15, 19, 20, 29, 30, 44, 45};
  const std::vector<Index> ks = {0, 1, 10, n - 1, n, n + 5};
  ExpectTopKMatchesBlock(*engine_, queries, ks);
  EXPECT_TRUE(engine_->TopKQuery(queries, -1).status().IsInvalidArgument());
  EXPECT_TRUE(engine_->TopKQuery({}, 3).status().IsInvalidArgument());
  EXPECT_TRUE(engine_->TopKQuery({n}, 3).status().IsInvalidArgument());

  // Tie-heavy input: on a star every leaf scores alike. Its transition
  // matrix has rank 2, which CSR-NI needs as the factor rank.
  const CsrMatrix star = graph::ColumnNormalizedTransition(StarGraph(60));
  eval::RunConfig config;
  config.rank = 2;
  config.ni_fidelity = baselines::NiFidelity::kMixedProduct;
  auto star_engine = eval::CreateEngine(Method(), star, config);
  ASSERT_TRUE(star_engine.ok()) << star_engine.status().ToString();
  ExpectTopKMatchesBlock(**star_engine, queries, ks);

  if (Method() != eval::Method::kCsrPlus) return;
  // The fused CSR+ kernel: every node is a query (so every panel and shard
  // boundary holds one), swept over both precisions and pool widths — the
  // lists must not depend on how rows are split across shards.
  for (const bool star_input : {false, true}) {
    CsrPlusOptions options;
    options.rank = 8;
    auto engine = CsrPlusEngine::Precompute(
        star_input ? StarGraph(256) : RandomGraph(256, 1536, 5), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    std::vector<Index> all(static_cast<std::size_t>(engine->NumNodes()));
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<Index>(i);
    for (const Precision precision : {Precision::kF64, Precision::kF32}) {
      ASSERT_TRUE(engine->SetServingPrecision(precision).ok());
      for (const int threads : {1, 2, 3, 4, 8}) {
        ScopedNumThreads scoped(threads);
        const int64_t ties =
            ExpectTopKMatchesBlock(*engine, all, {1, 10, engine->NumNodes()});
        if (star_input) {
          EXPECT_GT(ties, 0) << "the star graph produced no tied scores";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, QueryEngineConformanceTest,
    ::testing::Combine(
        ::testing::Values(eval::Method::kCsrPlus, eval::Method::kCsrNi,
                          eval::Method::kCsrIt, eval::Method::kCsrRls,
                          eval::Method::kCoSimMate, eval::Method::kRpCoSim,
                          eval::Method::kDynamic),
        ::testing::ValuesIn(csrplus::testing::AllKernelIsas())),
    [](const ::testing::TestParamInfo<
        std::tuple<eval::Method, linalg::kernels::Isa>>& info) {
      std::string name(eval::MethodName(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '+') c = 'p';
        if (c == '-') c = '_';
      }
      name += '_';
      name += linalg::kernels::IsaName(std::get<1>(info.param));
      return name;
    });

TEST_P(QueryEngineConformanceTest, AdvertisedCostAndAccuracyAreCoherent) {
  // The serving-tier contract (docs/serving-tiers.md): cost models are
  // non-negative and monotone in the batch width, and accuracy tags pair
  // "exact" with a zero bound / "approximate" with a positive one.
  const CostModel one = engine_->EstimateCost(1);
  const CostModel four = engine_->EstimateCost(4);
  EXPECT_GE(one.batch_cost, 0.0);
  EXPECT_GE(one.per_query_cost, 0.0);
  if (one.advertised()) {
    EXPECT_GE(four.batch_cost + 4.0 * four.per_query_cost,
              one.batch_cost + one.per_query_cost);
  }
  const AccuracyTag tag = engine_->Accuracy();
  if (tag.exact()) {
    EXPECT_EQ(tag.error_bound, 0.0);
  } else {
    EXPECT_GT(tag.error_bound, 0.0);
  }
}

TEST(CostModelTest, CsrPlusAdvertisesTheoremCostAndExactAccuracy) {
  auto graph = RandomGraph(60, 360, 7);
  CsrPlusOptions options;
  options.rank = 8;
  auto engine = CsrPlusEngine::Precompute(graph, options);
  ASSERT_TRUE(engine.ok());
  // Theorem 3.5 query shape: n (r + 1) fused multiply-adds per column.
  const CostModel cost = engine->EstimateCost(3);
  EXPECT_TRUE(cost.advertised());
  EXPECT_DOUBLE_EQ(cost.per_query_cost, 60.0 * 9.0);
  EXPECT_DOUBLE_EQ(cost.batch_cost, 3.0 * 60.0 * 9.0);
  EXPECT_TRUE(engine->Accuracy().exact());
  EXPECT_EQ(engine->Accuracy().error_bound, 0.0);
}

TEST(CostModelTest, UnadvertisedDefaultIsAllZero) {
  const CostModel none;
  EXPECT_FALSE(none.advertised());
  EXPECT_EQ(none.batch_cost, 0.0);
  EXPECT_EQ(none.per_query_cost, 0.0);
}

TEST(CostModelTest, DynamicEngineDelegatesToItsInnerEngine) {
  auto graph = RandomGraph(60, 360, 7);
  eval::RunConfig config;
  auto dynamic = eval::CreateEngine(eval::Method::kDynamic,
                                    graph::ColumnNormalizedTransition(graph),
                                    config);
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();
  const CostModel cost = (*dynamic)->EstimateCost(2);
  EXPECT_TRUE(cost.advertised());
  EXPECT_DOUBLE_EQ(cost.batch_cost, 2.0 * cost.per_query_cost);
  EXPECT_TRUE((*dynamic)->Accuracy().exact());
}

TEST(ValidateQueriesTest, AcceptsValidSets) {
  EXPECT_TRUE(ValidateQueries({0, 5, 9}, 10).ok());
  EXPECT_TRUE(ValidateQueries({3, 3}, 10).ok());  // duplicates allowed
}

TEST(ValidateQueriesTest, RejectsEmptyAndOutOfRange) {
  EXPECT_TRUE(ValidateQueries({}, 10).IsInvalidArgument());
  EXPECT_TRUE(ValidateQueries({10}, 10).IsInvalidArgument());
  EXPECT_TRUE(ValidateQueries({-1}, 10).IsInvalidArgument());
}

TEST(ValidateQueriesTest, RejectsDuplicatesWhenAsked) {
  EXPECT_TRUE(
      ValidateQueries({3, 3}, 10, QueryDuplicates::kReject).IsInvalidArgument());
  EXPECT_TRUE(ValidateQueries({1, 2, 3}, 10, QueryDuplicates::kReject).ok());
}

TEST(CsrPlusOptionsTest, ValidateCatchesBadParameters) {
  CsrPlusOptions options;
  EXPECT_TRUE(options.Validate().ok());

  options.rank = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.rank = 5;

  options.damping = 1.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.damping = 0.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.damping = 0.6;

  options.epsilon = 0.0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.epsilon = 1e-5;

  options.num_threads = -1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.num_threads = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(CsrPlusOptionsTest, PrecomputeRejectsInvalidOptions) {
  auto graph = csrplus::testing::Figure1Graph();
  CsrPlusOptions options;
  options.damping = 2.0;
  auto engine = CsrPlusEngine::Precompute(graph, options);
  EXPECT_TRUE(engine.status().IsInvalidArgument());
}

}  // namespace
}  // namespace csrplus::core
