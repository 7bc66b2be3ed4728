#include "core/topk.h"

#include <algorithm>

#include "obs/stats.h"
#include "obs/trace.h"

namespace csrplus::core {
namespace {

template <typename ScoreAt>
std::vector<ScoredNode> SelectTopK(Index n, Index k, ScoreAt&& score_at,
                                   std::span<const Index> exclude) {
  TopKSelector selector(SelectionWidth(k, exclude.size(), n));
  for (Index i = 0; i < n; ++i) selector.Offer(i, score_at(i));
  return TrimTopK(selector.Take(), k, exclude);
}

}  // namespace

std::vector<ScoredNode> TrimTopK(std::vector<ScoredNode> list, Index k,
                                 std::span<const Index> exclude) {
  if (!exclude.empty()) {
    // Sorted probe: the list holds up to k + |exclude| entries, so a linear
    // scan of a long exclude list would go quadratic.
    std::vector<Index> sorted(exclude.begin(), exclude.end());
    std::sort(sorted.begin(), sorted.end());
    std::erase_if(list, [&sorted](const ScoredNode& entry) {
      return std::binary_search(sorted.begin(), sorted.end(), entry.node);
    });
  }
  if (static_cast<Index>(list.size()) > std::max<Index>(k, 0)) {
    list.resize(static_cast<std::size_t>(std::max<Index>(k, 0)));
  }
  return list;
}

std::vector<ScoredNode> TopK(const std::vector<double>& scores, Index k,
                             const std::vector<Index>& exclude) {
  return SelectTopK(
      static_cast<Index>(scores.size()), k,
      [&scores](Index i) { return scores[static_cast<std::size_t>(i)]; },
      exclude);
}

std::vector<ScoredNode> TopKOfColumn(const linalg::DenseMatrix& scores,
                                     Index col, Index k,
                                     const std::vector<Index>& exclude) {
  CSR_CHECK(col >= 0 && col < scores.cols());
  return SelectTopK(
      scores.rows(), k, [&scores, col](Index i) { return scores(i, col); },
      exclude);
}

TopKLists TopKOfColumns(const linalg::DenseMatrix& scores, Index k,
                        std::span<const Index> exclude_per_column) {
  const Index n = scores.rows();
  const Index cols = scores.cols();
  CSR_CHECK(exclude_per_column.empty() ||
            static_cast<Index>(exclude_per_column.size()) == cols);
  CSRPLUS_OBS_SCOPED_US(
      "csrplus.query.topk_select_us",
      "top-k selection pass per call (block scan or fused shard merge)");
  CSRPLUS_TRACE_SPAN_ARG(span, obs::spans::kTopKSelect, "columns", cols);
  const std::size_t excluded = exclude_per_column.empty() ? 0 : 1;
  std::vector<TopKSelector> selectors(
      static_cast<std::size_t>(cols),
      TopKSelector(SelectionWidth(k, excluded, n)));
  if (k > 0) {
    for (Index i = 0; i < n; ++i) {
      const double* row = scores.RowPtr(i);
      for (Index j = 0; j < cols; ++j) {
        selectors[static_cast<std::size_t>(j)].Offer(i, row[j]);
      }
    }
  }
  TopKLists out(static_cast<std::size_t>(cols));
  for (Index j = 0; j < cols; ++j) {
    const auto c = static_cast<std::size_t>(j);
    out[c] = TrimTopK(selectors[c].Take(), k,
                      excluded ? exclude_per_column.subspan(c, 1)
                               : std::span<const Index>());
  }
  return out;
}

}  // namespace csrplus::core
