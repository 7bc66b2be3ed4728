#include "core/query_engine.h"

#include <string>
#include <unordered_set>

namespace csrplus::core {

Status ValidateQueries(const std::vector<Index>& queries, Index num_nodes,
                       QueryDuplicates duplicates) {
  if (queries.empty()) {
    return Status::InvalidArgument("query set is empty");
  }
  for (Index q : queries) {
    if (q < 0 || q >= num_nodes) {
      return Status::InvalidArgument("query node " + std::to_string(q) +
                                     " out of range [0, " +
                                     std::to_string(num_nodes) + ")");
    }
  }
  if (duplicates == QueryDuplicates::kReject) {
    std::unordered_set<Index> seen;
    seen.reserve(queries.size());
    for (Index q : queries) {
      if (!seen.insert(q).second) {
        return Status::InvalidArgument("duplicate query node " +
                                       std::to_string(q));
      }
    }
  }
  return Status::OK();
}

Result<TopKLists> QueryEngine::TopKQuery(const std::vector<Index>& queries,
                                         Index k, bool exclude_query) const {
  if (k < 0) {
    return Status::InvalidArgument("k must be non-negative");
  }
  CSR_ASSIGN_OR_RETURN(DenseMatrix block, MultiSourceQuery(queries));
  return TopKOfColumns(block, k,
                       exclude_query ? std::span<const Index>(queries)
                                     : std::span<const Index>());
}

Status SingleSourceViaMultiSource(const QueryEngine& engine, Index query,
                                  std::vector<double>* out) {
  CSR_ASSIGN_OR_RETURN(DenseMatrix block,
                       engine.MultiSourceQuery({query}));
  const Index n = block.rows();
  out->resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    (*out)[static_cast<std::size_t>(i)] = block(i, 0);
  }
  return Status::OK();
}

}  // namespace csrplus::core
