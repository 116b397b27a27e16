// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "checks.h"

#include <bit>
#include <cstdint>

#include "depmatch/graph/graph_io.h"

namespace depbench {

using depmatch::service::RequestType;
using depmatch::service::Response;
using depmatch::service::WireStatus;

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameGraph(const depmatch::DependencyGraph& a,
               const depmatch::DependencyGraph& b) {
  return depmatch::SerializeGraphBinary(a) == depmatch::SerializeGraphBinary(b);
}

bool SameMatch(const depmatch::MatchResult& a, const depmatch::MatchResult& b) {
  return a.pairs == b.pairs && BitEqual(a.metric_value, b.metric_value) &&
         a.nodes_explored == b.nodes_explored &&
         a.budget_exhausted == b.budget_exhausted;
}

bool SameRanking(const depmatch::CatalogSearchResult& a,
                 const depmatch::CatalogSearchResult& b) {
  if (a.ranked.size() != b.ranked.size()) return false;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    const depmatch::CatalogMatch& x = a.ranked[i];
    const depmatch::CatalogMatch& y = b.ranked[i];
    if (x.entry != y.entry || x.name != y.name ||
        !BitEqual(x.ranking_key, y.ranking_key) ||
        !BitEqual(x.normalized_score, y.normalized_score) ||
        x.match.pairs != y.match.pairs ||
        !BitEqual(x.match.metric_value, y.match.metric_value)) {
      return false;
    }
  }
  return true;
}

bool SameResponse(const Response& served, const Response& reference) {
  if (served.status != reference.status || served.type != reference.type) {
    return false;
  }
  if (served.status != WireStatus::kOk) return true;
  if (served.type == RequestType::kSearch) {
    const auto& a = served.search;
    const auto& b = reference.search;
    if (a.snapshot_version != b.snapshot_version || a.hits.size() != b.hits.size()) {
      return false;
    }
    for (size_t i = 0; i < a.hits.size(); ++i) {
      const auto& x = a.hits[i];
      const auto& y = b.hits[i];
      if (x.name != y.name || x.entry != y.entry || x.pairs != y.pairs ||
          !BitEqual(x.ranking_key, y.ranking_key) ||
          !BitEqual(x.normalized_score, y.normalized_score) ||
          !BitEqual(x.metric_value, y.metric_value)) {
        return false;
      }
    }
    return true;
  }
  if (served.type == RequestType::kMatchTables) {
    const auto& a = served.match;
    const auto& b = reference.match;
    if (!BitEqual(a.metric_value, b.metric_value) ||
        a.correspondences.size() != b.correspondences.size()) {
      return false;
    }
    for (size_t i = 0; i < a.correspondences.size(); ++i) {
      const auto& x = a.correspondences[i];
      const auto& y = b.correspondences[i];
      if (x.source_index != y.source_index || x.target_index != y.target_index ||
          x.source_name != y.source_name || x.target_name != y.target_name) {
        return false;
      }
    }
    return true;
  }
  return false;
}

}  // namespace depbench
