// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Bit-exact comparisons behind depbench's correctness gates: a served or
// replayed result must equal its reference in every double's bit
// pattern, not within a tolerance.

#ifndef DEPMATCH_BENCH_DEPBENCH_CHECKS_H_
#define DEPMATCH_BENCH_DEPBENCH_CHECKS_H_

#include "depmatch/core/graph_catalog.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/match/matching.h"
#include "depmatch/service/protocol.h"

namespace depbench {

bool BitEqual(double a, double b);
bool SameGraph(const depmatch::DependencyGraph& a,
               const depmatch::DependencyGraph& b);
bool SameMatch(const depmatch::MatchResult& a, const depmatch::MatchResult& b);
// Same entries, keys, and pairs in the same order.
bool SameRanking(const depmatch::CatalogSearchResult& a,
                 const depmatch::CatalogSearchResult& b);
// Same status and payload (search hits or match correspondences) as
// `reference`; the request id and the scheduling-dependent search
// counters are not compared.
bool SameResponse(const depmatch::service::Response& served,
                  const depmatch::service::Response& reference);

}  // namespace depbench

#endif  // DEPMATCH_BENCH_DEPBENCH_CHECKS_H_
