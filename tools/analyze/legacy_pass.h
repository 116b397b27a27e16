// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// The rules depmatch_analyze absorbed from depmatch_lint, unchanged in
// spirit and rule id (existing `allow(...)` suppressions keep working):
//
//   discarded-status  a bare call to a Status/Result-returning function
//                     whose result is dropped (.cc files)
//   no-throw          `throw` in library code (src/)
//   no-std-random     std::rand/srand anywhere; std::mt19937 outside
//                     common/rng; unseeded mt19937 anywhere
//   raw-thread        std::thread/jthread/async/pthread_create outside
//                     common/thread_pool
//   header-guard      DEPMATCH_<PATH>_H_ include guards
//
// The old bit-identical construct check is NOT here: the determinism
// pass supersedes it with src-wide det-atomic-float / det-reduce and the
// sentinel-scoped det-unordered-iter.

#ifndef DEPMATCH_TOOLS_ANALYZE_LEGACY_PASS_H_
#define DEPMATCH_TOOLS_ANALYZE_LEGACY_PASS_H_

#include <set>
#include <string>
#include <vector>

#include "tools/analyze/source.h"

namespace depmatch_analyze {

class LegacyPass {
 public:
  // Harvests Status/Result-returning function names from src/ files.
  void Collect(const SourceFile& file);

  void Check(const SourceFile& file, std::vector<Finding>* findings) const;

 private:
  std::set<std::string> status_fns_;
  // Names that ALSO appear with a void return type somewhere in src/.
  // Name-level matching cannot tell the overloads apart, so ambiguous
  // names are excluded from the discarded-status rule rather than
  // flooding every void call site with false positives.
  std::set<std::string> void_fns_;
};

}  // namespace depmatch_analyze

#endif  // DEPMATCH_TOOLS_ANALYZE_LEGACY_PASS_H_
