// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Seeded inputs for the depbench workloads, built from the in-tree
// synthetic lab and census families (datagen/datasets.h) and the banded
// graph corpus (datagen/graph_corpus.h). The paper's real datasets are
// not in the repository. Every input is a pure function of the seed.

#ifndef DEPMATCH_BENCH_DEPBENCH_INPUTS_H_
#define DEPMATCH_BENCH_DEPBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "depmatch/datagen/graph_corpus.h"
#include "depmatch/graph/dependency_graph.h"
#include "depmatch/match/matching.h"
#include "depmatch/table/table.h"

namespace depbench {

// A source/target table pair on disk whose true correspondence is known:
// target column j holds source column permutation[j] under an opaque
// re-encoding (Definition 1.1) and opaque names c0, c1, ...
struct MatchPairFiles {
  std::string source_csv;
  std::string target_csv;
  std::vector<size_t> permutation;
  bool census = false;
};

struct MatchPairShape {
  size_t lab_pairs = 12;
  size_t census_pairs = 4;
  size_t rows = 5000;
  size_t attributes = 30;
};

// Writes the pairs under `dir`: lab pairs are the two date halves of
// the lab table (the paper's Lab Exam 1/2), census pairs two states'
// samples (NY/CA). Each pair draws its own attribute subset and rows.
std::vector<MatchPairFiles> WriteMatchPairs(const std::string& dir,
                                            uint64_t seed,
                                            const MatchPairShape& shape);

// Correspondences in `pairs` that follow `permutation` (source s maps to
// target t with permutation[t] == s).
size_t CorrectPairs(const std::vector<depmatch::MatchPair>& pairs,
                    const std::vector<size_t>& permutation);

// The banded corpus of `entries` graphs used by the serving workloads and
// catalog_100k: a fixed absolute number of query-like entries in an
// unrelated bulk. This is bench_catalog_scale's corpus, seed included,
// and with QueryFamilyGraph it is the same for every seed: search cost
// depends on how the query family sits against the corpus bands, and
// drawing either per seed moved the search timings by 15-30% between
// seeds. The seed draws the lab tables and the request order.
depmatch::GraphCorpusOptions CorpusConfig(size_t entries);

// Query-family graph `index`: a related-band perturbation of the corpus
// query, on a stream disjoint from every corpus entry.
depmatch::DependencyGraph QueryFamilyGraph(
    const depmatch::GraphCorpusOptions& corpus, size_t index);

// True when `graph` is a perturbation of the corpus query (the related
// and mild bands and the query family): those keep the query's node
// order, so the identity mapping is the correct one. The unrelated bulk
// lives on a disjoint entropy scale.
bool IsQueryPerturbation(const depmatch::DependencyGraph& graph,
                         size_t query_width);

// Correspondences in `pairs` that are the identity.
size_t IdentityPairs(const std::vector<depmatch::MatchPair>& pairs);

// The lab-exam table (column 0 is exam_date) at `rows` rows.
depmatch::Table MakeLabTable(uint64_t seed, size_t rows);

// The lab table's test attributes are columns 1..44 (0 is exam_date).
inline constexpr size_t kLabFirstTest = 1;
inline constexpr size_t kLabTests = 44;

// `count` subsets of `width` distinct columns of [first, first + pool):
// consecutive blocks, wrapping around, of one fixed permutation, so every
// column lands in the same number of subsets (give or take one). The
// subsets do not depend on the seed: which columns a table holds decides
// most of its counting and search cost and its match precision, and
// drawing them per seed moved those metrics by 6-12% between seeds. The
// seed draws the rows, permutations, and encodings. Requires
// width <= pool.
std::vector<std::vector<size_t>> ColumnSubsets(size_t first, size_t pool,
                                               size_t count, size_t width);

}  // namespace depbench

#endif  // DEPMATCH_BENCH_DEPBENCH_INPUTS_H_
