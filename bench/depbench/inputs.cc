// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "depmatch/common/logging.h"
#include "depmatch/common/rng.h"
#include "depmatch/common/string_util.h"
#include "depmatch/datagen/datasets.h"
#include "depmatch/table/csv.h"
#include "depmatch/table/table_ops.h"

namespace depbench {

using depmatch::DependencyGraph;
using depmatch::GraphCorpusOptions;
using depmatch::MatchPair;
using depmatch::Rng;
using depmatch::StrFormat;
using depmatch::Table;

namespace {

// Seed of the fixed column order ColumnSubsets cuts into blocks.
constexpr uint64_t kColumnOrderSeed = 0xC01u;

// Query-family graphs draw from entry streams far past any corpus index,
// so no family graph can coincide with a corpus entry.
constexpr size_t kQueryFamilyOffset = size_t{1} << 40;

// The corpus query band tops out at 6 bits of entropy and the mild band
// jitters it by up to 30%, while the unrelated bulk starts at 8 bits
// (datagen/graph_corpus.cc), so 7.9 bits separates the two.
constexpr double kPerturbationEntropyCeiling = 7.9;

// Writes one pair: source rows from `a`, target rows from `b`, both over
// `attrs`; the target's columns are permuted and opaquely re-encoded.
MatchPairFiles WritePair(const std::string& dir, size_t index, const Table& a,
                         const Table& b, const std::vector<size_t>& attrs,
                         size_t rows, bool census, Rng& rng) {
  Table source = depmatch::SampleRows(
      depmatch::ProjectColumns(a, attrs).value(), rows, rng);
  Table target = depmatch::SampleRows(
      depmatch::ProjectColumns(b, attrs).value(), rows, rng);
  MatchPairFiles files;
  files.census = census;
  files.permutation.resize(attrs.size());
  std::iota(files.permutation.begin(), files.permutation.end(), size_t{0});
  rng.Shuffle(files.permutation);
  depmatch::OpaqueEncodeOptions opaque;
  opaque.attribute_prefix = "c";
  Table encoded = depmatch::OpaqueEncode(
      depmatch::ProjectColumns(target, files.permutation).value(), opaque, rng);
  files.source_csv = StrFormat("%s/pair%02zu_s.csv", dir.c_str(), index);
  files.target_csv = StrFormat("%s/pair%02zu_t.csv", dir.c_str(), index);
  DEPMATCH_CHECK(depmatch::WriteCsvFile(source, files.source_csv, {}).ok());
  DEPMATCH_CHECK(depmatch::WriteCsvFile(encoded, files.target_csv, {}).ok());
  return files;
}

}  // namespace

std::vector<MatchPairFiles> WriteMatchPairs(const std::string& dir,
                                            uint64_t seed,
                                            const MatchPairShape& shape) {
  Rng rng(seed ^ 0x9A1Bu);
  std::vector<MatchPairFiles> pairs;

  // Lab Exam 1/2: the two date halves of one lab table.
  Table lab = MakeLabTable(seed, 4 * shape.rows);
  depmatch::RangePartitionResult halves =
      depmatch::RangePartitionAtMedian(lab, 0).value();
  for (const std::vector<size_t>& attrs :
       ColumnSubsets(kLabFirstTest, kLabTests, shape.lab_pairs, shape.attributes)) {
    pairs.push_back(WritePair(dir, pairs.size(), halves.low, halves.high, attrs,
                              shape.rows, /*census=*/false, rng));
  }

  // Census NY/CA: independent samples of the same joint distribution.
  if (shape.census_pairs > 0) {
    depmatch::datagen::CensusConfig config;
    config.num_rows = shape.rows;
    config.epoch = 0;
    Table ny = depmatch::datagen::MakeCensusTable(config, seed * 2 + 1).value();
    config.epoch = 1;
    Table ca = depmatch::datagen::MakeCensusTable(config, seed * 2 + 2).value();
    for (const std::vector<size_t>& attrs :
         ColumnSubsets(0, ny.num_attributes(), shape.census_pairs, shape.attributes)) {
      pairs.push_back(WritePair(dir, pairs.size(), ny, ca, attrs, shape.rows,
                                /*census=*/true, rng));
    }
  }
  return pairs;
}

size_t CorrectPairs(const std::vector<MatchPair>& pairs,
                    const std::vector<size_t>& permutation) {
  size_t correct = 0;
  for (const MatchPair& pair : pairs) {
    if (pair.target < permutation.size() && permutation[pair.target] == pair.source) {
      ++correct;
    }
  }
  return correct;
}

GraphCorpusOptions CorpusConfig(size_t entries) {
  GraphCorpusOptions options;
  options.seed = 29;
  options.query_width = 8;
  options.min_width = 4;
  options.max_width = 16;
  double n = static_cast<double>(entries);
  options.related_fraction = std::min(0.25, 20.0 / n);
  options.mild_fraction = std::min(0.25, 100.0 / n);
  options.narrow_fraction = 0.10;
  return options;
}

DependencyGraph QueryFamilyGraph(const GraphCorpusOptions& corpus, size_t index) {
  GraphCorpusOptions family = corpus;
  family.related_fraction = 1.0;
  return depmatch::CorpusEntry(family, kQueryFamilyOffset + index);
}

bool IsQueryPerturbation(const DependencyGraph& graph, size_t query_width) {
  if (graph.size() != query_width) return false;
  for (size_t i = 0; i < graph.size(); ++i) {
    if (graph.entropy(i) >= kPerturbationEntropyCeiling) return false;
  }
  return true;
}

size_t IdentityPairs(const std::vector<MatchPair>& pairs) {
  return static_cast<size_t>(std::count_if(
      pairs.begin(), pairs.end(),
      [](const MatchPair& pair) { return pair.source == pair.target; }));
}

Table MakeLabTable(uint64_t seed, size_t rows) {
  depmatch::datagen::LabExamConfig config;
  config.num_rows = rows;
  return depmatch::datagen::MakeLabExamTable(config, seed).value();
}

std::vector<std::vector<size_t>> ColumnSubsets(size_t first, size_t pool,
                                               size_t count, size_t width) {
  std::vector<size_t> order(pool);
  std::iota(order.begin(), order.end(), first);
  Rng(kColumnOrderSeed).Shuffle(order);
  std::vector<std::vector<size_t>> subsets(count);
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = 0; j < width; ++j) {
      subsets[i].push_back(order[(i * width + j) % pool]);
    }
  }
  return subsets;
}

}  // namespace depbench
