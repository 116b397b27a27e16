// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "tools/analyze/determinism_pass.h"

#include <cctype>
#include <regex>

namespace depmatch_analyze {

namespace {

constexpr char kRuleAtomicFloat[] = "det-atomic-float";
constexpr char kRuleReduce[] = "det-reduce";
constexpr char kRuleUnorderedIter[] = "det-unordered-iter";
constexpr char kRuleSentinel[] = "sentinel";

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

size_t SkipSpace(const std::string& code, size_t i) {
  while (i < code.size() && IsSpace(code[i])) ++i;
  return i;
}

// True when `text` is a plain value chain (identifiers joined by ::, .,
// ->, with optional [index]es) — i.e. naming a container directly, not
// the result of a call that may already impose an order.
bool IsPlainChain(const std::string& text) {
  for (char c : text) {
    if (c == '(' || c == ')') return false;
  }
  return true;
}

void Report(const SourceFile& file, size_t line, const std::string& rule,
            const std::string& message, std::vector<Finding>* findings) {
  if (Suppressed(file.raw_lines, line, rule)) return;
  findings->push_back({file.rel, line, rule, message});
}

}  // namespace

void DeterminismPass::Collect(const SourceFile& file) {
  if (!file.in_src) return;
  const std::string& code = file.code;
  static const char* kContainers[] = {"unordered_map", "unordered_set",
                                      "unordered_multimap",
                                      "unordered_multiset"};
  for (const char* container : kContainers) {
    std::string word = container;
    size_t pos = 0;
    while ((pos = code.find(word, pos)) != std::string::npos) {
      size_t after = pos + word.size();
      bool boundary = (pos == 0 || !IsIdentChar(code[pos - 1])) &&
                      (after >= code.size() || !IsIdentChar(code[after]));
      pos = after;
      if (!boundary) continue;
      size_t j = SkipSpace(code, after);
      if (j >= code.size() || code[j] != '<') continue;
      int angle = 1;
      ++j;
      while (j < code.size() && angle > 0) {
        if (code[j] == '<') ++angle;
        if (code[j] == '>') --angle;
        ++j;
      }
      j = SkipSpace(code, j);
      // `unordered_map<...>::iterator`, `unordered_map<...>*`, etc. are
      // type positions, not declarations of a named object.
      std::string name = ReadIdentifier(code, j);
      if (name.empty()) continue;
      unordered_names_.insert(name);
    }
  }
}

void DeterminismPass::Check(const SourceFile& file,
                            std::vector<Finding>* findings) const {
  if (!file.in_src) return;
  const std::string& code = file.code;

  static const std::regex kAtomicFloat(
      R"(\bstd::atomic\s*<\s*(?:double|float|long\s+double)\s*>)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kAtomicFloat);
       it != std::sregex_iterator(); ++it) {
    size_t line = LineOfOffset(code, static_cast<size_t>(it->position()));
    Report(file, line, kRuleAtomicFloat,
           "std::atomic over a floating-point type; concurrent "
           "accumulation through it reorders IEEE additions — accumulate "
           "per-thread and combine in a fixed order instead",
           findings);
  }

  static const std::regex kReduce(
      R"(\bstd::reduce\b|\bstd::transform_reduce\b|\bstd::execution\b|#\s*pragma\s+omp\b)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kReduce);
       it != std::sregex_iterator(); ++it) {
    size_t line = LineOfOffset(code, static_cast<size_t>(it->position()));
    Report(file, line, kRuleReduce,
           "'" + it->str() +
               "': unordered reduction/parallelism primitive in library "
               "code; results must not depend on scheduling — use "
               "std::accumulate or ThreadPool with a fixed combine order",
           findings);
  }

  // Unordered-iteration rule: only in files documented bit-identical.
  if (file.raw.find(SentinelMarker()) == std::string::npos) return;

  // Range-for over a registered unordered container.
  for (size_t i = 0; i + 3 < code.size(); ++i) {
    if (code.compare(i, 3, "for") != 0) continue;
    if (i > 0 && IsIdentChar(code[i - 1])) continue;
    if (IsIdentChar(code[i + 3])) continue;
    size_t open = SkipSpace(code, i + 3);
    if (open >= code.size() || code[open] != '(') continue;
    size_t close = MatchParen(code, open);
    if (close == std::string::npos) continue;
    std::string head = code.substr(open + 1, close - open - 2);
    // The range-for ':' at nesting depth 0 (ignore '::').
    size_t colon = std::string::npos;
    int nest = 0;
    for (size_t k = 0; k < head.size(); ++k) {
      char c = head[k];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++nest;
      if (c == ')' || c == ']' || c == '}' || c == '>') --nest;
      if (c == ':' && nest == 0) {
        if ((k + 1 < head.size() && head[k + 1] == ':') ||
            (k > 0 && head[k - 1] == ':')) {
          continue;
        }
        colon = k;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    std::string range = head.substr(colon + 1);
    if (!IsPlainChain(range)) continue;  // a call may impose an order
    std::string name = LastIdentifierIgnoringIndex(range);
    if (name.empty() || unordered_names_.count(name) == 0) continue;
    size_t line = LineOfOffset(code, i);
    Report(file, line, kRuleUnorderedIter,
           "range-for over unordered container '" + name +
               "' in a bit-identical-marked file; hash iteration order "
               "is unspecified — iterate a sorted copy or use an ordered "
               "container",
           findings);
  }

  // someunordered.begin() / .cbegin() (also via ->).
  for (size_t i = 0; i + 5 < code.size(); ++i) {
    if (code[i] != '.' && !(code[i] == '>' && i > 0 && code[i - 1] == '-')) {
      continue;
    }
    size_t m = SkipSpace(code, i + 1);
    std::string method = ReadIdentifier(code, m);
    if (method != "begin" && method != "cbegin") continue;
    size_t paren = SkipSpace(code, m + method.size());
    if (paren >= code.size() || code[paren] != '(') continue;
    // Identifier before the access operator.
    size_t end = code[i] == '.' ? i : i - 1;
    while (end > 0 && IsSpace(code[end - 1])) --end;
    size_t begin = end;
    while (begin > 0 && IsIdentChar(code[begin - 1])) --begin;
    std::string name = code.substr(begin, end - begin);
    if (name.empty() || unordered_names_.count(name) == 0) continue;
    size_t line = LineOfOffset(code, begin);
    Report(file, line, kRuleUnorderedIter,
           "iterator over unordered container '" + name +
               "' in a bit-identical-marked file; hash iteration order "
               "is unspecified — iterate a sorted copy or use an ordered "
               "container",
           findings);
  }
}

void DeterminismPass::CheckRequiredSentinels(
    const std::vector<SourceFile>& files,
    std::vector<Finding>* findings) const {
  // Files whose public contract is "bit-identical at any thread count"
  // (docs/performance.md). The sentinel comment must survive refactors
  // so the determinism rules keep applying; deleting it shows up in a
  // diff (and here). A renamed file simply drops off the list — the
  // diff reviewer decides.
  static const char* kRequired[] = {
      "src/depmatch/stats/joint_kernel.cc",
      "src/depmatch/stats/stat_cache.cc",
      "src/depmatch/stats/count_state.cc",
      "src/depmatch/graph/incremental_builder.cc",
      "src/depmatch/table/encoded_column.cc",
      "src/depmatch/match/score_kernel.cc",
      "src/depmatch/match/annealing_matcher.cc",
      "src/depmatch/match/graduated_assignment.cc",
      "src/depmatch/match/exhaustive_matcher.cc",
      "src/depmatch/match/graph_signature.cc",
      "src/depmatch/graph/graph_io.cc",
      "src/depmatch/core/catalog_index.cc",
      "src/depmatch/core/graph_catalog.cc",
      "src/depmatch/core/multi_match.cc",
      "src/depmatch/core/sharded_store.cc",
  };
  for (const char* rel : kRequired) {
    for (const auto& file : files) {
      if (file.rel != rel) continue;
      if (file.raw.find(SentinelMarker()) == std::string::npos) {
        findings->push_back(
            {rel, 1, kRuleSentinel,
             "file is documented bit-identical at any thread count but "
             "lacks the '" +
                 SentinelMarker() + "' sentinel comment"});
      }
      break;
    }
  }
}

}  // namespace depmatch_analyze
