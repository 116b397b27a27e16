// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "tools/analyze/legacy_pass.h"

#include <cctype>
#include <cstring>
#include <regex>

namespace depmatch_analyze {

namespace {

// ---------------------------------------------------------------------------
// Statement splitting for the discarded-status rule (carried over from
// depmatch_lint verbatim in behaviour).
// ---------------------------------------------------------------------------

struct Statement {
  size_t line = 0;  // 1-based line of the first non-space character
  std::string text;
};

// True when a '{' after `cur` opens a brace initializer (Foo f{...},
// Result<int>{...}) rather than a block: the preceding token must be an
// identifier/template/subscript end, and the statement must not start
// with a type- or control-keyword (class Foo {, namespace x {, ...).
bool BraceOpensInitializer(const std::string& cur) {
  size_t e = cur.find_last_not_of(" \t\r\n");
  if (e == std::string::npos) return false;
  char last = cur[e];
  bool ident_like = std::isalnum(static_cast<unsigned char>(last)) != 0 ||
                    last == '_' || last == '>' || last == ']';
  if (!ident_like) return false;
  size_t b = cur.find_first_not_of(" \t\r\n");
  // Skip access-specifier labels so `public: struct X {` still reads as
  // a type definition.
  for (const char* label : {"public:", "private:", "protected:"}) {
    if (cur.compare(b, std::char_traits<char>::length(label), label) == 0) {
      b = cur.find_first_not_of(" \t\r\n",
                                b + std::char_traits<char>::length(label));
      if (b == std::string::npos) return false;
      break;
    }
  }
  size_t head_end = cur.find_first_of(" \t\r\n<({", b);
  std::string head = head_end == std::string::npos
                         ? cur.substr(b)
                         : cur.substr(b, head_end - b);
  static const char* kBlockKeywords[] = {
      "class", "struct", "enum",  "union",    "namespace", "extern",
      "if",    "else",   "for",   "while",    "do",        "switch",
      "try",   "catch",  "return"};
  for (const char* kw : kBlockKeywords) {
    if (head == kw) return false;
  }
  return true;
}

// Splits stripped code into statements at ';', '{', '}' seen at paren
// depth 0 — where '{' that opens a brace initializer counts as a paren,
// not a boundary, and a preprocessor directive is its own statement
// ending at the (non-continued) end of line.
std::vector<Statement> SplitStatements(const std::string& code) {
  std::vector<Statement> statements;
  size_t paren_depth = 0;
  size_t init_brace_depth = 0;
  bool in_preproc = false;
  std::string cur;
  size_t cur_line = 0;
  size_t line = 1;
  auto flush = [&]() {
    size_t b = cur.find_first_not_of(" \t\r\n");
    if (b != std::string::npos) {
      size_t e = cur.find_last_not_of(" \t\r\n");
      statements.push_back({cur_line, cur.substr(b, e - b + 1)});
    }
    cur.clear();
    cur_line = 0;
  };
  for (char c : code) {
    if (c == '\n') ++line;
    if (in_preproc) {
      if (c == '\n' && (cur.empty() || cur.back() != '\\')) {
        flush();
        in_preproc = false;
      } else {
        cur.push_back(c);
      }
      continue;
    }
    if (cur.empty() && c == '#') {
      in_preproc = true;
      cur_line = line;
      cur.push_back(c);
      continue;
    }
    if (c == '(' || c == '[') {
      ++paren_depth;
    } else if (c == ')' || c == ']') {
      if (paren_depth > 0) --paren_depth;
    }
    if (paren_depth == 0 && (c == ';' || c == '{' || c == '}')) {
      if (c == '{' && BraceOpensInitializer(cur)) {
        ++init_brace_depth;
      } else if (c == '}' && init_brace_depth > 0) {
        --init_brace_depth;
      } else if (init_brace_depth == 0) {
        flush();
        continue;
      }
    }
    if (cur.empty() && (c == ' ' || c == '\t' || c == '\r' || c == '\n')) {
      continue;
    }
    if (cur.empty()) cur_line = line;
    cur.push_back(c);
  }
  flush();
  return statements;
}

bool StartsWithKeyword(const std::string& stmt) {
  static const char* kKeywords[] = {
      "return",   "if",       "while",  "for",      "switch", "case",
      "default",  "do",       "else",   "using",    "typedef", "namespace",
      "template", "class",    "struct", "enum",     "static_assert",
      "goto",     "break",    "continue", "delete", "new",    "throw",
      "co_return", "co_await", "public", "private",  "protected", "friend",
      "extern",   "#"};
  for (const char* kw : kKeywords) {
    size_t n = std::strlen(kw);
    if (stmt.compare(0, n, kw) == 0 &&
        (stmt.size() == n ||
         !(std::isalnum(static_cast<unsigned char>(stmt[n])) != 0 ||
           stmt[n] == '_'))) {
      return true;
    }
  }
  return false;
}

// True when `stmt` contains a top-level '=' that is an assignment (not
// ==, !=, <=, >=), meaning the statement consumes a value.
bool HasTopLevelAssignment(const std::string& stmt) {
  size_t depth = 0;
  for (size_t i = 0; i < stmt.size(); ++i) {
    char c = stmt[i];
    if (c == '(' || c == '[' || c == '<') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '>') {
      if (depth > 0) --depth;
    } else if (c == '=' && depth == 0) {
      char prev = i > 0 ? stmt[i - 1] : '\0';
      char next = i + 1 < stmt.size() ? stmt[i + 1] : '\0';
      if (prev != '=' && prev != '!' && prev != '<' && prev != '>' &&
          next != '=') {
        return true;
      }
    }
  }
  return false;
}

// If `stmt` is a plain call expression (optionally a member chain),
// returns the name of the outermost (final) call; otherwise "".
std::string OutermostCallName(const std::string& stmt) {
  if (stmt.empty() || stmt.back() != ')') return "";
  size_t depth = 0;
  size_t open = std::string::npos;
  for (size_t i = stmt.size(); i-- > 0;) {
    char c = stmt[i];
    if (c == ')') {
      ++depth;
    } else if (c == '(') {
      --depth;
      if (depth == 0) {
        open = i;
        break;
      }
    }
  }
  if (open == std::string::npos || open == 0) return "";
  size_t end = open;
  while (end > 0 && std::isspace(static_cast<unsigned char>(stmt[end - 1])) != 0) {
    --end;
  }
  size_t start = end;
  while (start > 0) {
    char c = stmt[start - 1];
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_') {
      --start;
    } else {
      break;
    }
  }
  if (start == end) return "";
  // The prefix before the identifier must be a value chain (member access
  // or qualification), not an operator expression or declaration.
  std::string prefix = stmt.substr(0, start);
  static const std::regex kChain(
      R"(^(?:[A-Za-z_]\w*(?:\(\s*\))?(?:::|\.|->)|\(\s*|\s)*$)");
  if (!prefix.empty() && !std::regex_match(prefix, kChain)) return "";
  return stmt.substr(start, end - start);
}

void Report(const SourceFile& file, size_t line, const std::string& rule,
            const std::string& message, std::vector<Finding>* findings) {
  if (Suppressed(file.raw_lines, line, rule)) return;
  findings->push_back({file.rel, line, rule, message});
}

}  // namespace

void LegacyPass::Collect(const SourceFile& file) {
  if (!file.in_src) return;
  // Registry of Status / Result<T>-returning function names, harvested
  // from declarations and definitions across src/. Name-level matching
  // is a heuristic: an unrelated void function with the same name would
  // be flagged too, which is handled by renaming or a suppression
  // comment — both acceptable costs for catching every dropped error
  // path.
  static const std::regex kDecl(
      R"((?:^|[;{}\s])(?:const\s+)?(?:::depmatch::)?(?:depmatch::)?(?:Status|Result\s*<[^;{}()]+>)\s*&?\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\()");
  const std::string& code = file.code;
  auto begin = std::sregex_iterator(code.begin(), code.end(), kDecl);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::string name = (*it)[1].str();
    if (name == "if" || name == "while" || name == "for" ||
        name == "switch" || name == "return" || name == "operator") {
      continue;
    }
    status_fns_.insert(name);
  }
  // Harvest void-returning declarations of the same shape. A name that
  // appears with BOTH a Status/Result and a void return type is
  // ambiguous at name level (e.g. ColumnBuilder::Append vs
  // TableCountState::Append) and is dropped from the rule in Check —
  // flagging every void call site would drown the real findings.
  static const std::regex kVoidDecl(
      R"((?:^|[;{}\s])void\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\()");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kVoidDecl);
       it != std::sregex_iterator(); ++it) {
    void_fns_.insert((*it)[1].str());
  }
}

void LegacyPass::Check(const SourceFile& file,
                       std::vector<Finding>* findings) const {
  const std::string& code = file.code;
  const std::string& rel = file.rel;

  // discarded-status (.cc files only).
  if (rel.size() >= 3 && rel.compare(rel.size() - 3, 3, ".cc") == 0) {
    for (const Statement& stmt : SplitStatements(code)) {
      if (stmt.text[0] == '#') continue;  // preprocessor directive
      if (StartsWithKeyword(stmt.text)) continue;
      if (stmt.text.rfind("(void)", 0) == 0) continue;
      if (HasTopLevelAssignment(stmt.text)) continue;
      std::string name = OutermostCallName(stmt.text);
      if (name.empty() || status_fns_.count(name) == 0) continue;
      if (void_fns_.count(name) != 0) continue;  // ambiguous overload set
      Report(file, stmt.line, "discarded-status",
             "result of '" + name +
                 "' (returns Status/Result) is discarded; check it, "
                 "propagate it, or cast to (void) with a justification",
             findings);
    }
  }

  // no-throw (src/ only).
  if (file.in_src) {
    static const std::regex kThrow(R"(\bthrow\b)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kThrow);
         it != std::sregex_iterator(); ++it) {
      size_t line = LineOfOffset(code, static_cast<size_t>(it->position()));
      Report(file, line, "no-throw",
             "library code must not throw; return Status/Result<T> instead",
             findings);
    }
  }

  // no-std-random.
  {
    static const std::regex kRand(R"(\bstd::rand\b|\bsrand\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kRand);
         it != std::sregex_iterator(); ++it) {
      size_t line = LineOfOffset(code, static_cast<size_t>(it->position()));
      Report(file, line, "no-std-random",
             "std::rand/srand are banned; use depmatch::Rng", findings);
    }
    bool in_rng = rel.find("common/rng") != std::string::npos;
    static const std::regex kMt(R"(\bstd::mt19937(?:_64)?\b)");
    static const std::regex kMtArgless(
        R"(\bstd::mt19937(?:_64)?\s+\w+\s*[;,)]|\bstd::mt19937(?:_64)?\s*(?:\(\s*\)|\{\s*\}))");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kMt);
         it != std::sregex_iterator(); ++it) {
      size_t line = LineOfOffset(code, static_cast<size_t>(it->position()));
      if (file.in_src && !in_rng) {
        Report(file, line, "no-std-random",
               "std::mt19937 in library code; all randomness flows through "
               "depmatch::Rng (common/rng.h)",
               findings);
      }
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kMtArgless);
         it != std::sregex_iterator(); ++it) {
      size_t line = LineOfOffset(code, static_cast<size_t>(it->position()));
      if (file.in_src && !in_rng) continue;  // already reported above
      Report(file, line, "no-std-random",
             "default-constructed std::mt19937 is unseeded and "
             "irreproducible; seed it or use depmatch::Rng",
             findings);
    }
  }

  // raw-thread.
  if (rel.find("common/thread_pool") == std::string::npos) {
    static const std::regex kThread(
        R"(\bstd::(?:thread|jthread)\b(?!::)|\bstd::async\b|\bpthread_create\b)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kThread);
         it != std::sregex_iterator(); ++it) {
      size_t line = LineOfOffset(code, static_cast<size_t>(it->position()));
      Report(file, line, "raw-thread",
             "raw thread primitive outside common/thread_pool.cc; use "
             "ThreadPool (or suppress with a justification in tests that "
             "exercise cross-thread behaviour)",
             findings);
    }
  }

  // header-guard.
  if (file.is_header) {
    std::string path_part = rel;
    const std::string kSrcPrefix = "src/depmatch/";
    if (path_part.rfind(kSrcPrefix, 0) == 0) {
      path_part = path_part.substr(kSrcPrefix.size());
    }
    std::string guard = "DEPMATCH_";
    for (char c : path_part) {
      if (c == '/' || c == '.') {
        guard.push_back('_');
      } else {
        guard.push_back(
            static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
      }
    }
    guard.push_back('_');
    if (code.find("#ifndef " + guard) == std::string::npos ||
        code.find("#define " + guard) == std::string::npos) {
      Report(file, 1, "header-guard",
             "expected include guard '" + guard +
                 "' (#ifndef/#define pair) derived from the header path",
             findings);
    }
  }
}

}  // namespace depmatch_analyze
