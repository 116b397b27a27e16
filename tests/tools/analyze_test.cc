// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Self-test for tools/depmatch_analyze: the analyzer must pass on the
// real tree, and every rule must fire on the fixture tree under
// tests/tools/analyze_fixtures. The fixtures are the executable spec of
// the rules — a rule that stops firing there has silently died.

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunAnalyzer(const std::string& args) {
  std::string cmd = std::string(DEPMATCH_ANALYZE_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult result;
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string FixtureRoot() { return DEPMATCH_ANALYZE_FIXTURES; }

std::string GoodFile(const std::string& name) {
  return FixtureRoot() + "/src/depmatch/common/" + name;
}

TEST(AnalyzeSelfTest, PassesOnTheRealTree) {
  RunResult r = RunAnalyzer(std::string("--root ") + DEPMATCH_SOURCE_DIR);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("files clean"), std::string::npos) << r.output;
}

TEST(AnalyzeSelfTest, FixtureTreeTriggersEveryRule) {
  RunResult r = RunAnalyzer("--root " + FixtureRoot());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const char* kRules[] = {
      "[lock-discipline]", "[lock-annotation]",  "[layer]",
      "[layer-cycle]",     "[det-atomic-float]", "[det-reduce]",
      "[det-unordered-iter]", "[discarded-status]", "[no-throw]",
      "[no-std-random]",   "[raw-thread]",       "[header-guard]",
  };
  for (const char* rule : kRules) {
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << "rule did not fire on the fixtures: " << rule << "\n"
        << r.output;
  }
}

TEST(AnalyzeSelfTest, LockDisciplineCoversAllThreeFailureModes) {
  RunResult r = RunAnalyzer("--root " + FixtureRoot());
  // Unlocked field access, EXCLUDES under own lock, once-write outside
  // call_once — each anchored to the marked fixture line.
  EXPECT_NE(r.output.find("bad_lock.cc:9"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad_lock.cc:14"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad_lock.cc:23"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad_lock.h:23"), std::string::npos) << r.output;
}

TEST(AnalyzeSelfTest, LayerPassReportsViolationAndCycle) {
  RunResult r = RunAnalyzer("--root " + FixtureRoot());
  EXPECT_NE(r.output.find("stats/cyclic.h:7"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("may not depend on 'graph'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("include cycle"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("is not declared in the layer DAG"),
            std::string::npos)
      << r.output;
}

TEST(AnalyzeSelfTest, FindingsNameFileAndLine) {
  RunResult r = RunAnalyzer("--root " + FixtureRoot());
  EXPECT_NE(r.output.find("bad_lib.cc:15"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("det_bad.cc:24"), std::string::npos) << r.output;
}

TEST(AnalyzeSelfTest, CleanFilesWithSuppressionsPass) {
  std::string files = GoodFile("good_lib.h") + " " + GoodFile("good_lib.cc") +
                      " " + GoodFile("good_locked.h") + " " +
                      GoodFile("good_locked.cc");
  RunResult r = RunAnalyzer("--root " + FixtureRoot() + " " + files);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(AnalyzeSelfTest, JsonOutputIsMachineReadable) {
  RunResult r = RunAnalyzer("--root " + FixtureRoot() + " --json");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"finding_count\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"rule\": \"lock-discipline\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"rule\": \"layer-cycle\""), std::string::npos)
      << r.output;
}

TEST(AnalyzeSelfTest, UnknownFlagIsAToolErrorNotAFinding) {
  RunResult r = RunAnalyzer("--no-such-flag");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(AnalyzeSelfTest, MissingRootIsAToolError) {
  RunResult r = RunAnalyzer("--root /nonexistent/depmatch/root");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(AnalyzeSelfTest, EmitArchProducesTheModuleGraph) {
  std::string out = ::testing::TempDir() + "/arch_fixture.json";
  RunResult r =
      RunAnalyzer("--root " + FixtureRoot() + " --emit-arch " + out);
  EXPECT_EQ(r.exit_code, 1) << r.output;  // fixtures still have findings
  std::ifstream in(out);
  ASSERT_TRUE(in.good()) << out;
  std::stringstream ss;
  ss << in.rdbuf();
  std::string arch = ss.str();
  EXPECT_NE(arch.find("\"declared_layers\""), std::string::npos) << arch;
  EXPECT_NE(arch.find("\"observed_includes\""), std::string::npos) << arch;
  EXPECT_NE(arch.find("\"from\": \"stats\""), std::string::npos) << arch;
  std::remove(out.c_str());
}

}  // namespace
