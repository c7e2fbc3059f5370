//===- tests/integration/CliToolTest.cpp - efcc end-to-end ----------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

/// A file in TempDir() private to the running test.  ctest runs the tests
/// in separate processes, several at once, so a name shared by two tests
/// would let one read the other's output.
std::string tempFile(const char *Name) {
  return ::testing::TempDir() + "/" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + Name;
}

std::string efccPath() {
  // ctest may run from the build root or build/tests.
  for (const char *P : {"./tools/efcc", "../tools/efcc", "build/tools/efcc"}) {
    std::ifstream F(P, std::ios::binary);
    if (F.good())
      return P;
  }
  return "";
}

bool efccAvailable() { return !efccPath().empty(); }

/// Runs a shell command, captures stdout.
int runCmd(const std::string &Cmd, std::string &Out) {
  std::string File = tempFile("efcc_out.txt");
  int Rc = std::system((Cmd + " > " + File + " 2>/dev/null").c_str());
  std::ifstream F(File);
  std::ostringstream Buf;
  Buf << F.rdbuf();
  Out = Buf.str();
  return Rc;
}

TEST(CliToolTest, CsvMaxEndToEnd) {
  if (!efccAvailable())
    GTEST_SKIP() << "efcc not built in expected location";
  std::string Csv = tempFile("efcc_in.csv");
  {
    std::ofstream F(Csv);
    F << "a,17,x\nb,99,y\nc,40,z\n";
  }
  std::string Out;
  int Rc = runCmd(efccPath() +
                      " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*'"
                      " --agg max --format decimal --run " +
                  Csv, Out);
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out, "99");
}

TEST(CliToolTest, XPathSqlEndToEnd) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Xml = tempFile("efcc_in.xml");
  {
    std::ofstream F(Xml);
    F << "<r><v>5</v><pad/><v>6</v></r>";
  }
  std::string Out;
  int Rc = runCmd(efccPath() + " --xpath /r/v --format sql --run " + Xml,
                  Out);
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out, "INSERT INTO t VALUES (5);\nINSERT INTO t VALUES (6);\n");
}

TEST(CliToolTest, EmitCppProducesCompilableSource) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Cpp = tempFile("efcc_gen.cpp");
  std::string Out;
  int Rc = runCmd(efccPath() +
                      " --regex '(?<v>\\d+)' --format decimal --emit-cpp " +
                  Cpp, Out);
  EXPECT_EQ(Rc, 0);
  // The unit must at least compile as an object file.
  std::string Obj = tempFile("efcc_gen.o");
  int CRc = std::system(
      ("c++ -std=c++17 -c -o " + Obj + " " + Cpp + " 2>/dev/null").c_str());
  EXPECT_EQ(CRc, 0);
}

TEST(CliToolTest, RejectsInvalidInput) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Csv = tempFile("efcc_bad.csv");
  {
    std::ofstream F(Csv);
    F << "not matching the pattern at all";
  }
  std::string Out;
  int Rc = runCmd(efccPath() +
                      " --regex '(?:(?<v>\\d+),\\n)*' --run " + Csv, Out);
  EXPECT_NE(Rc, 0);
}

/// Runs a shell command, captures stderr (stdout discarded).
int runCmdErr(const std::string &Cmd, std::string &Err) {
  std::string File = tempFile("efcc_err.txt");
  int Rc = std::system((Cmd + " > /dev/null 2>" + File).c_str());
  std::ifstream F(File);
  std::ostringstream Buf;
  Buf << F.rdbuf();
  Err = Buf.str();
  return Rc;
}

TEST(CliToolTest, MetricsDumpOnStderr) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Csv = tempFile("efcc_metrics_in.csv");
  {
    std::ofstream F(Csv);
    F << "a,17,x\nb,99,y\n";
  }
  std::string Err;
  int Rc = runCmdErr(efccPath() +
                         " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),"
                         "[^\\n]*\\n)*' --agg max --format decimal --run " +
                         Csv + " --metrics",
                     Err);
  EXPECT_EQ(Rc, 0);
  // A fresh process exercised solver, fusion, RBBE, cache and fast path;
  // all must appear in the Prometheus dump.
  for (const char *Family :
       {"# TYPE efc_solver_checks_total counter", "efc_solver_implied_total",
        "efc_fusion_runs_total", "efc_rbbe_runs_total 1",
        "efc_cache_builds_total 1", "efc_fastpath_runs_total",
        "efc_fastpath_spec_runs_total", "efc_fastpath_wide_elements_total"})
    EXPECT_NE(Err.find(Family), std::string::npos)
        << "missing from --metrics dump: " << Family << "\n" << Err;
  // --run output stays machine-clean: the dump must not be on stdout.
  std::string Out;
  runCmd(efccPath() +
             " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),[^\\n]*\\n)*'"
             " --agg max --format decimal --run " +
             Csv + " --metrics",
         Out);
  EXPECT_EQ(Out, "99");
}

TEST(CliToolTest, TraceEmitsCompileSpanTree) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Csv = tempFile("efcc_trace_in.csv");
  {
    std::ofstream F(Csv);
    F << "a,17,x\n";
  }
  std::string Trace = tempFile("efcc_trace.jsonl");
  std::remove(Trace.c_str());
  std::string Out;
  int Rc = runCmd("EFC_TRACE=" + Trace + " " + efccPath() +
                      " --regex '(?:(?:[^,\\n]*,){1}(?<v>\\d+),"
                      "[^\\n]*\\n)*' --agg max --format decimal --run " +
                      Csv,
                  Out);
  EXPECT_EQ(Rc, 0);
  std::ifstream F(Trace);
  ASSERT_TRUE(F.good()) << "EFC_TRACE file was not created";
  std::ostringstream Buf;
  Buf << F.rdbuf();
  std::string Spans = Buf.str();
  // The compile-phase tree: a root "compile" span with fuse, rbbe,
  // vm_compile and fastpath_plan children.
  for (const char *Name : {"\"name\":\"compile\"", "\"name\":\"fuse\"",
                           "\"name\":\"rbbe\"", "\"name\":\"vm_compile\"",
                           "\"name\":\"fastpath_plan\""})
    EXPECT_NE(Spans.find(Name), std::string::npos)
        << "missing span: " << Name << "\n" << Spans;
  // Children carry a parent id; the root must not.
  size_t CompileLine = Spans.find("\"name\":\"compile\"");
  ASSERT_NE(CompileLine, std::string::npos);
  size_t LineStart = Spans.rfind('\n', CompileLine);
  LineStart = LineStart == std::string::npos ? 0 : LineStart + 1;
  size_t LineEnd = Spans.find('\n', CompileLine);
  std::string Root = Spans.substr(LineStart, LineEnd - LineStart);
  EXPECT_EQ(Root.find("\"parent\""), std::string::npos) << Root;
  size_t FuseLine = Spans.find("\"name\":\"fuse\"");
  std::string Fuse =
      Spans.substr(FuseLine, Spans.find('\n', FuseLine) - FuseLine);
  EXPECT_NE(Fuse.find("\"parent\":"), std::string::npos) << Fuse;
}

TEST(CliToolTest, UsageErrors) {
  if (!efccAvailable())
    GTEST_SKIP();
  std::string Out;
  EXPECT_NE(runCmd(efccPath(), Out), 0);
  EXPECT_NE(runCmd(efccPath() + " --regex a --xpath /b --stats", Out), 0);
  EXPECT_NE(runCmd(efccPath() + " --regex a --agg bogus --stats", Out), 0);
}

} // namespace
