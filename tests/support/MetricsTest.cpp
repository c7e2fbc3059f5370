//===- tests/support/MetricsTest.cpp - Registry and trace-span tests ------===//
//
// Unit coverage for the observability layer: counter/gauge/histogram
// semantics (notably Prometheus `le` bucket boundaries), registry
// interning by (name, labels), the text exposition format, and the JSONL
// trace sink driven through the reinitFromEnv() test hook.
//
// The registry is process-global and append-only, so every test uses
// metric names unique to itself; values are asserted as deltas where a
// metric could plausibly be shared.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

using namespace efc;
using namespace efc::metrics;

namespace {

TEST(Counter, IncrementAndValue) {
  Counter &C = Registry::instance().counter("test_counter_basic", "help");
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
}

TEST(Counter, InterningReturnsSameObject) {
  Counter &A = Registry::instance().counter("test_counter_interned");
  Counter &B = Registry::instance().counter("test_counter_interned");
  EXPECT_EQ(&A, &B);
  A.inc();
  EXPECT_EQ(B.value(), 1u);
}

TEST(Counter, DistinctLabelsDistinctObjects) {
  Registry &R = Registry::instance();
  Counter &A = R.counter("test_counter_lbl", "h", "backend=\"vm\"");
  Counter &B = R.counter("test_counter_lbl", "h", "backend=\"native\"");
  EXPECT_NE(&A, &B);
  A.inc(3);
  EXPECT_EQ(B.value(), 0u);
}

TEST(DoubleCounter, Accumulates) {
  DoubleCounter &D = Registry::instance().dcounter("test_dcounter");
  D.add(0.25);
  D.add(0.5);
  EXPECT_DOUBLE_EQ(D.value(), 0.75);
}

TEST(Gauge, SetAddSub) {
  Gauge &G = Registry::instance().gauge("test_gauge");
  G.set(10);
  G.add(5);
  G.sub(7);
  EXPECT_EQ(G.value(), 8);
  G.sub(20);
  EXPECT_EQ(G.value(), -12); // gauges may go negative
}

// Prometheus `le` semantics: a sample exactly equal to a bucket's upper
// bound belongs to that bucket, not the next.
TEST(Histogram, SampleAtBoundLandsInThatBucket) {
  Histogram &H = Registry::instance().histogram(
      "test_hist_bounds", "h", {1.0, 2.0, 5.0});
  ASSERT_EQ(H.numBounds(), 3u);
  H.observe(1.0); // == bounds[0]  -> bucket 0
  H.observe(0.5); //  < bounds[0]  -> bucket 0
  H.observe(1.5); //               -> bucket 1
  H.observe(2.0); // == bounds[1]  -> bucket 1
  H.observe(5.0); // == bounds[2]  -> bucket 2
  H.observe(6.0); //  > all bounds -> +Inf
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 2u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(3), 1u); // index numBounds() == +Inf
  EXPECT_EQ(H.count(), 6u);
  EXPECT_DOUBLE_EQ(H.sum(), 1.0 + 0.5 + 1.5 + 2.0 + 5.0 + 6.0);
}

TEST(Histogram, ZeroAndNegativeSamplesGoToFirstBucket) {
  Histogram &H =
      Registry::instance().histogram("test_hist_zero", "h", {0.0, 1.0});
  H.observe(0.0);  // == bounds[0]
  H.observe(-1.0); //  < bounds[0]
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.count(), 2u);
}

TEST(Histogram, InterningPreservesLayout) {
  Registry &R = Registry::instance();
  Histogram &A = R.histogram("test_hist_intern", "h", {1.0, 10.0});
  Histogram &B = R.histogram("test_hist_intern", "h", {1.0, 10.0});
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(B.numBounds(), 2u);
  EXPECT_DOUBLE_EQ(B.bound(1), 10.0);
}

TEST(Render, CounterFamilyHeaderAndValue) {
  Registry &R = Registry::instance();
  R.counter("test_render_plain", "A plain counter").inc(7);
  std::string Text = R.renderPrometheus();
  EXPECT_NE(Text.find("# HELP test_render_plain A plain counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE test_render_plain counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("\ntest_render_plain 7\n"), std::string::npos);
}

TEST(Render, LabeledVariantsShareOneHeader) {
  Registry &R = Registry::instance();
  R.counter("test_render_lbl", "Labeled", "backend=\"vm\"").inc(1);
  R.counter("test_render_lbl", "Labeled", "backend=\"native\"").inc(2);
  std::string Text = R.renderPrometheus();
  // Exactly one HELP line for the family, both label bodies present.
  size_t First = Text.find("# HELP test_render_lbl ");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Text.find("# HELP test_render_lbl ", First + 1),
            std::string::npos);
  EXPECT_NE(Text.find("test_render_lbl{backend=\"vm\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("test_render_lbl{backend=\"native\"} 2\n"),
            std::string::npos);
}

TEST(Render, HistogramCumulativeBuckets) {
  Registry &R = Registry::instance();
  Histogram &H = R.histogram("test_render_hist", "H", {0.5, 2.0});
  H.observe(0.25);
  H.observe(1.0);
  H.observe(9.0);
  std::string Text = R.renderPrometheus();
  EXPECT_NE(Text.find("# TYPE test_render_hist histogram\n"),
            std::string::npos);
  // Buckets are cumulative in the exposition even though storage is raw.
  EXPECT_NE(Text.find("test_render_hist_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("test_render_hist_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Text.find("test_render_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(Text.find("test_render_hist_count 3\n"), std::string::npos);
  EXPECT_NE(Text.find("test_render_hist_sum 10.25\n"), std::string::npos);
}

TEST(Render, GaugeType) {
  Registry &R = Registry::instance();
  R.gauge("test_render_gauge", "G").set(-4);
  std::string Text = R.renderPrometheus();
  EXPECT_NE(Text.find("# TYPE test_render_gauge gauge\n"),
            std::string::npos);
  EXPECT_NE(Text.find("\ntest_render_gauge -4\n"), std::string::npos);
}

TEST(Render, FamiliesSortedByName) {
  Registry &R = Registry::instance();
  R.counter("test_sorted_b").inc();
  R.counter("test_sorted_a").inc();
  std::string Text = R.renderPrometheus();
  size_t A = Text.find("# TYPE test_sorted_a");
  size_t B = Text.find("# TYPE test_sorted_b");
  ASSERT_NE(A, std::string::npos);
  ASSERT_NE(B, std::string::npos);
  EXPECT_LT(A, B); // registration order was b, a — render sorts
}

//===----------------------------------------------------------------------===//
// Trace spans
//===----------------------------------------------------------------------===//

/// Reads every line of \p Path.
std::vector<std::string> linesOf(const std::string &Path) {
  std::ifstream F(Path);
  std::vector<std::string> Lines;
  std::string L;
  while (std::getline(F, L))
    Lines.push_back(L);
  return Lines;
}

/// Extracts the integer value of \p Key from a JSONL span line, or -1.
long long jsonInt(const std::string &Line, const std::string &Key) {
  size_t P = Line.find("\"" + Key + "\":");
  if (P == std::string::npos)
    return -1;
  return atoll(Line.c_str() + P + Key.size() + 3);
}

class TraceSink : public ::testing::Test {
protected:
  std::string Path;

  void SetUp() override {
    // One file per test: ctest runs each test in its own process, several
    // at once, and a shared path mixes their spans into one sink.
    Path = ::testing::TempDir() + "efc_trace_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".jsonl";
    std::remove(Path.c_str());
    setenv("EFC_TRACE", Path.c_str(), 1);
    trace::reinitFromEnv();
  }
  void TearDown() override {
    unsetenv("EFC_TRACE");
    trace::reinitFromEnv();
    std::remove(Path.c_str());
  }
};

TEST_F(TraceSink, NestedSpansFormATree) {
  ASSERT_TRUE(trace::enabled());
  {
    trace::Span Outer("outer");
    Outer.note("answer", uint64_t(42));
    {
      trace::Span Inner("inner");
      Inner.note("msg", std::string_view("a\"b"));
    }
  }
  // Close the sink so everything is flushed before we read.
  unsetenv("EFC_TRACE");
  trace::reinitFromEnv();

  auto Lines = linesOf(Path);
  ASSERT_EQ(Lines.size(), 2u); // inner dies first
  EXPECT_NE(Lines[0].find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(Lines[1].find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(Lines[1].find("\"answer\":42"), std::string::npos);
  EXPECT_NE(Lines[0].find("\"msg\":\"a\\\"b\""), std::string::npos)
      << "string attributes must be JSON-escaped: " << Lines[0];

  long long OuterId = jsonInt(Lines[1], "id");
  ASSERT_GT(OuterId, 0);
  EXPECT_EQ(jsonInt(Lines[0], "parent"), OuterId);
  // The outer span is a root: no parent key at all.
  EXPECT_EQ(Lines[1].find("\"parent\""), std::string::npos);
  EXPECT_GE(jsonInt(Lines[0], "dur_us"), 0);
}

TEST_F(TraceSink, DisabledSpansAreInert) {
  unsetenv("EFC_TRACE");
  trace::reinitFromEnv();
  ASSERT_FALSE(trace::enabled());
  {
    trace::Span S("ghost");
    S.note("k", uint64_t(1));
  }
  // Re-enable and confirm the sink saw nothing from the inert span.
  setenv("EFC_TRACE", Path.c_str(), 1);
  trace::reinitFromEnv();
  {
    trace::Span S("real");
  }
  unsetenv("EFC_TRACE");
  trace::reinitFromEnv();
  auto Lines = linesOf(Path);
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_NE(Lines[0].find("\"name\":\"real\""), std::string::npos);
}

TEST_F(TraceSink, SiblingSpansShareAParent) {
  {
    trace::Span Root("root");
    { trace::Span A("a"); }
    { trace::Span B("b"); }
  }
  unsetenv("EFC_TRACE");
  trace::reinitFromEnv();
  auto Lines = linesOf(Path);
  ASSERT_EQ(Lines.size(), 3u);
  long long RootId = jsonInt(Lines[2], "id");
  EXPECT_EQ(jsonInt(Lines[0], "parent"), RootId);
  EXPECT_EQ(jsonInt(Lines[1], "parent"), RootId);
}

} // namespace
