// Tests of the observability layer: the metrics registry, the trace
// buffer, the JSONL run report, and their integration with the harness.
// The macro/span assertions are compiled out together with the layer
// under -DCQABENCH_NO_OBS; everything else (registry, reporter, record
// plumbing) stays functional in both build modes and is tested in both.

#include "obs/metrics.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "json_test_util.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "test_util.h"

namespace cqa {
namespace {

using testing::EmployeeFixture;
using testing::MiniJson;
using testing::ReadJsonl;
using testing::TempPath;

// ---------------------------------------------------------------------------
// Registry (functional in both build modes).

TEST(RegistryTest, CountersAreNamedAndStable) {
  obs::Registry& reg = obs::Registry::Instance();
  obs::Counter* c = reg.GetCounter("test.registry.alpha");
  EXPECT_EQ(c, reg.GetCounter("test.registry.alpha"));
  c->Reset();
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(reg.CounterValue("test.registry.alpha"), 42u);
  EXPECT_EQ(reg.CounterValue("test.registry.never_registered"), 0u);
}

TEST(RegistryTest, HistogramBucketsArePowersOfTwo) {
  obs::Histogram* h =
      obs::Registry::Instance().GetHistogram("test.registry.hist");
  h->Reset();
  h->Observe(0);   // bucket 0
  h->Observe(1);   // bucket 1
  h->Observe(2);   // bucket 2: [2, 4)
  h->Observe(3);   // bucket 2
  h->Observe(4);   // bucket 3: [4, 8)
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 10u);
  EXPECT_EQ(h->max(), 4u);
  EXPECT_EQ(h->bucket(0), 1u);
  EXPECT_EQ(h->bucket(1), 1u);
  EXPECT_EQ(h->bucket(2), 2u);
  EXPECT_EQ(h->bucket(3), 1u);
}

TEST(RegistryTest, GaugesMoveBothWaysAndAreNamed) {
  obs::Registry& reg = obs::Registry::Instance();
  obs::Gauge* g = reg.GetGauge("test.registry.gauge");
  EXPECT_EQ(g, reg.GetGauge("test.registry.gauge"));
  g->Reset();
  g->Set(5);
  g->Add(-8);
  EXPECT_EQ(g->value(), -3);
  EXPECT_EQ(reg.GaugeValue("test.registry.gauge"), -3);
  EXPECT_EQ(reg.GaugeValue("test.registry.never_registered"), 0);
  bool found = false;
  for (const obs::GaugeSnapshot& snap : reg.Gauges()) {
    if (snap.name == "test.registry.gauge") {
      found = true;
      EXPECT_EQ(snap.value, -3);
    }
  }
  EXPECT_TRUE(found);
}

// Gauges track serving state (queue depths, open connections), so they
// update through direct calls and stay live even while the hot-path
// counter macros are disabled.
TEST(RegistryTest, GaugesIgnoreTheEnabledSwitch) {
  obs::Registry& reg = obs::Registry::Instance();
  obs::Gauge* g = reg.GetGauge("test.registry.gauge_gated");
  g->Reset();
  reg.set_enabled(false);
  g->Set(7);
  reg.set_enabled(true);
  EXPECT_EQ(g->value(), 7);
}

TEST(RegistryTest, ToJsonIsValid) {
  obs::Registry& reg = obs::Registry::Instance();
  reg.GetCounter("test.registry.json")->Increment();
  reg.GetGauge("test.registry.json_gauge")->Set(-2);
  std::map<std::string, std::string> top;
  ASSERT_TRUE(MiniJson::ParseObject(reg.ToJson(), &top)) << reg.ToJson();
  ASSERT_TRUE(top.count("gauges")) << reg.ToJson();
  EXPECT_NE(top["gauges"].find("\"test.registry.json_gauge\":-2"),
            std::string::npos)
      << top["gauges"];
}

TEST(RegistryTest, ToJsonCarriesHistogramQuantiles) {
  obs::Registry& reg = obs::Registry::Instance();
  obs::Histogram* h = reg.GetHistogram("test.registry.quantile_json");
  h->Reset();
  h->Observe(16);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\":"), std::string::npos) << json;
}

TEST(RegistryTest, ToJsonP999TracksTailValues) {
  obs::Registry& reg = obs::Registry::Instance();
  obs::Histogram* h = reg.GetHistogram("test.registry.p999_json");
  h->Reset();
  // 500 fast observations and one large outlier: p99 sits in the bulk,
  // p999 (target rank 500.5 of 501) must reach the outlier's bucket.
  for (int i = 0; i < 500; ++i) h->Observe(10);
  h->Observe(100000);
  obs::HistogramSnapshot snap = h->snapshot();
  EXPECT_LE(snap.Quantile(0.99), 100.0);
  EXPECT_GE(snap.Quantile(0.999), 1000.0);
  EXPECT_LE(snap.Quantile(0.999), 100000.0);
}

TEST(HistogramQuantileTest, EmptyAndZeroOnlyDistributions) {
  obs::Histogram* h =
      obs::Registry::Instance().GetHistogram("test.quantile.empty");
  h->Reset();
  EXPECT_EQ(h->snapshot().Quantile(0.5), 0.0);
  for (int i = 0; i < 10; ++i) h->Observe(0);
  EXPECT_EQ(h->snapshot().Quantile(0.5), 0.0);
  EXPECT_EQ(h->snapshot().Quantile(0.99), 0.0);
}

TEST(HistogramQuantileTest, BimodalDistributionSplitsAtTheMass) {
  // 50 zeros and 50 eights: the median sits in the zero mass, the upper
  // tail in the [8, 16) bucket — but never above the observed max.
  obs::Histogram* h =
      obs::Registry::Instance().GetHistogram("test.quantile.bimodal");
  h->Reset();
  for (int i = 0; i < 50; ++i) h->Observe(0);
  for (int i = 0; i < 50; ++i) h->Observe(8);
  obs::HistogramSnapshot snap = h->snapshot();
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_GE(snap.Quantile(0.75), 8.0);
  EXPECT_LE(snap.Quantile(0.99), 8.0);  // clamped to the observed max
}

TEST(HistogramQuantileTest, UniformDistributionIsMonotoneAndBounded) {
  obs::Histogram* h =
      obs::Registry::Instance().GetHistogram("test.quantile.uniform");
  h->Reset();
  for (uint64_t v = 1; v <= 1000; ++v) h->Observe(v);
  obs::HistogramSnapshot snap = h->snapshot();
  double p50 = snap.Quantile(0.5);
  double p95 = snap.Quantile(0.95);
  double p99 = snap.Quantile(0.99);
  // Log-linear interpolation within power-of-two buckets: the true
  // percentiles are 500/950/990; the bucket resolution bounds the error
  // to the enclosing bucket.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 1000.0);
  EXPECT_GE(p99, 512.0);
}

TEST(HistogramQuantileTest, SingleValueClampsToObservedMax) {
  obs::Histogram* h =
      obs::Registry::Instance().GetHistogram("test.quantile.single");
  h->Reset();
  h->Observe(5);
  obs::HistogramSnapshot snap = h->snapshot();
  // With the whole mass in one bucket the quantiles stay within the
  // bucket ([4, 8) for the value 5), clamped above by the observed max.
  EXPECT_GE(snap.Quantile(0.0), 4.0);
  EXPECT_LE(snap.Quantile(0.5), 5.0);
  EXPECT_EQ(snap.Quantile(1.0), 5.0);
}

#ifndef CQABENCH_NO_OBS

TEST(RegistryTest, MacrosIncrementTheNamedMetric) {
  obs::Registry& reg = obs::Registry::Instance();
  reg.GetCounter("test.macro.count")->Reset();
  CQA_OBS_COUNT("test.macro.count");
  CQA_OBS_COUNT_N("test.macro.count", 9);
  EXPECT_EQ(reg.CounterValue("test.macro.count"), 10u);
  obs::Histogram* h = reg.GetHistogram("test.macro.hist");
  h->Reset();
  CQA_OBS_OBSERVE("test.macro.hist", 7);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->sum(), 7u);
}

TEST(RegistryTest, DisablingStopsMacroIncrements) {
  obs::Registry& reg = obs::Registry::Instance();
  reg.GetCounter("test.macro.gated")->Reset();
  reg.set_enabled(false);
  CQA_OBS_COUNT("test.macro.gated");
  reg.set_enabled(true);
  EXPECT_EQ(reg.CounterValue("test.macro.gated"), 0u);
  CQA_OBS_COUNT("test.macro.gated");
  EXPECT_EQ(reg.CounterValue("test.macro.gated"), 1u);
}

TEST(RegistryTest, SchemesPopulateSamplerCounters) {
  obs::Registry& reg = obs::Registry::Instance();
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult pre = BuildSynopses(*fx.db, q);
  uint64_t draws_before = reg.CounterValue("sampler.kl.draws") +
                          reg.CounterValue("sampler.klm.draws") +
                          reg.CounterValue("sampler.indexed_natural.draws");
  uint64_t runs_before = reg.CounterValue("harness.scheme_runs");
  Rng rng(5);
  RunAllSchemes(pre, ApxParams{}, 10.0, rng);
  uint64_t draws_after = reg.CounterValue("sampler.kl.draws") +
                         reg.CounterValue("sampler.klm.draws") +
                         reg.CounterValue("sampler.indexed_natural.draws");
  EXPECT_GT(draws_after, draws_before);
  EXPECT_EQ(reg.CounterValue("harness.scheme_runs"), runs_before + 4);
}

// ---------------------------------------------------------------------------
// Trace spans (the span type is a no-op stub under CQABENCH_NO_OBS).

TEST(TraceTest, SpansRecordNestingAndDuration) {
  obs::TraceBuffer& buffer = obs::TraceBuffer::Instance();
  buffer.Clear();
  uint64_t outer_id = 0;
  {
    obs::TraceSpan outer("test.outer");
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    obs::TraceSpan inner("test.inner", outer.id());
    EXPECT_GE(inner.ElapsedSeconds(), 0.0);
  }
  std::vector<obs::SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner destructs first, so it is recorded first.
  EXPECT_STREQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_STREQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_GE(spans[1].duration_seconds, spans[0].duration_seconds);
  EXPECT_GE(spans[0].start_seconds, spans[1].start_seconds);
}

TEST(TraceTest, RingEvictsOldestAndCountsDrops) {
  obs::TraceBuffer& buffer = obs::TraceBuffer::Instance();
  buffer.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    obs::TraceSpan span(i % 2 == 0 ? "test.even" : "test.odd");
  }
  std::vector<obs::SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 2u);
  // Oldest first: spans 2, 3, 4 survive.
  EXPECT_STREQ(spans[0].name, "test.even");
  EXPECT_STREQ(spans[1].name, "test.odd");
  EXPECT_STREQ(spans[2].name, "test.even");
  EXPECT_LE(spans[0].start_seconds, spans[1].start_seconds);
  buffer.set_capacity(4096);
  buffer.Clear();
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(TraceTest, ExportJsonlIsValid) {
  obs::TraceBuffer& buffer = obs::TraceBuffer::Instance();
  buffer.Clear();
  {
    obs::TraceSpan span("test.export");
  }
  std::string path = TempPath("cqa_obs_trace_test.jsonl");
  std::string error;
  ASSERT_TRUE(buffer.ExportJsonl(path, &error)) << error;
  auto records = ReadJsonl(path);
  // First line is the buffer meta record, then one line per span.
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0]["trace_meta"], "true");
  EXPECT_EQ(records[0]["dropped_spans"], "0");
  EXPECT_EQ(records[0]["buffered_spans"], "1");
  EXPECT_EQ(records[1]["name"], "test.export");
  EXPECT_EQ(records[1]["parent_id"], "0");
  EXPECT_GE(std::stod(records[1]["dur_s"]), 0.0);
  std::filesystem::remove(path);
}

TEST(TraceTest, ExportJsonlCountsDroppedSpans) {
  obs::TraceBuffer& buffer = obs::TraceBuffer::Instance();
  buffer.Clear();
  buffer.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    obs::TraceSpan span("test.drop");
  }
  std::string path = TempPath("cqa_obs_trace_drop_test.jsonl");
  std::string error;
  ASSERT_TRUE(buffer.ExportJsonl(path, &error)) << error;
  auto records = ReadJsonl(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0]["dropped_spans"], "3");
  EXPECT_EQ(records[0]["buffered_spans"], "2");
  buffer.set_capacity(4096);
  buffer.Clear();
  std::filesystem::remove(path);
}

// The wire-propagated request trace id: stamped on the record at span
// destruction, exported in the JSONL line, absent (no field at all) for
// the untraced hot-path spans.
TEST(TraceTest, TraceIdPropagatesToRecordsAndExport) {
  obs::TraceBuffer& buffer = obs::TraceBuffer::Instance();
  buffer.Clear();
  uint64_t outer_id = 0;
  {
    obs::TraceSpan outer("test.traced.outer", 0, std::string("req-42"));
    outer_id = outer.id();
    obs::TraceSpan inner("test.traced.inner", outer.id(),
                         std::string("req-42"));
    obs::TraceSpan untraced("test.traced.hot", outer.id());
  }
  std::vector<obs::SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Destruction order is untraced, inner, outer.
  EXPECT_STREQ(spans[0].name, "test.traced.hot");
  EXPECT_EQ(spans[0].trace_id, "");
  EXPECT_STREQ(spans[1].name, "test.traced.inner");
  EXPECT_EQ(spans[1].trace_id, "req-42");
  EXPECT_EQ(spans[1].parent_id, outer_id);
  EXPECT_STREQ(spans[2].name, "test.traced.outer");
  EXPECT_EQ(spans[2].trace_id, "req-42");

  std::string path = TempPath("cqa_obs_trace_id_test.jsonl");
  std::string error;
  ASSERT_TRUE(buffer.ExportJsonl(path, &error)) << error;
  auto records = ReadJsonl(path);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[1].count("trace_id"));  // Untraced span: no field.
  EXPECT_EQ(records[2]["trace_id"], "req-42");
  EXPECT_EQ(records[3]["trace_id"], "req-42");
  std::filesystem::remove(path);
}

// Golden-shape test for the Chrome trace exporter: the file must be a
// single JSON object with a traceEvents array of complete ("ph":"X")
// events carrying ts/dur microsecond fields — the contract chrome://
// tracing and Perfetto load.
TEST(TraceTest, ExportChromeTraceIsValid) {
  obs::TraceBuffer& buffer = obs::TraceBuffer::Instance();
  buffer.Clear();
  uint64_t outer_id = 0;
  {
    obs::TraceSpan outer("test.chrome.outer");
    outer_id = outer.id();
    obs::TraceSpan inner("test.chrome.inner", outer.id());
  }
  std::string path = TempPath("cqa_obs_trace_test.chrome.json");
  std::string error;
  ASSERT_TRUE(buffer.ExportChromeTrace(path, &error)) << error;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  std::map<std::string, std::string> top;
  ASSERT_TRUE(MiniJson::ParseObject(contents.str(), &top)) << contents.str();
  ASSERT_TRUE(top.count("traceEvents"));
  ASSERT_TRUE(top.count("otherData"));

  const std::string& events = top["traceEvents"];
  EXPECT_NE(events.find("\"name\":\"test.chrome.inner\""), std::string::npos);
  EXPECT_NE(events.find("\"name\":\"test.chrome.outer\""), std::string::npos);
  EXPECT_NE(events.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(events.find("\"ts\":"), std::string::npos);
  EXPECT_NE(events.find("\"dur\":"), std::string::npos);
  EXPECT_NE(events.find("\"pid\":1"), std::string::npos);
  // The parent linkage survives in args.
  EXPECT_NE(events.find("\"parent_id\":" + std::to_string(outer_id)),
            std::string::npos);

  std::map<std::string, std::string> other;
  ASSERT_TRUE(MiniJson::ParseObject(top["otherData"], &other));
  EXPECT_EQ(other["dropped_spans"], "0");
  EXPECT_EQ(other["buffered_spans"], "2");
  std::filesystem::remove(path);
}

#endif  // !CQABENCH_NO_OBS

// ---------------------------------------------------------------------------
// Run records and the JSONL reporter (functional in both build modes).

TEST(ReportTest, RunRecordToJsonEscapesAndRoundTrips) {
  obs::RunRecord record;
  record.scenario = "Noise[\"quoted\\path\"]";
  record.x_label = "noise";
  record.x = 0.25;
  record.scheme = "KLM";
  record.estimate = 0.5;
  record.num_answers = 3;
  record.estimator_samples = 10;
  record.main_samples = 20;
  record.total_samples = 30;
  record.timed_out = true;
  record.per_thread_samples = {12, 8};
  std::string json = obs::RunRecordToJson(record);
  std::map<std::string, std::string> parsed;
  ASSERT_TRUE(MiniJson::ParseObject(json, &parsed)) << json;
  EXPECT_EQ(parsed["scenario"], "Noise[\"quoted\\path\"]");
  EXPECT_EQ(parsed["scheme"], "KLM");
  EXPECT_EQ(parsed["x_label"], "noise");
  EXPECT_EQ(std::stod(parsed["x"]), 0.25);
  EXPECT_EQ(parsed["estimator_samples"], "10");
  EXPECT_EQ(parsed["main_samples"], "20");
  EXPECT_EQ(parsed["total_samples"], "30");
  EXPECT_EQ(parsed["timed_out"], "true");
  EXPECT_EQ(parsed["per_thread_samples"], "[12,8]");
}

TEST(ReportTest, ReporterWritesOneLinePerRecord) {
  std::string path = TempPath("cqa_obs_report_test.jsonl");
  obs::RunReporter reporter;
  std::string error;
  ASSERT_TRUE(reporter.Open(path, &error)) << error;
  EXPECT_TRUE(reporter.is_open());
  obs::RunRecord record;
  record.scenario = "unit";
  record.scheme = "Natural";
  reporter.Add(record);
  record.scheme = "KL";
  reporter.Add(record);
  EXPECT_EQ(reporter.num_records(), 2u);
  reporter.Close();
  auto records = ReadJsonl(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0]["scheme"], "Natural");
  EXPECT_EQ(records[1]["scheme"], "KL");
  std::filesystem::remove(path);
}

TEST(ReportTest, OpenFailsOnBadPath) {
  obs::RunReporter reporter;
  std::string error;
  EXPECT_FALSE(reporter.Open("/nonexistent_dir_xyz/report.jsonl", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(reporter.is_open());
}

// The acceptance path: RunAllSchemes with a reporter emits one valid
// record per scheme, carrying the phase breakdown.
TEST(ReportTest, RunAllSchemesEmitsOneRecordPerScheme) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult pre = BuildSynopses(*fx.db, q);
  std::string path = TempPath("cqa_obs_harness_test.jsonl");
  obs::RunReporter reporter;
  std::string error;
  ASSERT_TRUE(reporter.Open(path, &error)) << error;
  Rng rng(7);
  obs::RunContext context{"Test[0.5, 1]", "noise", 0.5};
  RunAllSchemes(pre, ApxParams{}, 10.0, rng, &reporter, context);
  reporter.Close();

  auto records = ReadJsonl(path);
  ASSERT_EQ(records.size(), 4u);
  const char* kExpected[] = {"Natural", "KL", "KLM", "Cover"};
  for (size_t i = 0; i < records.size(); ++i) {
    auto& r = records[i];
    EXPECT_EQ(r["scenario"], "Test[0.5, 1]");
    EXPECT_EQ(r["x_label"], "noise");
    EXPECT_EQ(std::stod(r["x"]), 0.5);
    EXPECT_EQ(r["scheme"], kExpected[i]);
    EXPECT_EQ(r["num_answers"], "3");
    EXPECT_EQ(r["timed_out"], "false");
    // The sample split is consistent and non-trivial.
    size_t estimator = std::stoull(r["estimator_samples"]);
    size_t main = std::stoull(r["main_samples"]);
    EXPECT_EQ(std::stoull(r["total_samples"]), estimator + main);
    EXPECT_GT(main, 0u);
    EXPECT_GE(std::stod(r["total_seconds"]), 0.0);
    EXPECT_GE(std::stod(r["main_seconds"]), 0.0);
    ASSERT_TRUE(r.count("per_thread_samples")) << r["scheme"];
  }
  std::filesystem::remove(path);
}

// Parallel Monte Carlo surfaces per-worker sample counts: with two
// threads the per_thread_samples array of the MC schemes has two entries
// summing to the main-phase total.
TEST(ReportTest, ParallelRunReportsPerThreadSamples) {
  EmployeeFixture fx;
  ConjunctiveQuery q = MustParseCq(*fx.schema, "Q(N) :- employee(I, N, D).");
  PreprocessResult pre = BuildSynopses(*fx.db, q);
  std::string path = TempPath("cqa_obs_parallel_test.jsonl");
  obs::RunReporter reporter;
  std::string error;
  ASSERT_TRUE(reporter.Open(path, &error)) << error;
  ApxParams params;
  params.num_threads = 2;
  Rng rng(11);
  obs::RunContext context{"Parallel[2]", "threads", 2.0};
  RunAllSchemes(pre, params, 10.0, rng, &reporter, context);
  reporter.Close();

  auto records = ReadJsonl(path);
  ASSERT_EQ(records.size(), 4u);
  for (auto& r : records) {
    if (r["scheme"] == "Cover") continue;  // inherently sequential
    std::string array = r["per_thread_samples"];
    // Per-answer worker counts are summed element-wise across answers:
    // two workers -> two entries, together covering every main draw.
    size_t entries = 0;
    size_t sum = 0;
    std::stringstream ss(array.substr(1, array.size() - 2));
    std::string item;
    while (std::getline(ss, item, ',')) {
      ++entries;
      sum += std::stoull(item);
    }
    EXPECT_EQ(entries, 2u) << r["scheme"] << " " << array;
    EXPECT_EQ(sum, std::stoull(r["main_samples"]))
        << r["scheme"] << " " << array;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cqa
