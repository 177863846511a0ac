// src/obs: the metrics registry must render valid Prometheus text
// format (validated by a real line-grammar parser here), the trace tree
// must serialize deterministically modulo timing fields, and the
// slow-query log must keep exactly the K worst entries and render as
// comment lines that keep the exposition valid, and ExpositionValue must
// read back exactly the series it names. Runs under the
// Sanitize and TSan CI legs (StartSpan races are the supported case).
#include <cstdint>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"

namespace quickview::obs {
namespace {

// ---------------------------------------------------------------------------
// Prometheus text-format validator: line grammar, TYPE-before-samples,
// one TYPE block per metric, histogram bucket monotonicity and
// _count/+Inf agreement; any other `# ` line is a comment. Intentionally
// strict — a regression in the renderer should fail here, not in a scrape
// pipeline.

struct ExpositionCheck {
  std::set<std::string> typed_metrics;
  std::map<std::string, std::vector<uint64_t>> bucket_series;  // cumulative
  std::map<std::string, uint64_t> inf_count;
  std::map<std::string, uint64_t> count_value;
};

void ValidateExposition(const std::string& text, ExpositionCheck* check) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";
  const std::regex type_line(R"(# TYPE ([a-z_][a-z0-9_]*) (counter|gauge|histogram))");
  const std::regex sample_line(
      R"(([a-z_][a-z0-9_]*)(\{[a-z_][a-z0-9_]*="(?:[^"\\\n]|\\["\\n])*"(,[a-z_][a-z0-9_]*="(?:[^"\\\n]|\\["\\n])*")*\})? (\+Inf|-?[0-9]+))");
  std::string declared_prefixless;  // metric name of the open TYPE block
  std::set<std::string> closed_blocks;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    std::smatch m;
    if (line.rfind("# TYPE ", 0) == 0) {
      ASSERT_TRUE(std::regex_match(line, m, type_line)) << line;
      const std::string name = m[1];
      ASSERT_TRUE(check->typed_metrics.insert(name).second)
          << "metric " << name << " declared twice";
      ASSERT_EQ(closed_blocks.count(name), 0u)
          << "samples of " << name << " split across TYPE blocks";
      if (!declared_prefixless.empty()) {
        closed_blocks.insert(declared_prefixless);
      }
      declared_prefixless = name;
      continue;
    }
    if (line.rfind("# ", 0) == 0) continue;
    ASSERT_TRUE(std::regex_match(line, m, sample_line)) << line;
    const std::string sample_name = m[1];
    // Histogram samples append _bucket/_sum/_count to the declared name.
    const bool belongs =
        sample_name == declared_prefixless ||
        sample_name == declared_prefixless + "_bucket" ||
        sample_name == declared_prefixless + "_sum" ||
        sample_name == declared_prefixless + "_count";
    ASSERT_TRUE(belongs) << "sample " << sample_name
                         << " outside its TYPE block (" << declared_prefixless
                         << ")";
    const std::string labels = m[2];
    const std::string value = m[4];
    if (sample_name == declared_prefixless + "_bucket") {
      // Strip the le label to key the series; collect cumulative counts.
      const std::string series =
          sample_name + std::regex_replace(labels, std::regex(R"(,?le="[^"]*")"),
                                           "");
      const uint64_t v = std::stoull(value);
      if (labels.find("le=\"+Inf\"") != std::string::npos) {
        check->inf_count[series] = v;
      } else {
        check->bucket_series[series].push_back(v);
      }
    } else if (sample_name == declared_prefixless + "_count") {
      check->count_value[sample_name + labels] = std::stoull(value);
    }
  }
  for (const auto& [series, cumulative] : check->bucket_series) {
    uint64_t prev = 0;
    for (uint64_t v : cumulative) {
      ASSERT_GE(v, prev) << "non-monotone buckets in " << series;
      prev = v;
    }
    ASSERT_TRUE(check->inf_count.count(series)) << "no +Inf in " << series;
    ASSERT_GE(check->inf_count[series], prev) << series;
  }
}

TEST(MetricsRegistryTest, CounterGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.Set(7);
  g.Add(5);
  g.Sub(2);
  EXPECT_EQ(g.value(), 10);
}

TEST(MetricsRegistryTest, RejectsBadNamesAndDuplicates) {
  MetricsRegistry registry;
  Counter c;
  EXPECT_FALSE(registry.RegisterCounter("Bad-Name", {}, &c).ok());
  EXPECT_FALSE(registry.RegisterCounter("9starts_with_digit", {}, &c).ok());
  EXPECT_FALSE(registry.RegisterCounter("", {}, &c).ok());
  EXPECT_FALSE(registry.RegisterCounter("qv_x_total", {}, nullptr).ok());
  EXPECT_FALSE(
      registry.RegisterCounter("qv_x_total", {{"le", "5"}}, &c).ok());

  ASSERT_TRUE(registry.RegisterCounter("qv_x_total", {{"shard", "0"}}, &c).ok());
  // Same name, different labels: fine. Same labels: duplicate.
  ASSERT_TRUE(registry.RegisterCounter("qv_x_total", {{"shard", "1"}}, &c).ok());
  EXPECT_FALSE(
      registry.RegisterCounter("qv_x_total", {{"shard", "1"}}, &c).ok());
  // Same name, different type: conflict.
  Gauge g;
  EXPECT_FALSE(registry.RegisterGauge("qv_x_total", {{"shard", "2"}}, &g).ok());
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, TextExpositionIsValidPrometheus) {
  MetricsRegistry registry;
  Counter hits;
  hits.Increment(3);
  Counter misses;
  misses.Increment(1);
  Gauge depth;
  depth.Set(-2);
  Histogram latency;
  for (uint64_t v : {3u, 9u, 120u, 120u, 4000u}) latency.Record(v);

  ASSERT_TRUE(
      registry.RegisterCounter("qv_cache_hits_total", {{"shard", "0"}}, &hits)
          .ok());
  ASSERT_TRUE(
      registry.RegisterCounter("qv_cache_hits_total", {{"shard", "1"}}, &misses)
          .ok());
  ASSERT_TRUE(registry.RegisterGauge("qv_pool_queue_depth", {}, &depth).ok());
  ASSERT_TRUE(
      registry.RegisterHistogram("qv_server_latency_us", {{"opcode", "search"}},
                                 &latency)
          .ok());
  ASSERT_TRUE(registry
                  .RegisterCallback("qv_custom_level", {},
                                    MetricsRegistry::InstrumentKind::kGauge,
                                    [] { return int64_t{17}; })
                  .ok());

  const std::string text = registry.TextExposition();
  ExpositionCheck check;
  ValidateExposition(text, &check);
  EXPECT_EQ(check.typed_metrics.size(), 4u);
  // The histogram's +Inf bucket and _count agree with the recorded total.
  EXPECT_EQ(check.inf_count.at("qv_server_latency_us_bucket{opcode=\"search\"}"),
            5u);
  EXPECT_EQ(check.count_value.at("qv_server_latency_us_count{opcode=\"search\"}"),
            5u);
  // Values render where expected.
  EXPECT_NE(text.find("qv_cache_hits_total{shard=\"0\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("qv_pool_queue_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("qv_custom_level 17\n"), std::string::npos);
  // Deterministic: rendering twice is byte-identical.
  EXPECT_EQ(text, registry.TextExposition());
}

TEST(MetricsRegistryTest, EscapesLabelValues) {
  MetricsRegistry registry;
  Gauge g;
  ASSERT_TRUE(registry
                  .RegisterGauge("qv_view_bytes",
                                 {{"view", "a\"b\\c\nd"}}, &g)
                  .ok());
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find(R"(qv_view_bytes{view="a\"b\\c\nd"} 0)"),
            std::string::npos);
  ExpositionCheck check;
  ValidateExposition(text, &check);
}

TEST(MetricsRegistryTest, ExpositionValueReadsTheExactSeries) {
  MetricsRegistry registry;
  Counter longer;
  longer.Increment(9);
  Counter labeled;
  labeled.Increment(7);
  Counter total;
  total.Increment(3);
  auto add = [&registry](const char* name, LabelSet labels, Counter* c) {
    return registry.RegisterCounter(name, std::move(labels), c).ok();
  };
  // Series that merely share a prefix with the one asked for render
  // first, so a prefix match would find them before the real series.
  ASSERT_TRUE(add("qv_server_shed_total_extra", {}, &longer));
  ASSERT_TRUE(add("qv_server_opcode_shed_total", {{"opcode", "S"}}, &labeled));
  ASSERT_TRUE(add("qv_server_shed_total", {{"opcode", "S"}}, &labeled));
  ASSERT_TRUE(add("qv_server_shed_total", {}, &total));
  Gauge level;
  level.Set(-4);
  ASSERT_TRUE(registry.RegisterGauge("qv_server_level", {}, &level).ok());
  Histogram latency;
  for (uint64_t v : {10u, 20u, 30u}) latency.Record(v);
  ASSERT_TRUE(
      registry.RegisterHistogram("qv_latency_us", {{"opcode", "S"}}, &latency)
          .ok());
  const std::string text = "# qv_server_shed_total 99 in a comment\n" +
                           registry.TextExposition();

  EXPECT_EQ(ExpositionValue(text, "qv_server_shed_total"), 3);
  EXPECT_EQ(ExpositionValue(text, "qv_server_shed_total{opcode=\"S\"}"), 7);
  EXPECT_EQ(ExpositionValue(text, "qv_server_level"), -4);
  EXPECT_EQ(ExpositionValue(text, "qv_latency_us_count{opcode=\"S\"}"), 3);
  EXPECT_EQ(ExpositionValue(text, "qv_latency_us_sum{opcode=\"S\"}"), 60);
  // Missing: an absent name, a prefix of a name, a labeled series asked
  // for without its labels, an empty name, an empty text.
  EXPECT_EQ(ExpositionValue(text, "qv_server_missing_total"), std::nullopt);
  EXPECT_EQ(ExpositionValue(text, "qv_server_shed"), std::nullopt);
  EXPECT_EQ(ExpositionValue(text, "qv_server_opcode_shed_total"),
            std::nullopt);
  EXPECT_EQ(ExpositionValue(text, "qv_latency_us_count"), std::nullopt);
  EXPECT_EQ(ExpositionValue(text, ""), std::nullopt);
  EXPECT_EQ(ExpositionValue("", "qv_server_shed_total"), std::nullopt);
  // A value that is not an integer is not read as one.
  EXPECT_EQ(ExpositionValue("qv_x 1.5\n", "qv_x"), std::nullopt);
}

TEST(HistogramSnapshotTest, MatchesLiveHistogram) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, h.count());
  EXPECT_EQ(snap.sum, h.sum());
  uint64_t bucket_total = 0;
  uint64_t prev_upper = 0;
  for (const auto& b : snap.buckets) {
    EXPECT_LE(b.lower, b.upper);
    EXPECT_GT(b.lower, prev_upper) << "buckets must not overlap";
    prev_upper = b.upper;
    bucket_total += b.count;
  }
  EXPECT_EQ(bucket_total, snap.count) << "count is self-consistent";
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(snap.ValueAtQuantile(q), h.ValueAtQuantile(q)) << "q=" << q;
  }
  EXPECT_EQ(HistogramSnapshot{}.ValueAtQuantile(0.5), 0u);
}

TEST(SlowQueryLogTest, KeepsWorstKAboveThreshold) {
  SlowQueryLog log({.threshold_us = 100, .capacity = 3});
  for (uint64_t latency : {50u, 150u, 99u, 500u, 200u, 120u, 300u}) {
    SlowQueryLog::Entry entry;
    entry.latency_us = latency;
    entry.request_id = latency;  // tag to identify survivors
    log.Record(std::move(entry));
  }
  EXPECT_EQ(log.considered(), 7u);
  const std::vector<SlowQueryLog::Entry> kept = log.Snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].latency_us, 500u);
  EXPECT_EQ(kept[1].latency_us, 300u);
  EXPECT_EQ(kept[2].latency_us, 200u);
}

TEST(SlowQueryLogTest, TextExpositionIsCommentLinesWorstFirst) {
  SlowQueryLog log({.threshold_us = 0, .capacity = 4});
  SlowQueryLog::Entry fast;
  fast.latency_us = 40;
  fast.request_id = 2;
  fast.opcode = "Stats";
  fast.description = "Stats";
  log.Record(std::move(fast));
  SlowQueryLog::Entry slow;
  slow.latency_us = 900;
  slow.request_id = 7;
  slow.opcode = "Search";
  slow.description = "search view=v keywords=a\nb";
  slow.trace = "trace 7\n  shard shard=0 start=1us dur=800us\n";
  log.Record(std::move(slow));

  const std::string text = log.TextExposition();
  EXPECT_EQ(text,
            "# slow_query latency_us=900 request_id=7 opcode=Search "
            "search view=v keywords=a\\nb\n"
            "#   trace 7\n"
            "#     shard shard=0 start=1us dur=800us\n"
            "# slow_query latency_us=40 request_id=2 opcode=Stats Stats\n");
  // Appended to a registry's exposition, the whole reply stays valid.
  MetricsRegistry registry;
  Counter c;
  ASSERT_TRUE(registry.RegisterCounter("qv_x_total", {}, &c).ok());
  ExpositionCheck check;
  ValidateExposition(registry.TextExposition() + text, &check);
  EXPECT_TRUE(SlowQueryLog({}).TextExposition().empty());
}

TEST(SlowQueryLogTest, ZeroCapacityDisables) {
  SlowQueryLog log({.threshold_us = 0, .capacity = 0});
  SlowQueryLog::Entry entry;
  entry.latency_us = 1000;
  log.Record(std::move(entry));
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.considered(), 1u);
}

TEST(TraceTest, SpanTreeStructureAndCounters) {
  Trace trace(42);
  EXPECT_EQ(trace.id(), 42u);
  TraceSpan* root = trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent(), nullptr);

  TraceSpan* plan = trace.StartSpan("plan");
  plan->AddCounter("keywords", 2);
  plan->Close();
  TraceSpan* shard = trace.StartSpan("shard", nullptr, 3);
  TraceSpan* build = trace.StartSpan("build_pdts", shard, 3);
  build->AddCounter("nodes_emitted", 10);
  build->AddCounter("nodes_emitted", 5);  // upsert accumulates
  build->Close();
  shard->Close();
  // Post-close annotation is legal (cursor I/O attribution).
  shard->AddCounter("pages_read", 7);

  EXPECT_EQ(plan->parent(), root);
  EXPECT_EQ(build->parent(), shard);
  EXPECT_EQ(build->counter("nodes_emitted"), 15u);
  EXPECT_EQ(build->counter("absent"), 0u);
  EXPECT_EQ(shard->shard(), 3);
  EXPECT_TRUE(build->closed());

  const std::string serialized = trace.Serialize();
  EXPECT_NE(serialized.find("trace 42\n"), std::string::npos);
  EXPECT_NE(serialized.find("shard shard=3"), std::string::npos);
  EXPECT_NE(serialized.find("nodes_emitted=15"), std::string::npos);
  EXPECT_NE(serialized.find("pages_read=7"), std::string::npos);
  // Indentation encodes depth: build_pdts sits two levels down.
  EXPECT_NE(serialized.find("\n    build_pdts"), std::string::npos);
  EXPECT_TRUE(root->closed()) << "Serialize closes the root";
}

// Strips the timing fields; everything else must be byte-stable.
std::string StripTimings(const std::string& serialized) {
  return std::regex_replace(serialized,
                            std::regex(R"( start=[0-9]+us dur=[0-9]+us)"), "");
}

TEST(TraceTest, SerializationByteStableModuloTiming) {
  auto run = [] {
    Trace trace(7, "request");
    SpanScope plan(&trace, "plan");
    plan.AddCounter("keywords", 3);
    for (int s = 0; s < 4; ++s) {
      SpanScope shard(&trace, "shard", nullptr, s);
      SpanScope eval(&trace, "evaluate", shard.span(), s);
      eval.AddCounter("view_results", static_cast<uint64_t>(s) + 1);
    }
    return trace.Serialize();
  };
  EXPECT_EQ(StripTimings(run()), StripTimings(run()));
}

TEST(TraceTest, NullTraceScopesAreNoOps) {
  SpanScope scope(nullptr, "plan");
  EXPECT_EQ(scope.span(), nullptr);
  scope.AddCounter("x", 1);  // must not crash
}

TEST(TraceTest, ConcurrentStartSpanIsSafe) {
  Trace trace(1);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  // Pre-created parents (the engine pre-creates shard spans in shard
  // order on the coordinator for deterministic sibling ordering).
  std::vector<TraceSpan*> parents;
  parents.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    parents.push_back(trace.StartSpan("shard", nullptr, t));
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, parent = parents[t], t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan* span = trace.StartSpan("op", parent, t);
        span->AddCounter("i", static_cast<uint64_t>(i));
        span->Close();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (TraceSpan* parent : parents) parent->Close();
  EXPECT_EQ(trace.spans().size(),
            1u + kThreads + kThreads * kSpansPerThread);
  // Serializes cleanly after the joins (quiescence).
  const std::string serialized = trace.Serialize();
  EXPECT_NE(serialized.find("shard shard=0"), std::string::npos);
}

}  // namespace
}  // namespace quickview::obs
