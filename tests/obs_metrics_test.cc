// Copyright 2026 The PLDP Authors.
//
// Unit coverage of the telemetry layer: instrument semantics (counter and
// gauge read functions, log-scale histogram buckets and quantiles),
// registry conflict detection, Prometheus/JSON exposition (including label
// escaping and cumulative histogram buckets), family aggregation helpers,
// the health roll-up classifier, and the blocking TCP scrape endpoint.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/endpoint.h"
#include "obs/health.h"

namespace pldp {
namespace obs {
namespace {

/// Value of the first sample of family `name` in a fresh snapshot.
double ValueOf(const MetricsRegistry& registry, const std::string& name) {
  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricFamily* family = snapshot.Find(name);
  return family == nullptr || family->samples.empty()
             ? -1.0
             : family->samples[0].value;
}

TEST(InstrumentTest, CounterAndGaugeBasics) {
  // Counters and gauges read the owner's value at every snapshot: no
  // second copy exists that could go stale.
  std::atomic<uint64_t> events{0};
  std::atomic<double> depth{0.0};
  MetricsRegistry registry;
  ASSERT_TRUE(registry.AddCounter("events_total", "events", {}, [&events] {
    return events.load(std::memory_order_relaxed);
  }));
  ASSERT_TRUE(registry.AddGauge("depth", "depth", {}, [&depth] {
    return depth.load(std::memory_order_relaxed);
  }));
  EXPECT_DOUBLE_EQ(ValueOf(registry, "events_total"), 0.0);
  events.fetch_add(1);
  events.fetch_add(41);
  EXPECT_DOUBLE_EQ(ValueOf(registry, "events_total"), 42.0);

  depth.store(2.5);
  EXPECT_DOUBLE_EQ(ValueOf(registry, "depth"), 2.5);
  depth.store(1.5);
  EXPECT_DOUBLE_EQ(ValueOf(registry, "depth"), 1.5);
  EXPECT_EQ(registry.Snapshot().families[0].type, MetricType::kCounter);
  EXPECT_EQ(registry.Snapshot().families[1].type, MetricType::kGauge);
}

TEST(InstrumentTest, HistogramBucketBoundaries) {
  // Bucket i holds values <= 2^i: the boundary value lands in its own
  // bucket, the next value in the next one.
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 0u);
  EXPECT_EQ(Histogram::BucketOf(2), 1u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 2u);
  EXPECT_EQ(Histogram::BucketOf(5), 3u);
  EXPECT_EQ(Histogram::BucketOf(1024), 10u);
  EXPECT_EQ(Histogram::BucketOf(1025), 11u);
  // Everything past the last finite bound lands in the +Inf bucket.
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), Histogram::kBuckets - 1);

  Histogram h;
  h.Record(1);
  h.Record(100);
  h.Record(100);
  EXPECT_EQ(h.TotalCount(), 3u);
  EXPECT_EQ(h.Sum(), 201u);
  EXPECT_EQ(h.BinCount(0), 1u);
  EXPECT_EQ(h.BinCount(Histogram::BucketOf(100)), 2u);
}

TEST(InstrumentTest, HistogramQuantileInterpolation) {
  MetricsRegistry registry;
  Histogram* h = registry.AddHistogram("q", "quantile test");
  ASSERT_NE(h, nullptr);
  for (int i = 0; i < 1000; ++i) h->Record(100);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricFamily* family = snapshot.Find("q");
  ASSERT_NE(family, nullptr);
  const HistogramData& data = family->samples[0].histogram;
  EXPECT_EQ(data.count, 1000u);
  EXPECT_EQ(data.sum, 100000u);
  // All mass sits in the (64, 128] bucket; every quantile interpolates
  // inside it.
  for (double q : {0.5, 0.99, 0.999}) {
    EXPECT_GT(data.Quantile(q), 64.0) << q;
    EXPECT_LE(data.Quantile(q), 128.0) << q;
  }
  EXPECT_DOUBLE_EQ(HistogramData().Quantile(0.5), 0.0);
}

TEST(RegistryTest, DuplicateAndTypeConflictsReturnNull) {
  MetricsRegistry registry;
  const MetricRead zero = [] { return 0.0; };
  ASSERT_TRUE(registry.AddCounter("m", "help", {{"shard", "0"}}, zero));
  // Exact duplicate (name + labels) is a wiring bug.
  EXPECT_FALSE(registry.AddCounter("m", "help", {{"shard", "0"}}, zero));
  // Same family, different labels: fine.
  EXPECT_TRUE(registry.AddCounter("m", "help", {{"shard", "1"}}, zero));
  // Same name, different type: refused.
  EXPECT_FALSE(registry.AddGauge("m", "help", {{"shard", "2"}}, zero));
  EXPECT_EQ(registry.AddHistogram("m", "help", {{"shard", "3"}}), nullptr);
  // A counter or gauge without a read function is refused too.
  EXPECT_FALSE(registry.AddCounter("n", "help", {}, nullptr));
  EXPECT_FALSE(registry.AddGauge("g", "help", {}, nullptr));
  EXPECT_EQ(registry.instrument_count(), 2u);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.families.size(), 1u);
  EXPECT_EQ(snapshot.families[0].samples.size(), 2u);
  EXPECT_EQ(snapshot.Find("absent"), nullptr);
}

TEST(RegistryTest, SnapshotKeepsRegistrationOrder) {
  MetricsRegistry registry;
  registry.AddCounter("zz_first", "first", {}, [] { return 0.0; });
  registry.AddGauge("aa_second", "second", {}, [] { return 0.0; });
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.families.size(), 2u);
  EXPECT_EQ(snapshot.families[0].name, "zz_first");
  EXPECT_EQ(snapshot.families[1].name, "aa_second");
}

TEST(RenderTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.AddCounter("pldp_events_total", "Events seen",
                      {{"lane", "plain"}, {"shard", "0"}},
                      [] { return 7.0; });
  registry.AddGauge("pldp_depth", "Queue depth", {}, [] { return 3.0; });
  Histogram* lat = registry.AddHistogram("pldp_latency_ns", "Latency");
  lat->Record(1);
  lat->Record(3);

  const std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# HELP pldp_events_total Events seen"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pldp_events_total counter"), std::string::npos);
  EXPECT_NE(
      text.find("pldp_events_total{lane=\"plain\",shard=\"0\"} 7"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE pldp_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("pldp_depth 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pldp_latency_ns histogram"), std::string::npos);
  // Cumulative buckets: the value 3 (bucket le=4) includes the value 1.
  EXPECT_NE(text.find("pldp_latency_ns_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pldp_latency_ns_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pldp_latency_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pldp_latency_ns_sum 4"), std::string::npos);
  EXPECT_NE(text.find("pldp_latency_ns_count 2"), std::string::npos);
}

TEST(RenderTest, PrometheusLabelEscaping) {
  MetricsRegistry registry;
  registry.AddCounter("esc", "help", {{"path", "a\\b\"c\nd"}},
                      [] { return 0.0; });
  const std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("esc{path=\"a\\\\b\\\"c\\nd\"} 0"), std::string::npos);
}

TEST(RenderTest, JsonCarriesQuantiles) {
  MetricsRegistry registry;
  Histogram* lat = registry.AddHistogram("lat", "Latency");
  for (int i = 0; i < 100; ++i) lat->Record(100);
  const std::string json = RenderJson(registry.Snapshot());
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
}

TEST(RenderTest, AggregateAndSumHelpers) {
  MetricsRegistry registry;
  Histogram* a = registry.AddHistogram("h", "help", {{"shard", "0"}});
  Histogram* b = registry.AddHistogram("h", "help", {{"shard", "1"}});
  a->Record(10);
  b->Record(20);
  registry.AddCounter("c", "help", {{"shard", "0"}}, [] { return 5.0; });
  registry.AddCounter("c", "help", {{"shard", "1"}}, [] { return 6.0; });

  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramData merged = AggregateHistogram(snapshot.Find("h"));
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.sum, 30u);
  EXPECT_DOUBLE_EQ(SumSamples(snapshot.Find("c")), 11.0);
  EXPECT_DOUBLE_EQ(SumSamples(nullptr), 0.0);
  EXPECT_EQ(AggregateHistogram(snapshot.Find("c")).count, 0u);
}

TEST(HealthTest, ThresholdClassification) {
  {
    PipelineHealth health;
    health.shards.push_back({0, 10, 1024, 10.0 / 1024});
    FinalizeHealth(&health, HealthThresholds());
    EXPECT_EQ(health.state, PipelineHealth::State::kHealthy);
    EXPECT_TRUE(health.issues.empty());
  }
  {
    PipelineHealth health;
    health.shards.push_back({0, 1000, 1024, 1000.0 / 1024});
    FinalizeHealth(&health, HealthThresholds());
    EXPECT_EQ(health.state, PipelineHealth::State::kDegraded);
    ASSERT_EQ(health.issues.size(), 1u);
  }
  {
    // Large lag with an empty reorder buffer is an idle pipeline, not a
    // stall.
    PipelineHealth health;
    health.groups.push_back({"plain", "global", 0, uint64_t{1} << 30, 0});
    FinalizeHealth(&health, HealthThresholds());
    EXPECT_EQ(health.state, PipelineHealth::State::kHealthy);
  }
  {
    PipelineHealth health;
    health.groups.push_back({"plain", "global", 0, uint64_t{1} << 30, 5});
    FinalizeHealth(&health, HealthThresholds());
    EXPECT_EQ(health.state, PipelineHealth::State::kStalled);
    EXPECT_NE(RenderHealthJson(health).find("stalled"), std::string::npos);
  }
}

/// Minimal HTTP client for the endpoint tests: one GET, full response.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(EndpointTest, ServesRoutesAndRefusesUnknownPaths) {
  TextEndpoint::Routes routes;
  routes.metrics_text = [] { return std::string("metric_a 1\n"); };
  routes.health_json = [] { return std::string("{\"state\":\"healthy\"}"); };
  TextEndpoint endpoint(std::move(routes));
  ASSERT_TRUE(endpoint.Start(0).ok());
  ASSERT_NE(endpoint.port(), 0);

  const std::string metrics = HttpGet(endpoint.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("metric_a 1"), std::string::npos);

  const std::string health = HttpGet(endpoint.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("healthy"), std::string::npos);

  // metrics.json has no producer registered -> 404, like unknown paths.
  EXPECT_NE(HttpGet(endpoint.port(), "/metrics.json").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(endpoint.port(), "/nope").find("404"),
            std::string::npos);

  endpoint.Stop();
  endpoint.Stop();  // idempotent
}

TEST(EndpointTest, RejectsOccupiedPort) {
  TextEndpoint::Routes routes;
  routes.metrics_text = [] { return std::string(); };
  TextEndpoint first(routes);
  ASSERT_TRUE(first.Start(0).ok());
  TextEndpoint second(routes);
  EXPECT_FALSE(second.Start(first.port()).ok());
  first.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace pldp
