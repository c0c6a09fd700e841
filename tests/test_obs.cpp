/**
 * @file
 * Observability layer tests (DESIGN.md section 8):
 *
 *  (a) metric primitives: le bucket semantics, exact count/sum/min/
 *      max, quantile estimates within quantileErrorBound, and
 *      worker-index-ordered merges bit-identical to sequential
 *      recording;
 *  (b) registry determinism: sharded counters fold to the same value
 *      at IGCN_THREADS 1/4/8, registration is get-or-create with
 *      kind checking;
 *  (c) span tracing: monotonic ids, append order, RAII Span
 *      emission, disabled recorders record nothing;
 *  (d) exporters: Perfetto JSON is well-formed (balanced, escaped)
 *      with the metadata Perfetto needs, Prometheus text has
 *      cumulative buckets and escaped labels;
 *  (e) the differential gate: a replayed serving trace produces
 *      byte-identical Perfetto JSON and byte-identical Prometheus
 *      metrics at IGCN_THREADS 1/4/8 (the CI obs-determinism job
 *      re-checks this end-to-end through the CLI).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gcn/reference.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace igcn {
namespace {

using namespace igcn::obs;

// ------------------------------------------------- metric primitives

TEST(ObsHistogram, LeBucketBoundarySemantics)
{
    Histogram h({10, 20});
    ASSERT_EQ(h.numBuckets(), 3u); // two finite + one +Inf

    // le semantics: v == bound lands IN that bucket.
    EXPECT_EQ(h.bucketIndex(0), 0u);
    EXPECT_EQ(h.bucketIndex(10), 0u);
    EXPECT_EQ(h.bucketIndex(11), 1u);
    EXPECT_EQ(h.bucketIndex(20), 1u);
    EXPECT_EQ(h.bucketIndex(21), 2u);

    for (uint64_t v : {10u, 11u, 20u, 21u, 3u})
        h.observe(v);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    // The exact side stays exact.
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 65u);
    EXPECT_EQ(h.minValue(), 3u);
    EXPECT_EQ(h.maxValue(), 21u);
    EXPECT_DOUBLE_EQ(h.mean(), 13.0);

    EXPECT_THROW(Histogram({5, 5}), std::invalid_argument);
}

TEST(ObsHistogram, QuantileWithinErrorBoundAndClamped)
{
    Histogram h(latencyBoundsUs());
    for (uint64_t v = 1; v <= 100; ++v)
        h.observe(v);
    // Exact nearest-rank values over 1..100 are q*100.
    for (double q : {0.50, 0.90, 0.95, 0.99}) {
        const double exact = q * 100.0;
        EXPECT_NEAR(h.quantile(q), exact, h.quantileErrorBound(q))
            << "q = " << q;
        EXPECT_GE(h.quantile(q), 1.0);
        EXPECT_LE(h.quantile(q), 100.0);
    }
    // A single observation pins every quantile exactly.
    Histogram one(latencyBoundsUs());
    one.observe(37);
    EXPECT_DOUBLE_EQ(one.quantile(0.5), 37.0);
    EXPECT_DOUBLE_EQ(one.quantile(0.99), 37.0);
    // Empty histogram: all-zero summaries, no division artifacts.
    Histogram empty(latencyBoundsUs());
    EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.maxValue(), 0u);
}

TEST(ObsHistogram, EmptyAndSingleSampleQuantileContract)
{
    // The pinned degenerate-histogram contract (metrics.hpp):
    //   count == 0 -> quantile(q) == 0.0 for every q,
    //   count == 1 -> quantile(q) == the one observed value exactly
    //                 (no bucket interpolation),
    // and quantileErrorBound() == 0 in both cases — the estimates
    // are exact, so summaries built on them need no slack.
    Histogram empty(latencyBoundsUs());
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(empty.quantile(q), 0.0) << "q = " << q;
        EXPECT_DOUBLE_EQ(empty.quantileErrorBound(q), 0.0)
            << "q = " << q;
    }

    Histogram one(latencyBoundsUs());
    one.observe(37); // interior of a bucket: interpolation would lie
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(one.quantile(q), 37.0) << "q = " << q;
        EXPECT_DOUBLE_EQ(one.quantileErrorBound(q), 0.0)
            << "q = " << q;
    }

    // The second observation leaves the exact regime: estimates may
    // interpolate but stay clamped to the observed range.
    one.observe(42);
    for (double q : {0.0, 0.5, 1.0}) {
        EXPECT_GE(one.quantile(q), 37.0) << "q = " << q;
        EXPECT_LE(one.quantile(q), 42.0) << "q = " << q;
    }
}

TEST(ObsRegistry, ResetValuesKeepsRegistrationAndPointers)
{
    Registry reg;
    Counter &c = reg.counter("t_total", {{"k", "a"}});
    Gauge &g = reg.gauge("t_gauge");
    Histogram &h = reg.histogram("t_lat_us", latencyBoundsUs());
    c.add(5);
    g.set(9);
    h.observe(37);

    reg.resetValues();

    // Values zeroed; registration, lookup, and pointers all survive.
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(reg.findCounter("t_total", {{"k", "a"}}), &c);
    EXPECT_EQ(reg.findGauge("t_gauge"), &g);
    EXPECT_EQ(reg.findHistogram("t_lat_us"), &h);

    // Re-registration after the reset dedupes onto the same cells.
    EXPECT_EQ(&reg.counter("t_total", {{"k", "a"}}), &c);
    c.add(2);
    EXPECT_EQ(c.value(), 2u);
}

TEST(ObsHistogram, WorkerOrderedMergeBitIdenticalToSequential)
{
    // The contract's merge discipline: per-worker histograms folded
    // in worker-index order must equal sequential recording exactly.
    const std::vector<uint64_t> values = [] {
        std::vector<uint64_t> v(500);
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = (i * 37 + 11) % 900; // spans several buckets
        return v;
    }();

    Histogram sequential(latencyBoundsUs());
    for (uint64_t v : values)
        sequential.observe(v);

    for (size_t workers : {1u, 4u, 8u}) {
        std::vector<Histogram> per(workers,
                                   Histogram(latencyBoundsUs()));
        for (size_t i = 0; i < values.size(); ++i)
            per[i % workers].observe(values[i]);
        Histogram merged(latencyBoundsUs());
        for (size_t w = 0; w < workers; ++w)
            merged.merge(per[w]);

        EXPECT_EQ(merged.count(), sequential.count());
        EXPECT_EQ(merged.sum(), sequential.sum());
        EXPECT_EQ(merged.minValue(), sequential.minValue());
        EXPECT_EQ(merged.maxValue(), sequential.maxValue());
        for (size_t i = 0; i < merged.numBuckets(); ++i)
            EXPECT_EQ(merged.bucketCount(i),
                      sequential.bucketCount(i))
                << "bucket " << i << " workers " << workers;
        EXPECT_THROW(merged.merge(Histogram({1, 2})),
                     std::invalid_argument);
    }
}

TEST(ObsRegistry, ShardedCounterDeterministicAcrossThreadCounts)
{
    const size_t n = 10'000;
    const uint64_t want = n * (n + 1) / 2; // adds i+1 per element
    std::vector<uint64_t> totals;
    for (int threads : {1, 4, 8}) {
        setGlobalThreads(threads);
        Registry reg;
        ShardedCounter &c = reg.sharded("igcn_test_work_units");
        globalPool().parallelFor(
            0, n, [&](int w, size_t lo, size_t hi) {
                for (size_t i = lo; i < hi; ++i)
                    c.add(w, static_cast<uint64_t>(i) + 1);
            });
        totals.push_back(c.value());
    }
    setGlobalThreads(0);
    for (uint64_t t : totals)
        EXPECT_EQ(t, want);
}

TEST(ObsRegistry, GetOrCreateIdentityAndKindClash)
{
    Registry reg;
    Counter &a = reg.counter("igcn_test_total", {{"k", "v"}});
    Counter &b = reg.counter("igcn_test_total", {{"k", "v"}});
    EXPECT_EQ(&a, &b); // get-or-create returns the same cell
    a.inc();
    EXPECT_EQ(b.value(), 1u);

    // Same name, different labels: a distinct cell.
    Counter &c = reg.counter("igcn_test_total", {{"k", "w"}});
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.counterFamilyTotal("igcn_test_total"), 1u);

    // Re-registering under another kind is a hard error.
    EXPECT_THROW(reg.gauge("igcn_test_total", {{"k", "v"}}),
                 std::logic_error);
    EXPECT_EQ(reg.findCounter("igcn_test_total", {{"k", "v"}}), &a);
    EXPECT_EQ(reg.findCounter("igcn_test_missing"), nullptr);
    EXPECT_EQ(reg.size(), 2u);
}

// -------------------------------------------------------- span tracing

TEST(ObsTrace, AppendOrderIdsAndDisabledNoop)
{
    TraceRecorder off; // disabled by default
    off.complete(kLaneServer, "x", "serve", 0, 5);
    off.instant(kLaneRequests, "y", "serve", 1);
    EXPECT_EQ(off.size(), 0u);

    TraceRecorder rec(true);
    rec.complete(kLaneServer, "batch", "serve", 10, 5,
                 {{"batch", 0}});
    rec.instant(kLaneRequests, "respond", "serve", 15,
                {{"req", 7}}, {{"reason", "ok"}});
    rec.complete(kLaneServer, "batch", "serve", 20, 3);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 3u);
    for (size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].id, i); // monotonic append ids
    EXPECT_EQ(events[0].ph, 'X');
    EXPECT_EQ(events[0].durUs, 5u);
    EXPECT_EQ(events[1].ph, 'i');
    ASSERT_EQ(events[1].num.size(), 1u);
    EXPECT_EQ(events[1].num[0].first, "req");
    ASSERT_EQ(events[1].str.size(), 1u);
    EXPECT_EQ(events[1].str[0].second, "ok");

    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    rec.instant(kLaneServer, "z", "serve", 0);
    EXPECT_EQ(rec.events()[0].id, 0u); // ids restart with the run

    EXPECT_EQ(laneName(kLaneRequests), "requests");
    EXPECT_EQ(laneName(kLaneServer), "server");
    EXPECT_EQ(laneName(kLaneRuntime), "runtime");
    EXPECT_EQ(laneName(kLaneWorker0 + 3), "worker-3");
}

TEST(ObsTrace, SpanRaiiEmitsOnDestructionOnly)
{
    TraceRecorder rec(true);
    RealClock clock;
    {
        Span s(rec, clock, kLaneServer, "phase", "serve");
        s.arg("work", 42);
        EXPECT_EQ(rec.size(), 0u); // nothing until destruction
    }
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "phase");
    EXPECT_EQ(events[0].ph, 'X');
    ASSERT_EQ(events[0].num.size(), 1u);
    EXPECT_EQ(events[0].num[0],
              (std::pair<std::string, uint64_t>{"work", 42}));

    // A span over a disabled recorder reads no clock and emits
    // nothing.
    TraceRecorder off;
    {
        Span s(off, clock, kLaneServer, "phase", "serve");
        s.arg("work", 1);
    }
    EXPECT_EQ(off.size(), 0u);
}

// ----------------------------------------------------------- exporters

/** Minimal JSON well-formedness: balanced structure outside strings,
 *  valid escapes, fully consumed input. */
bool
jsonBalanced(const std::string &s)
{
    int depth = 0;
    bool in_str = false;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (in_str) {
            if (c == '\\')
                ++i; // skip the escaped character
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_str;
}

TEST(ObsExport, PerfettoJsonWellFormedWithMetadata)
{
    TraceRecorder rec(true);
    rec.complete(kLaneServer, "infer-batch", "serve", 100, 50,
                 {{"batch", 0}, {"size", 3}});
    rec.instant(kLaneRequests, "reject", "serve", 120, {{"req", 9}},
                {{"reason", "quote\"back\\slash\nnewline"}});
    rec.complete(kLaneWorker0 + 1, "gemm", "runtime", 10, 5);

    const std::string json = perfettoJson(rec);
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Process + one thread_name per lane used (requests, server,
    // worker-1), named for Perfetto's track labels.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("igcn-serve"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"requests\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"server\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"worker-1\""), std::string::npos);
    // Complete spans carry dur; instants carry the scope marker.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    // The raw control characters must have been escaped away.
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(ObsExport, PrometheusTextShape)
{
    Registry reg;
    reg.counter("igcn_test_requests_total", {{"tenant", "0"}},
                "Requests seen.")
        .add(3);
    reg.counter("igcn_test_requests_total", {{"tenant", "1"}}).add(4);
    reg.gauge("igcn_test_depth").set(-2);
    Histogram &h = reg.histogram("igcn_test_lat_us", {10, 20});
    h.observe(5);
    h.observe(15);
    h.observe(99);
    reg.counter("igcn_test_weird", {{"k", "a\\b\"c\nd"}}).inc();

    const std::string text = prometheusText(reg);
    // HELP/TYPE once per family, values per label set.
    EXPECT_NE(text.find("# HELP igcn_test_requests_total "
                        "Requests seen.\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("# TYPE igcn_test_requests_total counter\n"),
        std::string::npos);
    EXPECT_NE(
        text.find("igcn_test_requests_total{tenant=\"0\"} 3\n"),
        std::string::npos);
    EXPECT_NE(
        text.find("igcn_test_requests_total{tenant=\"1\"} 4\n"),
        std::string::npos);
    EXPECT_NE(text.find("# TYPE igcn_test_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("igcn_test_depth -2\n"), std::string::npos);
    // Cumulative buckets + +Inf + exact sum/count.
    EXPECT_NE(text.find("igcn_test_lat_us_bucket{le=\"10\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("igcn_test_lat_us_bucket{le=\"20\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("igcn_test_lat_us_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("igcn_test_lat_us_sum 119\n"),
              std::string::npos);
    EXPECT_NE(text.find("igcn_test_lat_us_count 3\n"),
              std::string::npos);
    // Backslash, quote and newline escaped per the text format.
    EXPECT_NE(
        text.find("igcn_test_weird{k=\"a\\\\b\\\"c\\nd\"} 1\n"),
        std::string::npos);
}

// ------------------------------------------------ differential (gate)

struct Workload
{
    CsrGraph graph;
    DenseMatrix features;
    std::vector<DenseMatrix> weights;
};

Workload
makeWorkload(NodeId nodes, uint64_t seed)
{
    Workload w;
    w.graph = hubAndIslandGraph({.numNodes = nodes, .seed = seed}).graph;
    Rng rng(seed * 7 + 1);
    w.features = DenseMatrix(nodes, 12);
    w.features.fillRandom(rng, 1.0f);
    ModelConfig mc;
    mc.layers = {{12, 10}, {10, 5}};
    w.weights = makeWeights(mc, rng);
    return w;
}

/** One traced replay -> (perfetto bytes, prometheus bytes). */
std::pair<std::string, std::string>
tracedReplay(const Workload &w, const serve::ServerConfig &sc,
             const std::vector<serve::Request> &trace)
{
    serve::Server server(w.graph, w.features, w.weights, sc);
    serve::ReplayReport rep = server.runTrace(trace);
    EXPECT_GT(rep.inference.size(), 0u);
    return {perfettoJson(server.traceRecorder()),
            prometheusText(server.stats().registry())};
}

TEST(ObsDifferential, ReplayTraceBytesIdenticalAcrossThreadCounts)
{
    Workload w = makeWorkload(600, 9);
    serve::TraceConfig tc;
    tc.numInference = 300;
    tc.numUpdates = 30;
    tc.seed = 5;
    const std::vector<serve::Request> trace =
        serve::makeSyntheticTrace(w.graph, tc);

    serve::ServerConfig sc;
    sc.obs.traceEnabled = true;

    setGlobalThreads(1);
    const auto want = tracedReplay(w, sc, trace);
    EXPECT_TRUE(jsonBalanced(want.first));
    // The stream contains the full lifecycle vocabulary.
    for (const char *needle :
         {"admit", "infer-batch", "gather", "layer0", "layer1",
          "respond", "update-batch", "coalesce", "edit-edges",
          "islandize", "publish-epoch"})
        EXPECT_NE(want.first.find(needle), std::string::npos)
            << needle;
    // Metrics include the acceptance-criteria families.
    for (const char *needle :
         {"igcn_serve_inference_latency_us_bucket",
          "igcn_serve_staleness_total", "igcn_serve_queue_depth"})
        EXPECT_NE(want.second.find(needle), std::string::npos)
            << needle;

    for (int threads : {4, 8}) {
        setGlobalThreads(threads);
        const auto got = tracedReplay(w, sc, trace);
        EXPECT_EQ(want.first, got.first)
            << "trace bytes diverged at " << threads << " threads";
        EXPECT_EQ(want.second, got.second)
            << "metric bytes diverged at " << threads << " threads";
    }
    setGlobalThreads(0);
}

TEST(ObsDifferential, SloReplayWithShedsBytesIdentical)
{
    // The SLO path adds admission instants, rejects and deadline
    // drops to the stream; overload makes all of them fire.
    Workload w = makeWorkload(500, 11);
    serve::TraceConfig tc;
    tc.numInference = 400;
    tc.numUpdates = 30;
    tc.meanGapUs = 25.0;
    tc.numTenants = 3;
    tc.deadlineUs = 4000;
    tc.seed = 13;
    const std::vector<serve::Request> trace =
        serve::makeSyntheticTrace(w.graph, tc);

    serve::ServerConfig sc;
    sc.obs.traceEnabled = true;
    sc.scheduler.maxBatch = 1;
    // Flat 100us service = 10k rps against 40k rps arrivals: a
    // guaranteed 4x overload, so sheds and drops definitely fire.
    sc.service.inferenceFixedUs = 100.0;
    sc.service.perTargetUs = 0.0;
    sc.service.perSubNodeUs = 0.0;
    sc.service.perSubEdgeUs = 0.0;
    sc.slo.queueCap = 16;

    setGlobalThreads(1);
    const auto want = tracedReplay(w, sc, trace);
    EXPECT_TRUE(jsonBalanced(want.first));
    EXPECT_NE(want.first.find("\"admit\""), std::string::npos);
    // Overload at a 16-deep queue must shed something.
    const bool has_refusal =
        want.first.find("\"reject\"") != std::string::npos ||
        want.first.find("\"drop\"") != std::string::npos;
    EXPECT_TRUE(has_refusal);
    // Per-tenant admission counters ride the same export.
    EXPECT_NE(want.second.find(
                  "igcn_serve_admitted_total{tenant=\"0\"}"),
              std::string::npos);

    for (int threads : {4, 8}) {
        setGlobalThreads(threads);
        const auto got = tracedReplay(w, sc, trace);
        EXPECT_EQ(want.first, got.first)
            << "SLO trace bytes diverged at " << threads
            << " threads";
        EXPECT_EQ(want.second, got.second);
    }
    setGlobalThreads(0);
}

TEST(ObsDifferential, TracingDoesNotPerturbResults)
{
    // Turning the recorder on must not change a single result bit
    // or any metric byte.
    Workload w = makeWorkload(400, 3);
    serve::TraceConfig tc;
    tc.numInference = 200;
    tc.numUpdates = 20;
    tc.seed = 7;
    const std::vector<serve::Request> trace =
        serve::makeSyntheticTrace(w.graph, tc);

    serve::ServerConfig off;
    serve::ServerConfig on;
    on.obs.traceEnabled = true;

    serve::Server s_off(w.graph, w.features, w.weights, off);
    serve::Server s_on(w.graph, w.features, w.weights, on);
    serve::ReplayReport r_off = s_off.runTrace(trace);
    serve::ReplayReport r_on = s_on.runTrace(trace);

    EXPECT_EQ(s_off.traceRecorder().size(), 0u);
    EXPECT_GT(s_on.traceRecorder().size(), 0u);
    ASSERT_EQ(r_off.inference.size(), r_on.inference.size());
    for (size_t i = 0; i < r_off.inference.size(); ++i) {
        EXPECT_EQ(r_off.inference[i].id, r_on.inference[i].id);
        EXPECT_EQ(r_off.inference[i].doneUs,
                  r_on.inference[i].doneUs);
        EXPECT_EQ(r_off.inference[i].logits,
                  r_on.inference[i].logits);
    }
    EXPECT_EQ(prometheusText(s_off.stats().registry()),
              prometheusText(s_on.stats().registry()));
    EXPECT_EQ(s_off.stats().summary(), s_on.stats().summary());
}

} // namespace
} // namespace igcn
