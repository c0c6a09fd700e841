/**
 * @file
 * Serving benchmark: throughput and tail latency of the online
 * inference server versus micro-batch cap, update rate, and deletion
 * fraction, per dataset surrogate.
 *
 * Each configuration replays a deterministic synthetic trace (skewed
 * node popularity, bursty arrivals, interleaved edge additions and
 * deletions)
 * through a fresh Server in virtual-clock mode. Latency percentiles
 * come from the virtual clock (deterministic: batch formation is a
 * pure function of trace timestamps, service times from the cost
 * model); wall-clock throughput measures the real execution of the
 * same replay — frontier BFS, per-layer row pulls, and
 * incremental islandization repairs all run for real on the thread
 * pool.
 *
 * Usage: bench_serving [--quick]
 * Writes BENCH_serving.json (JsonWriter; CI parses it as a gate).
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "gcn/models.hpp"
#include "gcn/reference.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

using namespace igcn;
using namespace igcn::bench;

namespace {

struct SweepPoint
{
    uint32_t batchCap;
    double updateRate;
    /** Fraction of updates that are edge deletions. */
    double removeFrac;
};

struct DatasetCase
{
    Dataset dataset;
    const char *name;
};

struct SloPoint
{
    uint32_t queueCap;
    double qpsBudget; ///< per-tenant; 0 = unmetered
    uint32_t staleness;
};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    banner("serving",
           "online inference: throughput & tail latency vs batch cap "
           "and update rate");

    const uint64_t num_inference = quick ? 1500 : 10000;
    const std::vector<SweepPoint> points = quick
        ? std::vector<SweepPoint>{{8, 0.0, 0.0}, {32, 0.1, 0.5}}
        : std::vector<SweepPoint>{{1, 0.0, 0.0},   {8, 0.0, 0.0},
                                  {32, 0.0, 0.0},  {128, 0.0, 0.0},
                                  {8, 0.05, 0.0},  {32, 0.05, 0.0},
                                  {32, 0.2, 0.0},  {128, 0.2, 0.0},
                                  {32, 0.05, 0.5}, {32, 0.2, 0.5},
                                  {32, 0.2, 1.0},  {128, 0.2, 0.5}};
    const std::vector<DatasetCase> cases = quick
        ? std::vector<DatasetCase>{{Dataset::Cora, "cora"}}
        : std::vector<DatasetCase>{{Dataset::Cora, "cora"},
                                   {Dataset::Pubmed, "pubmed"}};

    JsonWriter json;
    json.beginObject();
    json.key("bench").value("serving");
    json.key("quick").value(quick);
    json.key("hardware_concurrency").value(
        static_cast<uint64_t>(std::thread::hardware_concurrency()));
    json.key("requests").value(num_inference);
    json.key("datasets").beginArray();

    for (const DatasetCase &c : cases) {
        DatasetGraph data = buildDataset(c.dataset, datasetScale(c.dataset));
        Rng rng(7);
        Features x = makeFeatures(data.graph.numNodes(),
                                  data.info.numFeatures,
                                  data.info.featureDensity, rng);
        ModelConfig mc =
            modelConfig(Model::GCN, NetConfig::Algo, data.info);
        std::vector<DenseMatrix> weights = makeWeights(mc, rng);

        std::printf("%s: %u nodes, %llu edges, %d features, %d "
                    "layers\n",
                    c.name, data.graph.numNodes(),
                    static_cast<unsigned long long>(
                        data.graph.numEdges()),
                    data.info.numFeatures, mc.numLayers());
        std::printf("  %-9s %-8s %-8s | %9s %9s | %8s %8s %8s | %s\n",
                    "batch-cap", "upd-rate", "del-frac", "wall-rps",
                    "virt-rps", "p50us", "p95us", "p99us",
                    "mean-batch");

        json.beginObject();
        json.key("name").value(c.name);
        json.key("nodes").value(
            static_cast<uint64_t>(data.graph.numNodes()));
        json.key("edges").value(data.graph.numEdges());
        json.key("layers").value(mc.numLayers());
        json.key("configs").beginArray();

        for (const SweepPoint &p : points) {
            serve::TraceConfig tc;
            tc.numInference = num_inference;
            tc.numUpdates = static_cast<uint64_t>(
                p.updateRate * static_cast<double>(num_inference));
            tc.removeFraction = p.removeFrac;
            tc.seed = 11;
            std::vector<serve::Request> trace =
                serve::makeSyntheticTrace(data.graph, tc);

            serve::ServerConfig sc;
            sc.scheduler.maxBatch = p.batchCap;
            serve::Server server(data.graph, x, weights, sc);

            const auto t0 = std::chrono::steady_clock::now();
            serve::ReplayReport rep =
                server.runTrace(std::move(trace));
            const double wall_s = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      t0)
                                      .count();

            const serve::ServerStats &st = server.stats();
            const serve::LatencySummary lat = st.inferenceLatency();
            const double wall_rps =
                static_cast<double>(rep.inference.size()) / wall_s;

            std::printf("  %-9u %-8.2f %-8.2f | %9.0f %9.0f | %8.0f "
                        "%8.0f %8.0f | %6.1f\n",
                        p.batchCap, p.updateRate, p.removeFrac,
                        wall_rps, st.throughputRps(), lat.p50,
                        lat.p95, lat.p99, st.meanBatchSize());

            json.beginObject();
            json.key("batch_cap").value(
                static_cast<uint64_t>(p.batchCap));
            json.key("update_rate").value(p.updateRate);
            json.key("remove_fraction").value(p.removeFrac);
            json.key("updates").value(tc.numUpdates);
            json.key("wall_seconds").value(wall_s);
            json.key("wall_rps").value(wall_rps);
            json.key("virtual_rps").value(st.throughputRps());
            json.key("latency_p50_us").value(lat.p50);
            json.key("latency_p95_us").value(lat.p95);
            json.key("latency_p99_us").value(lat.p99);
            json.key("latency_mean_us").value(lat.meanUs);
            json.key("mean_batch").value(st.meanBatchSize());
            json.key("inference_batches").value(st.inferenceBatches());
            json.key("update_applications").value(
                st.updateApplications());
            json.key("epochs").value(st.epochsPublished());
            json.key("edges_applied").value(st.edgesApplied());
            json.key("edges_removed").value(st.edgesRemoved());
            json.key("interleaves").value(st.interleaves());
            json.key("mean_aggregated_rows").value(
                st.meanAggregatedRows());
            json.endObject();
        }
        json.endArray(); // configs
        json.key("peak_rss_kb").value(peakRssKb());
        json.endObject();
        std::printf("\n");
    }
    json.endArray(); // datasets

    // --- agg-cache sweep: Zipf popularity, cached vs uncached -----
    // Two popularity exponents (sub-critical 0.8 and heavy 1.1),
    // each replayed twice through otherwise-identical servers with
    // the island-aggregation cache off then on. Logits are compared
    // per request id across the two arms — the cache's bit-identity
    // contract, checked on the real bench trace, not just unit
    // fixtures. CI gates on the alpha=1.1 sweep: hit rate >= 0.5 and
    // cached p99 <= uncached p99.
    {
        DatasetGraph data =
            buildDataset(Dataset::Cora, datasetScale(Dataset::Cora));
        Rng rng(7);
        Features x = makeFeatures(data.graph.numNodes(),
                                  data.info.numFeatures,
                                  data.info.featureDensity, rng);
        ModelConfig mc =
            modelConfig(Model::GCN, NetConfig::Algo, data.info);
        std::vector<DenseMatrix> weights = makeWeights(mc, rng);

        const uint64_t n_req = quick ? 2000 : 8000;
        std::printf("agg-cache sweep: cora Zipf trace (%llu "
                    "requests)\n",
                    static_cast<unsigned long long>(n_req));
        std::printf("  %-6s %-8s | %8s %8s | %8s %8s %10s | %s\n",
                    "alpha", "cache", "p50us", "p99us", "hitrate",
                    "fills", "peakrss-kb", "identical");

        json.key("agg_cache").beginObject();
        json.key("dataset").value("cora");
        json.key("requests").value(n_req);
        json.key("sweeps").beginArray();

        for (const double alpha : {0.8, 1.1}) {
            serve::TraceConfig tc;
            tc.numInference = n_req;
            tc.numUpdates = n_req / 100;
            tc.zipfAlpha = alpha;
            tc.seed = 11;
            const std::vector<serve::Request> trace =
                serve::makeSyntheticTrace(data.graph, tc);

            struct Arm
            {
                std::map<uint64_t, std::vector<float>> logits;
                serve::LatencySummary lat;
                double wallRps = 0;
                uint64_t peakRssKbAfter = 0;
                double hitRate = 0;
                uint64_t hits = 0, misses = 0, fills = 0,
                         evictions = 0, invalidated = 0, bytes = 0;
            };
            Arm arms[2];
            // Uncached first: peakRssKb is process-monotone, so the
            // cached arm's reading includes exactly the cache's
            // extra footprint on top of this baseline.
            for (const bool cached : {false, true}) {
                serve::ServerConfig sc;
                sc.scheduler.maxBatch = 32;
                sc.aggCache.enabled = cached;
                serve::Server server(data.graph, x, weights, sc);
                const auto t0 = std::chrono::steady_clock::now();
                serve::ReplayReport rep = server.runTrace(trace);
                const double wall_s =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                Arm &a = arms[cached ? 1 : 0];
                for (const serve::InferenceResult &r : rep.inference)
                    a.logits[r.id] = r.logits;
                const serve::ServerStats &st = server.stats();
                a.lat = st.inferenceLatency();
                a.wallRps =
                    static_cast<double>(rep.inference.size()) /
                    wall_s;
                a.peakRssKbAfter = peakRssKb();
                a.hitRate = st.aggCacheHitRate();
                a.hits = st.aggCacheHits();
                a.misses = st.aggCacheMisses();
                a.fills = st.aggCacheFills();
                a.evictions = st.aggCacheEvictions();
                a.invalidated = st.aggCacheInvalidated();
                a.bytes = st.aggCacheBytes();
            }
            const bool identical = arms[0].logits == arms[1].logits;

            for (int i = 0; i < 2; ++i)
                std::printf("  %-6.1f %-8s | %8.0f %8.0f | %8.2f "
                            "%8llu %10llu | %s\n",
                            alpha, i ? "on" : "off", arms[i].lat.p50,
                            arms[i].lat.p99, arms[i].hitRate,
                            static_cast<unsigned long long>(
                                arms[i].fills),
                            static_cast<unsigned long long>(
                                arms[i].peakRssKbAfter),
                            identical ? "yes" : "NO");

            json.beginObject();
            json.key("zipf_alpha").value(alpha);
            json.key("updates").value(tc.numUpdates);
            json.key("results_identical").value(identical);
            for (int i = 0; i < 2; ++i) {
                json.key(i ? "cached" : "uncached").beginObject();
                json.key("latency_p50_us").value(arms[i].lat.p50);
                json.key("latency_p99_us").value(arms[i].lat.p99);
                json.key("wall_rps").value(arms[i].wallRps);
                json.key("peak_rss_kb").value(arms[i].peakRssKbAfter);
                json.key("hit_rate").value(arms[i].hitRate);
                json.key("hits").value(arms[i].hits);
                json.key("misses").value(arms[i].misses);
                json.key("fills").value(arms[i].fills);
                json.key("evictions").value(arms[i].evictions);
                json.key("invalidated").value(arms[i].invalidated);
                json.key("resident_bytes").value(arms[i].bytes);
                json.endObject();
            }
            json.endObject();
        }
        json.endArray(); // sweeps
        json.endObject(); // agg_cache
        std::printf("\n");
    }

    // --- feature-density sweep: CSR vs dense X on NellSmall -------
    // The tentpole scenario: the 0.01-density NELL surrogate served
    // with CSR features versus the densified image, at densities
    // 0.01 / 0.1 / 1.0. feature_kb is the exact storage scoreboard;
    // peak_rss_kb corroborates it — the process peak is monotone, so
    // the three CSR arms run first and the staircase up to the dense
    // arms is the memory the sparse path never touches. The dense
    // arms at 0.01 and 0.1 build X W0 through their CSR adjunct
    // (Features::rowsCsr), so only storage differs there; their
    // peak RSS includes that adjunct, and feature_kb does not.
    {
        const double ds_scale = quick ? 0.25 : 0.5;
        DatasetGraph data = buildDataset(Dataset::NellSmall, ds_scale);
        ModelConfig mc =
            modelConfig(Model::GCN, NetConfig::Algo, data.info);
        Rng wrng(7);
        std::vector<DenseMatrix> weights = makeWeights(mc, wrng);

        serve::TraceConfig tc;
        tc.numInference = quick ? 400 : 2000;
        tc.numUpdates = tc.numInference / 20;
        tc.seed = 11;
        std::vector<serve::Request> trace =
            serve::makeSyntheticTrace(data.graph, tc);

        std::printf("density sweep: nell-small (%u nodes, %d "
                    "features, %zu requests)\n",
                    data.graph.numNodes(), data.info.numFeatures,
                    trace.size());
        std::printf("  %-8s %-6s | %10s %10s | %9s %8s %8s | %10s\n",
                    "density", "form", "feat-kb", "nnz", "wall-rps",
                    "p50us", "p99us", "peakrss-kb");

        json.key("density_sweep").beginObject();
        json.key("dataset").value("nell-small");
        json.key("nodes").value(
            static_cast<uint64_t>(data.graph.numNodes()));
        json.key("features").value(data.info.numFeatures);
        json.key("requests").value(
            static_cast<uint64_t>(trace.size()));
        json.key("configs").beginArray();

        const double densities[] = {0.01, 0.1, 1.0};
        for (const bool sparse_arm : {true, false}) {
            for (const double density : densities) {
                Rng rng(7);
                Features x = makeFeatures(data.graph.numNodes(),
                                          data.info.numFeatures,
                                          density, rng, sparse_arm);
                serve::ServerConfig sc;
                sc.scheduler.maxBatch = 32;
                serve::Server server(data.graph, x, weights, sc);

                const auto t0 = std::chrono::steady_clock::now();
                serve::ReplayReport rep = server.runTrace(trace);
                const double wall_s =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

                const serve::ServerStats &st = server.stats();
                const serve::LatencySummary lat =
                    st.inferenceLatency();
                const double wall_rps =
                    static_cast<double>(rep.inference.size()) /
                    wall_s;
                const double feat_kb =
                    static_cast<double>(x.storageBytes()) / 1024.0;

                std::printf("  %-8.2f %-6s | %10.1f %10llu | %9.0f "
                            "%8.0f %8.0f | %10llu\n",
                            density, x.sparse ? "csr" : "dense",
                            feat_kb,
                            static_cast<unsigned long long>(x.nnz()),
                            wall_rps, lat.p50, lat.p99,
                            static_cast<unsigned long long>(
                                peakRssKb()));

                json.beginObject();
                json.key("density").value(density);
                json.key("representation")
                    .value(x.sparse ? "csr" : "dense");
                json.key("feature_kb").value(feat_kb);
                json.key("feature_nnz").value(x.nnz());
                json.key("wall_seconds").value(wall_s);
                json.key("wall_rps").value(wall_rps);
                json.key("latency_p50_us").value(lat.p50);
                json.key("latency_p99_us").value(lat.p99);
                json.key("mean_batch").value(st.meanBatchSize());
                json.key("peak_rss_kb").value(peakRssKb());
                json.endObject();
            }
        }
        json.endArray(); // density configs
        json.endObject(); // density_sweep
        std::printf("\n");
    }

    // --- SLO sweep: admission control on an overloaded trace ------
    // A bursty multi-tenant trace whose arrival rate far exceeds the
    // service rate, replayed with admission control over queue cap
    // x per-tenant qps budget x staleness bound.
    // CI gates on this section: shedding must engage (nonzero shed)
    // while no admitted Strict-freshness request ever starts past its
    // deadline (zero by construction of drop-expired).
    {
        DatasetGraph data =
            buildDataset(Dataset::Cora, datasetScale(Dataset::Cora));
        Rng rng(7);
        Features x = makeFeatures(data.graph.numNodes(),
                                  data.info.numFeatures,
                                  data.info.featureDensity, rng);
        ModelConfig mc =
            modelConfig(Model::GCN, NetConfig::Algo, data.info);
        std::vector<DenseMatrix> weights = makeWeights(mc, rng);

        serve::TraceConfig tc;
        tc.numInference = quick ? 2000 : 8000;
        tc.numUpdates = tc.numInference / 10;
        tc.meanGapUs = 4.0; // heavy overload vs the service model
        tc.pattern = serve::ArrivalPattern::Burst;
        tc.numTenants = 4;
        tc.deadlineUs = 20000;
        tc.strictFraction = 0.1;
        tc.seed = 11;
        std::vector<serve::Request> overload =
            serve::makeSyntheticTrace(data.graph, tc);

        const std::vector<SloPoint> slo_points = quick
            ? std::vector<SloPoint>{{64, 0.0, 4}, {256, 20000.0, 0}}
            : std::vector<SloPoint>{{64, 0.0, 0},      {64, 0.0, 4},
                                    {256, 0.0, 4},     {1024, 0.0, 4},
                                    {256, 20000.0, 0}, {256, 20000.0, 4},
                                    {256, 50000.0, 4}};

        std::printf("slo sweep: cora overload trace (%zu requests, "
                    "burst, %u tenants, deadline %llu us)\n",
                    overload.size(), tc.numTenants,
                    static_cast<unsigned long long>(tc.deadlineUs));
        std::printf("  %-9s %-10s %-9s | %8s %8s %8s %8s %9s | %8s "
                    "%8s %6s\n",
                    "queue-cap", "qps-budget", "staleness", "admit",
                    "reject", "overload", "expired", "shedstale",
                    "p99us", "maxdepth", "viol");

        json.key("slo").beginObject();
        json.key("trace_requests").value(
            static_cast<uint64_t>(overload.size()));
        json.key("tenants").value(static_cast<uint64_t>(tc.numTenants));
        json.key("deadline_us").value(tc.deadlineUs);
        json.key("strict_fraction").value(tc.strictFraction);
        json.key("configs").beginArray();

        for (const SloPoint &p : slo_points) {
            serve::ServerConfig sc;
            sc.scheduler.maxBatch = 32;
            sc.slo.queueCap = p.queueCap;
            sc.slo.qpsBudget = p.qpsBudget;
            sc.slo.stalenessBound = p.staleness;

            serve::Server server(data.graph, x, weights, sc);
            serve::ReplayReport rep = server.runTrace(overload);
            const serve::ServerStats &st = server.stats();
            const serve::LatencySummary lat = st.inferenceLatency();

            std::printf("  %-9u %-10.0f %-9u | %8llu %8llu %8llu "
                        "%8llu %9llu | %8.0f %8llu %6llu\n",
                        p.queueCap, p.qpsBudget, p.staleness,
                        static_cast<unsigned long long>(
                            st.admittedRequests()),
                        static_cast<unsigned long long>(
                            st.rejectedRequests()),
                        static_cast<unsigned long long>(
                            st.overloadedRequests()),
                        static_cast<unsigned long long>(
                            st.expiredRequests()),
                        static_cast<unsigned long long>(
                            st.shedStaleRequests()),
                        lat.p99,
                        static_cast<unsigned long long>(
                            st.maxQueueDepth()),
                        static_cast<unsigned long long>(
                            st.strictDeadlineViolations()));

            json.beginObject();
            json.key("queue_cap").value(
                static_cast<uint64_t>(p.queueCap));
            json.key("qps_budget").value(p.qpsBudget);
            json.key("staleness_bound").value(
                static_cast<uint64_t>(p.staleness));
            json.key("admitted").value(st.admittedRequests());
            json.key("rejected").value(st.rejectedRequests());
            json.key("overloaded").value(st.overloadedRequests());
            json.key("expired").value(st.expiredRequests());
            json.key("shed_stale").value(st.shedStaleRequests());
            json.key("shed_rate").value(st.shedRate());
            json.key("served").value(st.inferenceRequests());
            json.key("rejections").value(
                static_cast<uint64_t>(rep.rejections.size()));
            json.key("latency_p99_us").value(lat.p99);
            json.key("max_queue_depth").value(st.maxQueueDepth());
            json.key("strict_deadline_violations").value(
                st.strictDeadlineViolations());
            json.key("stale_serves").value(st.staleServes());
            json.key("tenants").beginArray();
            for (const auto &[tenant, ts] : st.tenantStats()) {
                json.beginObject();
                json.key("tenant").value(
                    static_cast<uint64_t>(tenant));
                json.key("admitted").value(ts.admitted);
                json.key("shed").value(ts.shed());
                json.key("dropped").value(ts.dropped());
                json.key("served").value(ts.served);
                json.key("p99_us").value(
                    server.stats().tenantLatency(tenant).p99);
                json.endObject();
            }
            json.endArray(); // tenants
            json.key("staleness_histogram").beginArray();
            for (const auto &[behind, count] :
                 st.stalenessHistogram()) {
                json.beginObject();
                json.key("epochs_behind").value(
                    static_cast<uint64_t>(behind));
                json.key("served").value(count);
                json.endObject();
            }
            json.endArray(); // staleness_histogram
            json.endObject();
        }
        json.endArray(); // slo configs
        json.endObject(); // slo
        std::printf("\n");
    }

    // --- observability overhead: tracing off vs on ----------------
    // The same trace replayed through identical servers, the only
    // difference being cfg.obs.traceEnabled. Best-of-3 wall time per
    // arm absorbs scheduler noise. CI gates overhead_pct < 5: span
    // recording must stay a rounding error next to the kernels.
    {
        DatasetGraph data =
            buildDataset(Dataset::Cora, datasetScale(Dataset::Cora));
        Rng rng(7);
        Features x = makeFeatures(data.graph.numNodes(),
                                  data.info.numFeatures,
                                  data.info.featureDensity, rng);
        ModelConfig mc =
            modelConfig(Model::GCN, NetConfig::Algo, data.info);
        std::vector<DenseMatrix> weights = makeWeights(mc, rng);

        serve::TraceConfig tc;
        tc.numInference = quick ? 1500 : 6000;
        tc.numUpdates = tc.numInference / 20;
        tc.seed = 11;
        const std::vector<serve::Request> trace =
            serve::makeSyntheticTrace(data.graph, tc);

        auto best_of_3 = [&](bool traced) {
            double best_s = 1e30;
            uint64_t events = 0;
            for (int rep = 0; rep < 3; ++rep) {
                serve::ServerConfig sc;
                sc.scheduler.maxBatch = 32;
                sc.obs.traceEnabled = traced;
                serve::Server server(data.graph, x, weights, sc);
                const auto t0 = std::chrono::steady_clock::now();
                serve::ReplayReport r = server.runTrace(trace);
                const double wall_s =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                best_s = std::min(best_s, wall_s);
                events = server.traceRecorder().size();
                if (r.inference.size() != tc.numInference)
                    std::printf("WARNING: short replay\n");
            }
            return std::pair<double, uint64_t>(
                static_cast<double>(tc.numInference) / best_s,
                events);
        };

        const auto [rps_off, ev_off] = best_of_3(false);
        const auto [rps_on, ev_on] = best_of_3(true);
        (void)ev_off;
        const double overhead_pct =
            rps_on > 0.0 ? (rps_off / rps_on - 1.0) * 100.0 : 0.0;

        std::printf("obs overhead: cora replay (%llu requests)\n",
                    static_cast<unsigned long long>(tc.numInference));
        std::printf("  tracing off: %9.0f rps | tracing on: %9.0f "
                    "rps (%llu events) | overhead %+.2f%%\n\n",
                    rps_off, rps_on,
                    static_cast<unsigned long long>(ev_on),
                    overhead_pct);

        json.key("obs_overhead").beginObject();
        json.key("requests").value(tc.numInference);
        json.key("wall_rps_trace_off").value(rps_off);
        json.key("wall_rps_trace_on").value(rps_on);
        json.key("trace_events").value(ev_on);
        json.key("overhead_pct").value(overhead_pct);
        json.endObject(); // obs_overhead
    }
    json.endObject();

    if (!json.writeFile("BENCH_serving.json"))
        std::printf("WARNING: could not write BENCH_serving.json\n");
    else
        std::printf("wrote BENCH_serving.json\n");
    return 0;
}
