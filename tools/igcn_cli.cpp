/**
 * @file
 * igcn — command-line front end to the library.
 *
 * Subcommands:
 *   generate   synthesize a graph (hub-island / er / rmat) to a file
 *   info       print statistics of a graph file
 *   islandize  run runtime islandization, print stats, render plots
 *   reorder    apply a lightweight reordering, write the new graph
 *   simulate   run a platform timing model on a dataset or graph file
 *   serve      replay a synthetic request trace through the online
 *              inference server (deterministic virtual clock)
 *
 * Examples:
 *   igcn generate --type hubisland --nodes 5000 --out g.txt
 *   igcn islandize --in g.txt --render order.pgm
 *   igcn simulate --dataset cora --model gcn --net algo
 *   igcn simulate --in g.txt --platform awb
 *   igcn serve --trace --requests 10000 --updates 1000 --batch-cap 32
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "accel/awbgcn_model.hpp"
#include "accel/hygcn_model.hpp"
#include "accel/igcn_model.hpp"
#include "accel/platform_models.hpp"
#include "core/permute.hpp"
#include "gcn/reference.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "obs/export.hpp"
#include "obs/runtime.hpp"
#include "reorder/reorder.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

#include "args.hpp"
#include "cli_io.hpp"

using namespace igcn;
using igcn::cli::Args;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: igcn <command> [options]\n"
        "  generate  --type hubisland|er|rmat --nodes N [--seed S]\n"
        "            [--avg-degree D] --out FILE\n"
        "  info      --in FILE\n"
        "  islandize --in FILE [--cmax N] [--decay D] [--th0 T]\n"
        "            [--parallel] [--render FILE.pgm]\n"
        "  reorder   --in FILE --algo rabbit|dbg|hubsort|hubcluster|\n"
        "            dbg-hubsort|dbg-hubcluster --out FILE\n"
        "  simulate  (--dataset cora|citeseer|pubmed|nell|reddit|\n"
        "            nell-small [--scale F] | --in FILE)\n"
        "            [--model gcn|gs|gin] [--net algo|hy]\n"
        "            [--platform igcn|awb|hygcn|cpu|gpu|sigma]\n"
        "  serve     --trace [--dataset NAME [--scale F] |\n"
        "            --in FILE | --nodes N] [--requests R]\n"
        "            [--updates U] [--remove-frac F] [--batch-cap B]\n"
        "            [--features F] [--hidden H]\n"
        "            [--classes C] [--cmax N] [--seed S]\n"
        "            [--feature-density D] [--sparse-x]\n"
        "            [--pattern poisson|burst|diurnal]\n"
        "            [--zipf-alpha A] [--tenants T]\n"
        "            [--agg-cache]         epoch-keyed island-\n"
        "              aggregation cache (bit-identical results;\n"
        "              cache hits skip the layer-1 edge sweep)\n"
        "            [--agg-cache-mb N]    cache byte budget (LRU\n"
        "              eviction; default 64)\n"
        "            SLO limits (default none; EDF by deadline):\n"
        "            [--qps-budget Q] [--queue-cap N]\n"
        "            [--staleness K] [--deadline-us D]\n"
        "            [--strict-frac F]\n"
        "            Observability (DESIGN.md section 8):\n"
        "            [--trace-out FILE]    Perfetto/Chrome trace JSON\n"
        "              of the replay's span stream; byte-identical at\n"
        "              any IGCN_THREADS (load in ui.perfetto.dev)\n"
        "            [--metrics-out FILE]  Prometheus text snapshot of\n"
        "              the run's serve metrics + per-kernel runtime\n"
        "              timing\n");
    return 2;
}

int
cmdGenerate(const Args &args)
{
    const std::string type = args.get("type", "hubisland");
    const auto nodes =
        static_cast<NodeId>(args.getInt("nodes", 1000));
    const auto seed = static_cast<uint64_t>(args.getInt("seed", 42));
    const std::string out = args.get("out");
    if (out.empty())
        throw std::runtime_error("--out FILE is required");

    CsrGraph g;
    if (type == "hubisland") {
        HubIslandParams params;
        params.numNodes = nodes;
        params.seed = seed;
        g = hubAndIslandGraph(params).graph;
    } else if (type == "er") {
        g = erdosRenyi(nodes, args.getDouble("avg-degree", 8.0), seed);
    } else if (type == "rmat") {
        g = rmat(nodes,
                 static_cast<EdgeId>(
                     nodes * args.getDouble("avg-degree", 8.0)),
                 0.57, 0.19, 0.19, seed);
    } else {
        throw std::runtime_error("unknown --type " + type);
    }
    saveEdgeList(g, out);
    std::printf("wrote %s: %u nodes, %llu directed edges\n",
                out.c_str(), g.numNodes(),
                static_cast<unsigned long long>(g.numEdges()));
    return 0;
}

int
cmdInfo(const Args &args)
{
    CsrGraph g = loadGraphArg(args);
    auto [comp, num_comps] = connectedComponents(g);
    std::printf("nodes %u\nedges %llu\navg degree %.2f\n"
                "max degree %u\nsymmetric %s\ncomponents %u\n",
                g.numNodes(),
                static_cast<unsigned long long>(g.numEdges()),
                g.avgDegree(), g.maxDegree(),
                g.isSymmetric() ? "yes" : "no", num_comps);
    return 0;
}

int
cmdIslandize(const Args &args)
{
    CsrGraph g = loadGraphArg(args);
    const LocatorConfig cfg = locatorConfigArg(args);

    IslandizationResult isl = islandize(g, cfg);
    PruningReport pruning = countPruning(g, isl, {});
    ClusterCoverage cov = classifyCoverage(g, isl);

    std::printf("rounds %d\nhubs %u\nislands %zu\n"
                "inter-hub edges %zu\n",
                isl.numRounds, isl.numHubs(), isl.islands.size(),
                isl.interHubEdges.size());
    std::printf("coverage: L-shape %.2f%%, island blocks %.2f%%, "
                "outliers %llu\n",
                100.0 * cov.inHubLShape / std::max<EdgeId>(1, cov.total),
                100.0 * cov.inIslandBlock /
                    std::max<EdgeId>(1, cov.total),
                static_cast<unsigned long long>(cov.outliers));
    std::printf("aggregation pruning %.1f%% (baseline %llu ops -> "
                "%llu)\n",
                100.0 * pruning.aggPruningRate(),
                static_cast<unsigned long long>(
                    pruning.baselineAggOps()),
                static_cast<unsigned long long>(
                    pruning.optimizedAggOps()));

    const std::string render = args.get("render");
    if (!render.empty()) {
        constexpr int kGrid = 64;
        auto grid = renderDensityGrid(g, islandizationOrder(isl),
                                      kGrid);
        savePgm(grid, kGrid, kGrid, render);
        std::printf("wrote density plot %s\n", render.c_str());
    }
    return 0;
}

int
cmdReorder(const Args &args)
{
    CsrGraph g = loadGraphArg(args);
    const std::string name = args.get("algo", "rabbit");
    const std::string out = args.get("out");
    if (out.empty())
        throw std::runtime_error("--out FILE is required");

    for (ReorderAlgo algo : kAllReorderAlgos) {
        if (reorderAlgoName(algo) == name) {
            ReorderResult rr = reorderGraph(g, algo);
            saveEdgeList(g.permuted(rr.perm), out);
            std::printf("%s reordering took %.1f us; wrote %s\n",
                        name.c_str(), rr.reorderTimeUs, out.c_str());
            return 0;
        }
    }
    throw std::runtime_error("unknown --algo " + name);
}

Dataset
parseDatasetName(const std::string &name)
{
    if (name == "cora") return Dataset::Cora;
    if (name == "citeseer") return Dataset::Citeseer;
    if (name == "pubmed") return Dataset::Pubmed;
    if (name == "nell") return Dataset::Nell;
    if (name == "reddit") return Dataset::Reddit;
    if (name == "nell-small") return Dataset::NellSmall;
    throw std::runtime_error("unknown --dataset " + name);
}

int
cmdSimulate(const Args &args)
{
    DatasetGraph data;
    if (args.has("dataset")) {
        Dataset d = parseDatasetName(args.get("dataset"));
        data = buildDataset(d, args.getDouble("scale", 1.0));
    } else {
        CsrGraph g = loadGraphArg(args);
        data.info = {"custom", "CU", g.numNodes(), g.numEdges(),
                     widthArg(args, "features", 128),
                     widthArg(args, "classes", 8),
                     args.getDouble("density", 0.1), 1.0};
        data.featureNnz = static_cast<EdgeId>(
            static_cast<double>(g.numNodes()) * data.info.numFeatures *
            data.info.featureDensity);
        data.graph = std::move(g);
    }

    const std::string model_name = args.get("model", "gcn");
    Model m = model_name == "gs" ? Model::GraphSage
            : model_name == "gin" ? Model::GIN
            : Model::GCN;
    NetConfig net =
        args.get("net", "algo") == "hy" ? NetConfig::Hy
                                        : NetConfig::Algo;
    ModelConfig mc = modelConfig(m, net, data.info);

    const std::string platform = args.get("platform", "igcn");
    HwConfig hw;
    RunResult r;
    if (platform == "igcn") r = simulateIgcn(data, mc, hw);
    else if (platform == "awb") r = simulateAwbGcn(data, mc, hw);
    else if (platform == "hygcn") r = simulateHyGcn(data, mc);
    else if (platform == "cpu")
        r = simulateCpu(data, mc, Framework::PyG);
    else if (platform == "gpu")
        r = simulateGpu(data, mc, Framework::PyG);
    else if (platform == "sigma") r = simulateSigma(data, mc);
    else throw std::runtime_error("unknown --platform " + platform);

    std::printf("platform %s\ndataset %s\nmodel %s\n"
                "latency %.3f us\nenergy %.3f uJ\nEE %.3e Graph/kJ\n"
                "off-chip bytes %.3e\ncompute ops %.3e\n",
                r.platform.c_str(), r.dataset.c_str(),
                r.model.c_str(), r.latencyUs, r.energyUJ,
                r.graphsPerKJ, r.offchipBytes, r.computeOps);
    if (!r.stats.all().empty())
        std::printf("--- detail ---\n%s", r.stats.toString().c_str());
    return 0;
}

int
cmdServe(const Args &args)
{
    if (!args.has("trace"))
        throw std::runtime_error(
            "serve currently requires --trace (synthetic replay)");

    CsrGraph g;
    int default_features = 32;
    int default_classes = 8;
    double default_density = 1.0;
    if (args.has("dataset")) {
        // e.g. --dataset nell-small serves the 0.01-density NELL
        // surrogate with its published feature/class dimensions.
        DatasetGraph data = buildDataset(
            parseDatasetName(args.get("dataset")),
            args.getDouble("scale", 1.0));
        g = std::move(data.graph);
        default_features = data.info.numFeatures;
        default_classes = data.info.numClasses;
        default_density = data.info.featureDensity;
    } else if (args.has("in")) {
        g = loadGraphArg(args);
    } else {
        HubIslandParams params;
        params.numNodes =
            static_cast<NodeId>(args.getInt("nodes", 4000));
        params.seed = static_cast<uint64_t>(args.getInt("seed", 42));
        g = hubAndIslandGraph(params).graph;
    }

    const int num_features =
        widthArg(args, "features", default_features);
    const int hidden = widthArg(args, "hidden", 16);
    const int classes = widthArg(args, "classes", default_classes);
    const auto seed = static_cast<uint64_t>(args.getInt("seed", 42));

    // --feature-density below the makeFeatures threshold (or an
    // explicit --sparse-x) serves CSR features end to end: the engine
    // gathers sparse rows per micro-batch instead of densifying.
    const double feature_density =
        args.getDouble("feature-density", default_density);
    // A named dataset at NELL-like density always serves CSR: the
    // surrogate exists to exercise the sparse path, and NellSmall's
    // cell count sits below makeFeatures' auto-sparse threshold.
    const bool force_sparse =
        args.has("sparse-x") ||
        (args.has("dataset") && feature_density < 0.05);
    Rng rng(seed);
    Features x = makeFeatures(g.numNodes(), num_features,
                              feature_density, rng, force_sparse);
    ModelConfig mc;
    mc.name = "serve-gcn";
    mc.layers = {{num_features, hidden}, {hidden, classes}};
    std::vector<DenseMatrix> weights = makeWeights(mc, rng);

    serve::TraceConfig tc;
    tc.numInference =
        static_cast<uint64_t>(args.getInt("requests", 10000));
    tc.numUpdates =
        static_cast<uint64_t>(args.getInt("updates", 1000));
    tc.removeFraction = args.getDouble("remove-frac", 0.2);
    tc.seed = seed;
    const std::string pattern = args.get("pattern", "poisson");
    if (pattern == "burst")
        tc.pattern = serve::ArrivalPattern::Burst;
    else if (pattern == "diurnal")
        tc.pattern = serve::ArrivalPattern::Diurnal;
    else if (pattern != "poisson")
        throw std::runtime_error("unknown --pattern " + pattern);
    tc.zipfAlpha = args.getDouble("zipf-alpha", 0.0);
    tc.numTenants =
        static_cast<uint32_t>(args.getInt("tenants", 1));
    tc.deadlineUs =
        static_cast<uint64_t>(args.getInt("deadline-us", 0));
    tc.strictFraction = args.getDouble("strict-frac", 0.0);
    std::vector<serve::Request> trace =
        serve::makeSyntheticTrace(g, tc);

    serve::ServerConfig sc;
    sc.scheduler.maxBatch =
        static_cast<uint32_t>(args.getInt("batch-cap", 32));
    sc.locator.maxIslandSize = cmaxArg(args, sc.locator.maxIslandSize);
    sc.aggCache.enabled =
        args.has("agg-cache") || args.has("agg-cache-mb");
    sc.aggCache.maxBytes = static_cast<size_t>(
                               args.getInt("agg-cache-mb", 64))
        << 20;
    sc.slo.qpsBudget = args.getDouble("qps-budget", 0.0);
    sc.slo.queueCap =
        static_cast<uint32_t>(args.getInt("queue-cap", 0));
    sc.slo.stalenessBound =
        static_cast<uint32_t>(args.getInt("staleness", 0));

    const std::string trace_out = args.get("trace-out");
    const std::string metrics_out = args.get("metrics-out");
    sc.obs.traceEnabled = !trace_out.empty();
    if (!metrics_out.empty())
        obs::enableRuntimeProfiling();

    std::printf("serve: %u nodes, %llu edges; trace %zu requests "
                "(%llu inference + %llu updates, %.0f%% deletions), "
                "batch cap %u\n",
                g.numNodes(),
                static_cast<unsigned long long>(g.numEdges()),
                trace.size(),
                static_cast<unsigned long long>(tc.numInference),
                static_cast<unsigned long long>(tc.numUpdates),
                tc.removeFraction * 100.0,
                sc.scheduler.maxBatch);
    std::printf("features: %s, %zu x %zu, %llu nnz, %.1f KiB\n",
                x.sparse ? "csr" : "dense", x.rows(), x.cols(),
                static_cast<unsigned long long>(x.nnz()),
                static_cast<double>(x.storageBytes()) / 1024.0);

    serve::Server server(std::move(g), std::move(x),
                         std::move(weights), sc);
    const auto t0 = std::chrono::steady_clock::now();
    serve::ReplayReport rep = server.runTrace(std::move(trace));
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::printf("replayed %zu inference results, %zu update "
                "applications in %.2f s wall (%.0f req/s wall)\n",
                rep.inference.size(), rep.updates.size(), wall_s,
                static_cast<double>(rep.inference.size()) / wall_s);
    std::printf("final epoch %llu\n--- stats ---\n%s",
                static_cast<unsigned long long>(server.currentEpoch()),
                server.stats().summary().c_str());
    if (!rep.rejections.empty()) {
        std::printf("--- per-tenant admission ---\n%s",
                    server.stats().rejectionTable().c_str());
        std::printf("shed %zu requests (%.1f%% shed rate)\n",
                    rep.rejections.size(),
                    100.0 * server.stats().shedRate());
    }
    if (!trace_out.empty()) {
        if (!obs::writePerfettoTrace(server.traceRecorder(),
                                     trace_out))
            throw std::runtime_error("cannot write --trace-out " +
                                     trace_out);
        std::printf("wrote trace %s (%zu events)\n",
                    trace_out.c_str(),
                    server.traceRecorder().size());
    }
    if (!metrics_out.empty()) {
        obs::disableRuntimeProfiling();
        const std::string text = obs::prometheusText(
            {&server.stats().registry(), &obs::runtimeRegistry()});
        if (!obs::writeTextFile(text, metrics_out))
            throw std::runtime_error("cannot write --metrics-out " +
                                     metrics_out);
        std::printf("wrote metrics %s\n", metrics_out.c_str());
        const std::string table =
            obs::kernelTimingReport(obs::runtimeRegistry());
        if (!table.empty())
            std::printf("--- per-kernel timing ---\n%s",
                        table.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    Args args(argc, argv);
    if (!args.errors().empty()) {
        for (const std::string &e : args.errors())
            std::fprintf(stderr, "igcn %s: %s\n", cmd.c_str(),
                         e.c_str());
        return usage();
    }
    try {
        if (cmd == "generate") return cmdGenerate(args);
        if (cmd == "info") return cmdInfo(args);
        if (cmd == "islandize") return cmdIslandize(args);
        if (cmd == "reorder") return cmdReorder(args);
        if (cmd == "simulate") return cmdSimulate(args);
        if (cmd == "serve") return cmdServe(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "igcn %s: %s\n", cmd.c_str(), e.what());
        return 1;
    }
    return usage();
}
