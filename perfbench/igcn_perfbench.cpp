/**
 * @file
 * End-to-end benchmark of the I-GCN library, measured in wall-clock
 * time on the host:
 *
 *  - online serving through serve::Server in real-time mode: latency
 *    of an open-loop Poisson arrival stream at a fixed rate (timed
 *    from each request's due time, so generator stalls count),
 *    capacity under a standing backlog, and update freshness (an
 *    edge update's due time until the epoch containing it is
 *    published);
 *  - an offline island forward pass (runtime islandization + the
 *    Island Consumer forward, the paper's inference flow);
 *  - one training epoch through the islands (forward, MSE loss,
 *    backward, SGD step).
 *
 * All workloads serve the Pubmed surrogate (buildDataset). Traffic
 * comes from the repository's own generator, serve::makeSyntheticTrace;
 * the features, weights and trace seeds derive from --seed. The run is
 * a sequence of rounds, each a slice of every phase, repeated for
 * --seconds. Outputs are checked: every served logit row against a
 * reference forward on the graph of the epoch it was served at (each
 * epoch's graph rebuilt by replaying the submitted edits), the final
 * served graph against the edits, the island forward against
 * referenceForward, and training for a finite, falling loss.
 *
 * Usage (perfbench/run.py builds and runs it):
 *   igcn_perfbench --workload <hotset|zipf|churn> --seed N
 *                  --seconds S --trace 0|1 [--trace-out FILE]
 *
 * The last stdout line is one JSON object {correct, attempted,
 * failed, metrics}. --trace 0 reports the end-to-end metrics;
 * --trace 1 installs a pool observer, records the benchmark's own
 * spans and reports the per-layer metrics instead (and writes the
 * spans as a Chrome trace to --trace-out when given).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/consumer.hpp"
#include "core/locator.hpp"
#include "gcn/models.hpp"
#include "gcn/reference.hpp"
#include "gcn/training.hpp"
#include "graph/datasets.hpp"
#include "graph/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

using namespace igcn;

namespace {

using Clock = std::chrono::steady_clock;

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Linear-interpolated quantile of an unsorted sample; 0 if empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ------------------------------------------------------------ workloads

/**
 * A traffic mix over the Pubmed surrogate (19.7k nodes, 500 features,
 * heavy-tailed hubs): big enough that kernels, not thread wake-ups,
 * dominate the offline phases, small enough for many rounds a run.
 * The mix parameters are serve::TraceConfig's; the update and
 * deletion shares are points of bench_serving's update-rate sweep.
 */
struct Workload
{
    const char *name;
    /** TraceConfig::zipfAlpha: targets by degree rank with
     *  P(rank) ~ rank^-alpha; 0 keeps the default hot-set draw (20%
     *  of reads aimed at the top 5% of nodes by degree). */
    double zipfAlpha;
    /** Update requests per inference request. */
    double updateRate;
    /** TraceConfig::removeFraction: share of updates that delete. */
    double removeFraction;
    /** Serve with the island-aggregation cache (ServerConfig). */
    bool aggCache;
    /** Inference requests per capacity round. */
    uint64_t capacityRequests;
};

constexpr Dataset kDataset = Dataset::Pubmed;
/** Open-loop inference arrival rate: a fifth to a third of the
 *  measured capacity of the workloads (430-775 reads/s on a 4-vCPU
 *  VM), so the open-loop slices do not queue without bound. */
constexpr double kInferenceRps = 150.0;

std::vector<Workload>
workloads()
{
    return {
        // The generator's default target draw, a light mix of edge
        // additions and deletions; no cross-request reuse.
        {"hotset", 0.0, 0.05, 0.5, false, 300},
        // Zipf-skewed targets (the exponent of the agg-cache gate in
        // bench_serving) with the island-aggregation cache on: hot
        // islands are reused across the requests of an epoch.
        {"zipf", 1.1, 0.05, 0.5, true, 300},
        // Four times the edit traffic: incremental islandization and
        // epoch publication on the serving path.
        {"churn", 0.0, 0.2, 0.5, false, 150},
    };
}

serve::TraceConfig
traceConfig(const Workload &w, uint64_t inferences, uint64_t seed)
{
    serve::TraceConfig tc;
    tc.numInference = inferences;
    tc.numUpdates = static_cast<uint64_t>(
        std::llround(w.updateRate * static_cast<double>(inferences)));
    tc.meanGapUs = 1e6 / (kInferenceRps * (1.0 + w.updateRate));
    tc.removeFraction = w.removeFraction;
    tc.zipfAlpha = w.zipfAlpha;
    tc.seed = seed;
    return tc;
}

// ------------------------------------------------------------- tracing

/** Pool observer recording every top-level kernel region. */
class KernelTally : public PoolObserver
{
  public:
    struct Region
    {
        std::string label;
        /** runtimeNowUs() microseconds. */
        uint64_t startUs;
        uint64_t endUs;
    };

    void
    onRegion(const char *label, int, uint64_t start_us,
             uint64_t end_us) override
    {
        std::lock_guard<std::mutex> lock(mutex);
        regions.push_back({label ? label : "unlabeled", start_us, end_us});
    }
    void onChunk(const char *, int, uint64_t, uint64_t) override {}

    /** Regions recorded since the last take(). */
    std::vector<Region>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::vector<Region> out;
        out.swap(regions);
        return out;
    }

  private:
    std::mutex mutex;
    std::vector<Region> regions;
};

/** Microseconds per kernel label. */
std::map<std::string, double>
byLabel(const std::vector<KernelTally::Region> &regions)
{
    std::map<std::string, double> out;
    for (const KernelTally::Region &r : regions)
        out[r.label] += static_cast<double>(r.endUs - r.startUs);
    return out;
}

/** The regions whose midpoint lies in one of `windows` (start -> end,
 *  disjoint, runtimeNowUs() base). */
std::vector<KernelTally::Region>
inWindows(const std::vector<KernelTally::Region> &regions,
          const std::map<uint64_t, uint64_t> &windows)
{
    std::vector<KernelTally::Region> out;
    for (const KernelTally::Region &r : regions) {
        const uint64_t mid = r.startUs + (r.endUs - r.startUs) / 2;
        auto it = windows.upper_bound(mid);
        if (it != windows.begin() && mid <= std::prev(it)->second)
            out.push_back(r);
    }
    return out;
}

/**
 * Layer a kernel label belongs to. Locator kernels get their own
 * group so that "other" in the forward figures excludes the
 * islandization that fwd_islandize_ms already reports.
 */
std::string
layerOf(const std::string &label)
{
    if (label.rfind("gemm", 0) == 0 ||
        label.find("times_dense") != std::string::npos)
        return "combination";
    if (label.rfind("spmm", 0) == 0 ||
        label.find("aggregate") != std::string::npos)
        return "aggregation";
    if (label.rfind("relu", 0) == 0)
        return "activation";
    if (label == "hub_detect" || label == "tpbfs_explore")
        return "islandize";
    return "other";
}

std::map<std::string, double>
byLayer(const std::map<std::string, double> &kernels)
{
    std::map<std::string, double> out{{"combination", 0.0},
                                      {"aggregation", 0.0},
                                      {"activation", 0.0},
                                      {"islandize", 0.0},
                                      {"other", 0.0}};
    for (const auto &[label, us] : kernels)
        out[layerOf(label)] += us;
    return out;
}

/** The benchmark's own spans (Chrome trace "X" events). */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on(on), origin(Clock::now()) {}

    void
    add(const std::string &name, int lane, Clock::time_point a,
        Clock::time_point b)
    {
        if (on)
            spans.push_back({name, lane, usBetween(origin, a),
                             usBetween(a, b)});
    }
    /** Span from server-clock microseconds already on our origin. */
    void
    addUs(const std::string &name, int lane, double start_us,
          double dur_us)
    {
        if (on)
            spans.push_back({name, lane, start_us, dur_us});
    }
    Clock::time_point originTime() const { return origin; }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (size_t i = 0; i < spans.size(); ++i)
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}\n",
                         i ? "," : "", spans[i].name.c_str(),
                         spans[i].lane, spans[i].startUs,
                         spans[i].durUs);
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        std::string name;
        int lane;
        double startUs;
        double durUs;
    };
    bool on;
    Clock::time_point origin;
    std::vector<Span> spans;
};

constexpr int kLanePhase = 1;
constexpr int kLaneStep = 2;
constexpr int kLaneServe = 3;

// --------------------------------------------------------- correctness

/**
 * Undirected edge set edited the way UpdateApplier edits the served
 * graph: additions of present edges, removals of absent ones and self
 * loops are no-ops.
 */
class EdgeSet
{
  public:
    explicit EdgeSet(const CsrGraph &g) : n(g.numNodes())
    {
        for (const Edge &e : g.toEdges())
            if (e.first < e.second)
                keys.insert(key(e));
    }

    /**
     * Apply one coalesced span of update requests in order (within a
     * request, additions before removals). True iff its net effect is
     * non-empty, i.e. the applier must publish a new epoch for it.
     */
    bool
    applySpan(const std::vector<const serve::Request *> &span)
    {
        std::unordered_map<uint64_t, bool> before;
        const auto touch = [&](uint64_t k) {
            before.emplace(k, keys.count(k) != 0);
        };
        for (const serve::Request *r : span) {
            for (const Edge &e : r->addedEdges) {
                if (e.first == e.second)
                    continue;
                touch(key(e));
                keys.insert(key(e));
            }
            for (const Edge &e : r->removedEdges) {
                touch(key(e));
                keys.erase(key(e));
            }
        }
        for (const auto &[k, was] : before)
            if ((keys.count(k) != 0) != was)
                return true;
        return false;
    }

    CsrGraph
    toGraph() const
    {
        std::vector<Edge> edges;
        edges.reserve(keys.size());
        for (uint64_t k : keys)
            edges.emplace_back(static_cast<NodeId>(k >> 32),
                               static_cast<NodeId>(k & 0xFFFFFFFFu));
        return CsrGraph::fromEdges(n, edges);
    }

  private:
    static uint64_t
    key(const Edge &e)
    {
        return (static_cast<uint64_t>(std::min(e.first, e.second)) << 32) |
               std::max(e.first, e.second);
    }
    NodeId n;
    std::unordered_set<uint64_t> keys;
};

/** Dense X * W for either feature layout. */
DenseMatrix
featuresTimes(const Features &x, const DenseMatrix &w)
{
    DenseMatrix out(x.rows(), w.cols());
    for (size_t i = 0; i < x.rows(); ++i) {
        float *o = out.row(i);
        const auto axpy = [&](size_t k, float v) {
            const float *wk = w.row(k);
            for (size_t c = 0; c < w.cols(); ++c)
                o[c] += v * wk[c];
        };
        if (x.sparse) {
            for (EdgeId p = x.csr.rowPtr[i]; p < x.csr.rowPtr[i + 1]; ++p)
                axpy(x.csr.colIdx[p], x.csr.values[p]);
        } else {
            for (size_t k = 0; k < x.cols(); ++k)
                axpy(k, x.dense.row(i)[k]);
        }
    }
    return out;
}

/**
 * referenceForward with X W0 given: per layer relu(A_hat H W), no
 * activation after the last, A_hat = S (A + I) S with
 * s[v] = 1 / sqrt(deg v + 1). X W0 does not change with the graph,
 * so every epoch of a session is checked for the price of its
 * (cheap, 16-wide) aggregations. Plain loops, independent of the
 * library's kernels.
 */
DenseMatrix
epochForward(const CsrGraph &g, const DenseMatrix &xw0,
             const std::vector<DenseMatrix> &weights)
{
    const NodeId n = g.numNodes();
    std::vector<float> s(n);
    for (NodeId v = 0; v < n; ++v)
        s[v] = 1.0f / std::sqrt(static_cast<float>(g.degree(v)) + 1.0f);
    DenseMatrix h = xw0;
    for (size_t l = 0;; ++l) {
        const size_t cols = h.cols();
        DenseMatrix z(n, cols);
        std::vector<float> acc(cols);
        for (NodeId v = 0; v < n; ++v) {
            for (size_t c = 0; c < cols; ++c)
                acc[c] = s[v] * h.row(v)[c];
            for (NodeId u : g.neighbors(v))
                for (size_t c = 0; c < cols; ++c)
                    acc[c] += s[u] * h.row(u)[c];
            for (size_t c = 0; c < cols; ++c)
                z.row(v)[c] = s[v] * acc[c];
        }
        if (l + 1 == weights.size())
            return z;
        const DenseMatrix &w = weights[l + 1];
        h = DenseMatrix(n, w.cols());
        for (NodeId v = 0; v < n; ++v)
            for (size_t k = 0; k < cols; ++k) {
                const float a = std::max(0.0f, z.row(v)[k]);
                for (size_t c = 0; c < w.cols(); ++c)
                    h.row(v)[c] += a * w.row(k)[c];
            }
    }
}

struct Check
{
    uint64_t compared = 0;
    uint64_t mismatched = 0;
    bool ok() const { return mismatched == 0; }
};

/** Every |a - b| within 1e-4 of the reference row's magnitude (>= 1). */
bool
closeRow(const float *a, const float *ref, size_t n)
{
    float scale = 1.0f;
    for (size_t j = 0; j < n; ++j)
        scale = std::max(scale, std::fabs(ref[j]));
    for (size_t j = 0; j < n; ++j)
        if (!(std::fabs(a[j] - ref[j]) <= 1e-4f * scale))
            return false;
    return true;
}

bool
closeMatrix(const DenseMatrix &a, const DenseMatrix &ref)
{
    if (a.rows() != ref.rows() || a.cols() != ref.cols())
        return false;
    for (size_t i = 0; i < a.rows(); ++i)
        if (!closeRow(a.row(i), ref.row(i), a.cols()))
            return false;
    return true;
}

// ------------------------------------------------------------- serving

/** One admitted update request. */
struct SubmittedUpdate
{
    uint64_t id;
    const serve::Request *request;
};

/** What one real-time serving session produced. */
struct Session
{
    serve::ReplayReport report;
    /** Due time of each request on the server clock, by request id. */
    std::vector<double> dueUs;
    /** How late each paced submission ran behind its due time. */
    std::vector<double> lateUs;
    /** The admitted updates, in submission order. */
    std::vector<SubmittedUpdate> updates;
    uint64_t submitted = 0;
    uint64_t refused = 0;
    /** Id of the first tail probe (none: all ids are below it). */
    uint64_t firstProbeId = ~uint64_t{0};
    /** Our clock at the server clock's origin. */
    Clock::time_point start;
    /** runtimeNowUs() at the server clock's origin. */
    uint64_t runtimeOriginUs = 0;
};

constexpr auto kSpin = std::chrono::microseconds(200);

/**
 * Drive a server with a trace: start it, submit each request (paced:
 * sleep until its arrival time; otherwise all at once), then submit
 * `tail` Strict-freshness probes (served after every update) and
 * stop. Due times share the server clock's origin: `start` is taken
 * immediately before Server::start resets that clock, so doneUs -
 * dueUs is a request's time from due to done.
 */
Session
drive(serve::Server &server, const std::vector<serve::Request> &trace,
      bool paced, const std::vector<NodeId> &tail)
{
    Session s;
    s.dueUs.reserve(trace.size() + tail.size());
    s.lateUs.reserve(trace.size());
    s.start = Clock::now();
    s.runtimeOriginUs = runtimeNowUs();
    server.start();
    const auto record = [&s](const serve::ServeResult &r, double due) {
        s.submitted++;
        if (!r.ok()) {
            s.refused++;
            return;
        }
        if (s.dueUs.size() <= r.id)
            s.dueUs.resize(r.id + 1, 0.0);
        s.dueUs[r.id] = due;
    };
    for (const serve::Request &r : trace) {
        const double due_us =
            paced ? static_cast<double>(r.arrivalUs) : 0.0;
        if (paced) {
            const auto due =
                s.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::micro>(
                                  due_us));
            // Sleep to just short of the due time, then spin: timer
            // wake-ups alone land late by a varying margin.
            if (Clock::now() + kSpin < due)
                std::this_thread::sleep_until(due - kSpin);
            while (Clock::now() < due) {
            }
            s.lateUs.push_back(
                std::max(0.0, usBetween(s.start, Clock::now()) - due_us));
        }
        if (r.kind == serve::RequestKind::Update) {
            const serve::ServeResult res =
                server.submitUpdate(r.addedEdges, r.removedEdges);
            record(res, due_us);
            if (res.ok())
                s.updates.push_back({res.id, &r});
        } else {
            record(server.submitInference(r.node), due_us);
        }
    }
    serve::SubmitOptions strict;
    strict.freshness = serve::Freshness::Strict;
    for (NodeId v : tail) {
        const serve::ServeResult r = server.submitInference(v, strict);
        record(r, usBetween(s.start, Clock::now()));
        s.firstProbeId = std::min(s.firstProbeId, r.id);
    }
    s.report = server.stop();
    return s;
}

/** Per-update freshness: due time until its epoch was published. */
std::vector<double>
freshnessUs(const Session &s)
{
    // Updates apply in submission order; application j covers the
    // next `coalesced` submitted updates.
    std::vector<double> out;
    size_t k = 0;
    for (const serve::UpdateResult &u : s.report.updates)
        for (uint32_t i = 0; i < u.coalesced && k < s.updates.size();
             ++i, ++k)
            out.push_back(static_cast<double>(u.doneUs) -
                          s.dueUs[s.updates[k].id]);
    return out;
}

uint64_t
updatesApplied(const serve::ReplayReport &rep)
{
    uint64_t n = 0;
    for (const serve::UpdateResult &u : rep.updates)
        n += u.coalesced;
    return n;
}

// ---------------------------------------------------------------- args

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string val = argv[++i];
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = std::stoull(val);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(val);
        } else if (flag == "--trace") {
            a.trace = val == "1";
        } else if (flag == "--trace-out") {
            a.traceOut = val;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

/** JSON metric map in insertion order. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        items.push_back({name, value, unit});
    }
    std::string
    json() const
    {
        std::string out = "{";
        char buf[96];
        for (size_t i = 0; i < items.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g",
                          std::isfinite(items[i].value) ? items[i].value
                                                        : 0.0);
            out += (i ? ", \"" : "\"") + items[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   items[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items;
};

// ---------------------------------------------------------------- main

/** Inputs shared by every measurement round. */
struct Bench
{
    const Workload &w;
    serve::ServerConfig cfg;
    CsrGraph g;
    Features x;
    std::vector<DenseMatrix> weights;
    /** X W0, the graph-independent part of every epoch's reference. */
    DenseMatrix xw0;
    /** referenceForward on the initial graph. */
    DenseMatrix ref0;
    uint64_t epoch0 = 0;
    IslandizationResult trainIslands;
    DenseMatrix trainTarget;
    std::vector<DenseMatrix> student;
    KernelTally *tally;
    SpanLog *spans;
};

/** Everything the rounds accumulate. */
struct Tallies
{
    /** Per-round open-loop latency quantiles: their medians over
     *  rounds are the reported figures, so a slow spell of the host
     *  that spoils a minority of rounds does not move them. */
    std::vector<double> roundP50Us, roundP90Us;
    /** Freshness of every update of the run, pooled: a slice holds
     *  too few updates for a steady median of its own. */
    std::vector<double> latencyUs, freshUs, capacityRps, forwardUs,
        epochUs;
    /** Seconds to build a ready server, every time one is built. */
    std::vector<double> setupS;
    std::vector<double> waitUs, batchUs, batchSize, applyUs, coalesced,
        lateUs, capBatch, islandizeUs, consumerUs, tfwdUs, tbwdUs,
        tsgdUs, losses;
    std::map<std::string, double> serveKernels, fwdKernels,
        trainKernels;
    double served = 0.0;
    double busyUs = 0.0;
    double cacheHits = 0.0, cacheMisses = 0.0;
    AggOpStats ops;
    size_t islands = 0, hubs = 0;
    std::set<uint64_t> epochsChecked;
    Check check;
    bool correct = true;
    uint64_t attempted = 0, failed = 0;
};

void
addInto(std::map<std::string, double> &into,
        const std::map<std::string, double> &from)
{
    for (const auto &[k, v] : from)
        into[k] += v;
}

/** Attempted / failed accounting of one session. */
void
account(const Session &s, Tallies &t)
{
    const uint64_t admitted = s.submitted - s.refused;
    const uint64_t answered =
        s.report.inference.size() + updatesApplied(s.report);
    t.attempted += s.submitted;
    t.failed += s.refused + (admitted - std::min(admitted, answered));
}

/**
 * Check a session's answers. The graph of every published epoch is
 * rebuilt by replaying the admitted updates in submission order:
 * application j folds the next `coalesced` of them and publishes a
 * new epoch iff their net effect is non-empty. Every served logit row
 * is compared with the reference forward on the graph of its epoch,
 * and the server's final graph with the replayed one.
 */
void
verifySession(const Bench &b, serve::Server &server, const Session &s,
              Tallies &t)
{
    std::set<uint64_t> served_at;
    for (const serve::InferenceResult &r : s.report.inference)
        served_at.insert(r.epoch);
    std::map<uint64_t, DenseMatrix> refs;
    refs.emplace(b.epoch0, b.ref0);

    EdgeSet edges(b.g);
    uint64_t epoch = b.epoch0;
    size_t k = 0;
    bool explained = true;
    for (const serve::UpdateResult &u : s.report.updates) {
        if (k + u.coalesced > s.updates.size()) {
            explained = false;
            break;
        }
        std::vector<const serve::Request *> span;
        for (uint32_t i = 0; i < u.coalesced; ++i)
            span.push_back(s.updates[k++].request);
        const bool changed = edges.applySpan(span);
        if (changed != (u.epoch != epoch) || u.epoch < epoch) {
            explained = false;
            break;
        }
        epoch = u.epoch;
        if (changed && served_at.count(epoch))
            refs.emplace(epoch,
                         epochForward(edges.toGraph(), b.xw0, b.weights));
    }
    const auto state = server.stateHub()->acquire();
    if (!explained || k != s.updates.size() || state->epoch != epoch ||
        !(state->graph == edges.toGraph())) {
        std::fprintf(stderr, "served epochs differ from the edits\n");
        t.correct = false;
        return;
    }

    for (const serve::InferenceResult &r : s.report.inference) {
        t.check.compared++;
        const auto ref = refs.find(r.epoch);
        if (ref == refs.end() || r.logits.size() != ref->second.cols() ||
            !closeRow(r.logits.data(), ref->second.row(r.node),
                      ref->second.cols()))
            t.check.mismatched++;
        t.epochsChecked.insert(r.epoch);
        // Strict probes come after every update: the final epoch.
        if (r.id >= s.firstProbeId && r.epoch != epoch) {
            std::fprintf(stderr, "probe %llu served at a stale epoch\n",
                         static_cast<unsigned long long>(r.id));
            t.correct = false;
        }
    }
}

/** Open-loop slice length: 0.4 s of arrivals at kInferenceRps. */
constexpr uint64_t kSliceInferences = 60;
constexpr size_t kProbes = 16;
constexpr int kForwardsPerRound = 3;
constexpr int kEpochsPerRound = 2;

/**
 * A ready server (islandization, degree scaling, A_hat) from copies
 * of the inputs; its build time is a set-up sample (setup_s is their
 * median). Sampling the two builds of every round spreads slow spells
 * of the host over set-up as over the other figures.
 */
std::unique_ptr<serve::Server>
buildServer(const Bench &b, Tallies &t)
{
    const auto t0 = Clock::now();
    auto server =
        std::make_unique<serve::Server>(b.g, b.x, b.weights, b.cfg);
    const auto t1 = Clock::now();
    b.spans->add("setup", kLanePhase, t0, t1);
    t.setupS.push_back(usBetween(t0, t1) / 1e6);
    return server;
}

/** One open-loop slice on a fresh server; checks every answer. */
void
openLoopSlice(Bench &b, Tallies &t, uint64_t trace_seed, Rng &rng)
{
    const std::unique_ptr<serve::Server> owned = buildServer(b, t);
    serve::Server &server = *owned;
    const std::vector<serve::Request> trace = serve::makeSyntheticTrace(
        b.g, traceConfig(b.w, kSliceInferences, trace_seed));
    std::vector<NodeId> probes(kProbes);
    for (NodeId &v : probes)
        v = static_cast<NodeId>(rng.nextBounded(b.g.numNodes()));
    b.tally->take();
    const Session s = drive(server, trace, true, probes);
    const std::vector<KernelTally::Region> regions = b.tally->take();
    b.spans->add("open-loop", kLanePhase, s.start, Clock::now());
    account(s, t);
    verifySession(b, server, s, t);
    t.cacheHits += static_cast<double>(server.stats().aggCacheHits());
    t.cacheMisses += static_cast<double>(server.stats().aggCacheMisses());

    const double origin_us = usBetween(b.spans->originTime(), s.start);
    // Inference batches (start -> done): the server runs one at a
    // time, and updates between them.
    std::map<uint64_t, uint64_t> batches, windows;
    std::map<uint64_t, uint32_t> sizes;
    std::vector<double> latency_us;
    for (const serve::InferenceResult &r : s.report.inference) {
        batches[r.startUs] = r.doneUs;
        sizes[r.startUs] = r.batchSize;
        if (r.id >= s.firstProbeId)
            continue;
        latency_us.push_back(static_cast<double>(r.doneUs) -
                             s.dueUs[r.id]);
        t.waitUs.push_back(static_cast<double>(r.startUs - r.arrivalUs));
        b.spans->addUs("request", kLaneServe,
                       origin_us + static_cast<double>(r.arrivalUs),
                       static_cast<double>(r.doneUs - r.arrivalUs));
    }
    t.served += static_cast<double>(s.report.inference.size());
    for (const auto &[start, done] : batches) {
        const auto dur = static_cast<double>(done - start);
        t.batchUs.push_back(dur);
        t.batchSize.push_back(sizes[start]);
        t.busyUs += dur;
        windows[start + s.runtimeOriginUs] = done + s.runtimeOriginUs;
        b.spans->addUs("infer-batch", kLaneStep,
                       origin_us + static_cast<double>(start), dur);
    }
    addInto(t.serveKernels, byLabel(inWindows(regions, windows)));
    for (const serve::UpdateResult &u : s.report.updates) {
        const auto dur = static_cast<double>(u.doneUs - u.startUs);
        t.applyUs.push_back(dur);
        t.coalesced.push_back(u.coalesced);
        b.spans->addUs("update-batch", kLaneStep,
                       origin_us + static_cast<double>(u.startUs), dur);
    }
    const std::vector<double> fresh_us = freshnessUs(s);
    if (latency_us.empty() || fresh_us.empty())
        throw std::runtime_error("open-loop slice served nothing");
    t.roundP50Us.push_back(quantile(latency_us, 0.5));
    t.roundP90Us.push_back(quantile(latency_us, 0.9));
    t.freshUs.insert(t.freshUs.end(), fresh_us.begin(), fresh_us.end());
    t.latencyUs.insert(t.latencyUs.end(), latency_us.begin(),
                       latency_us.end());
    t.lateUs.insert(t.lateUs.end(), s.lateUs.begin(), s.lateUs.end());
}

/** One capacity round: a whole trace submitted at once. */
void
capacityRound(Bench &b, Tallies &t, uint64_t trace_seed)
{
    const std::unique_ptr<serve::Server> owned = buildServer(b, t);
    serve::Server &server = *owned;
    const std::vector<serve::Request> backlog = serve::makeSyntheticTrace(
        b.g, traceConfig(b.w, b.w.capacityRequests, trace_seed));
    const Session s = drive(server, backlog, false, {});
    b.spans->add("capacity-round", kLanePhase, s.start, Clock::now());
    account(s, t);
    verifySession(b, server, s, t);
    uint64_t first = ~uint64_t{0}, last = 0;
    std::map<uint64_t, uint32_t> batches;
    for (const serve::InferenceResult &r : s.report.inference) {
        first = std::min(first, r.arrivalUs);
        last = std::max(last, r.doneUs);
        batches[r.startUs] = r.batchSize;
    }
    for (const serve::UpdateResult &u : s.report.updates)
        last = std::max(last, u.doneUs);
    if (s.report.inference.empty() || last <= first)
        throw std::runtime_error("capacity round served nothing");
    t.capacityRps.push_back(
        static_cast<double>(s.report.inference.size()) * 1e6 /
        static_cast<double>(last - first));
    for (const auto &[start, size] : batches)
        t.capBatch.push_back(size);
}

/** Offline island forwards: runtime islandization + consumer. */
void
islandForwards(Bench &b, Tallies &t)
{
    b.tally->take();
    for (int i = 0; i < kForwardsPerRound; ++i) {
        const auto t0 = Clock::now();
        const IslandizationResult isl = islandize(b.g);
        const auto t1 = Clock::now();
        AggOpStats ops;
        const DenseMatrix out = gcnForwardViaIslands(
            b.g, isl, b.x, b.weights, RedundancyConfig{}, &ops);
        const auto t2 = Clock::now();
        t.attempted++;
        b.spans->add("islandize", kLaneStep, t0, t1);
        b.spans->add("island-consumer", kLaneStep, t1, t2);
        b.spans->add("island-forward", kLanePhase, t0, t2);
        t.islandizeUs.push_back(usBetween(t0, t1));
        t.consumerUs.push_back(usBetween(t1, t2));
        t.forwardUs.push_back(usBetween(t0, t2));
        if (t.forwardUs.size() == 1) {
            t.ops = ops;
            t.islands = isl.islands.size();
            t.hubs = isl.numHubs();
            if (!closeMatrix(out, b.ref0)) {
                std::fprintf(stderr, "island forward != reference\n");
                t.correct = false;
                t.failed++;
            }
        }
    }
    addInto(t.fwdKernels, byLabel(b.tally->take()));
}

/** Training epochs on the persistent student weights. */
void
trainingEpochs(Bench &b, Tallies &t)
{
    b.tally->take();
    for (int i = 0; i < kEpochsPerRound; ++i) {
        const auto t0 = Clock::now();
        ForwardCache cache =
            trainingForward(b.g, b.trainIslands, b.x, b.student);
        DenseMatrix grad_out;
        const double loss = mseLoss(cache.output, b.trainTarget, &grad_out);
        const auto t1 = Clock::now();
        Gradients grads = trainingBackward(b.g, b.trainIslands, b.x,
                                           b.student, cache, grad_out);
        const auto t2 = Clock::now();
        sgdStep(b.student, grads, 0.5f);
        const auto t3 = Clock::now();
        t.attempted++;
        b.spans->add("train-forward", kLaneStep, t0, t1);
        b.spans->add("train-backward", kLaneStep, t1, t2);
        b.spans->add("sgd", kLaneStep, t2, t3);
        b.spans->add("train-epoch", kLanePhase, t0, t3);
        t.epochUs.push_back(usBetween(t0, t3));
        t.tfwdUs.push_back(usBetween(t0, t1));
        t.tbwdUs.push_back(usBetween(t1, t2));
        t.tsgdUs.push_back(usBetween(t2, t3));
        t.losses.push_back(loss);
        if (t.losses.size() == 1 && !closeMatrix(cache.output, b.ref0)) {
            std::fprintf(stderr, "training forward != reference\n");
            t.correct = false;
        }
    }
    addInto(t.trainKernels, byLabel(b.tally->take()));
}

int
run(const Args &args)
{
    const std::vector<Workload> all = workloads();
    const auto it =
        std::find_if(all.begin(), all.end(), [&](const Workload &w) {
            return args.workload == w.name;
        });
    if (it == all.end())
        throw std::invalid_argument("unknown workload " + args.workload);
    const Workload &w = *it;

    KernelTally tally;
    if (args.trace)
        setPoolObserver(&tally);
    SpanLog spans(args.trace);

    // Inputs from the seed; round r draws its traffic from its own
    // stream, so a seed fixes every round's inputs however many run.
    SplitMix64 mix(args.seed * 0x100000001B3ULL +
                   static_cast<uint64_t>(it - all.begin()));
    const uint64_t feature_seed = mix.next();
    const uint64_t weight_seed = mix.next();
    const uint64_t round_seed = mix.next();

    Bench b{w, {}, {}, {}, {}, {}, {}, 0, {}, {}, {}, &tally, &spans};
    b.cfg.aggCache.enabled = w.aggCache;
    DatasetGraph data = buildDataset(kDataset);
    b.g = std::move(data.graph);
    Rng frng(feature_seed);
    b.x = makeFeatures(b.g.numNodes(), data.info.numFeatures,
                       data.info.featureDensity, frng);
    const ModelConfig mc =
        modelConfig(Model::GCN, NetConfig::Algo, data.info);
    Rng wrng(weight_seed);
    b.weights = makeWeights(mc, wrng);

    b.epoch0 = serve::Server(b.g, b.x, b.weights, b.cfg).currentEpoch();
    b.ref0 = referenceForward(b.g, b.x, b.weights);
    b.xw0 = featuresTimes(b.x, b.weights[0]);
    b.trainIslands = islandize(b.g);
    Rng teacher_rng(weight_seed ^ 0x5EED);
    b.trainTarget = referenceForward(b.g, b.x, makeWeights(mc, teacher_rng));
    b.student = b.weights;

    Tallies t;
    if (!closeMatrix(epochForward(b.g, b.xw0, b.weights), b.ref0)) {
        std::fprintf(stderr, "epoch reference != referenceForward\n");
        t.correct = false;
    }

    // Measurement rounds, each one slice of every phase, so that slow
    // spells of the host spread over all metrics alike. While serving,
    // one core is left to the load generator; the offline phases get
    // the default pool.
    const int offline_threads = globalThreads();
    const int serve_threads = std::max(1, offline_threads - 1);
    const auto start = Clock::now();
    size_t rounds = 0;
    while (rounds == 0 || usBetween(start, Clock::now()) < args.seconds * 1e6) {
        Rng rng(round_seed + 0x9E3779B97F4A7C15ULL * rounds);
        const uint64_t slice_seed = rng.next();
        const uint64_t capacity_seed = rng.next();
        setGlobalThreads(serve_threads);
        openLoopSlice(b, t, slice_seed, rng);
        capacityRound(b, t, capacity_seed);
        setGlobalThreads(offline_threads);
        islandForwards(b, t);
        trainingEpochs(b, t);
        rounds++;
    }
    if (args.trace)
        setPoolObserver(nullptr);

    if (!std::isfinite(t.losses.back()) ||
        !(t.losses.back() < t.losses.front())) {
        std::fprintf(stderr, "training loss did not fall: %g -> %g\n",
                     t.losses.front(), t.losses.back());
        t.correct = false;
    }
    if (!t.check.ok() || t.check.compared == 0) {
        std::fprintf(stderr, "served logits: %llu of %llu mismatched\n",
                     static_cast<unsigned long long>(t.check.mismatched),
                     static_cast<unsigned long long>(t.check.compared));
        t.correct = false;
    }

    const double lookups = t.cacheHits + t.cacheMisses;
    std::fprintf(stderr,
                 "%s: %u nodes, %llu arcs, %zu islands, %zu hubs; %zu "
                 "rounds: %zu open-loop inferences, %zu update batches, %zu "
                 "forwards, %zu epochs; %llu logits checked over %zu "
                 "epochs; agg-cache hit rate %.3f\n",
                 w.name, b.g.numNodes(),
                 static_cast<unsigned long long>(b.g.numEdges()),
                 t.islands, t.hubs, rounds, t.latencyUs.size(),
                 t.applyUs.size(), t.forwardUs.size(), t.epochUs.size(),
                 static_cast<unsigned long long>(t.check.compared),
                 t.epochsChecked.size(),
                 lookups > 0 ? t.cacheHits / lookups : 0.0);

    Metrics m;
    if (!args.trace) {
        m.add("capacity_rps", quantile(t.capacityRps, 0.5), "1/s");
        m.add("island_forward_ms", quantile(t.forwardUs, 0.5) / 1e3,
              "ms");
        m.add("train_epoch_ms", quantile(t.epochUs, 0.5) / 1e3, "ms");
        m.add("setup_s", quantile(t.setupS, 0.5), "s");
    } else {
        // Kernel time inside inference batches only: the update path's
        // kernels run between batches.
        const auto serve = byLayer(t.serveKernels);
        double kernel_us = 0.0;
        for (const auto &[layer, us] : serve)
            kernel_us += us;
        m.add("serve_queue_wait_ms", quantile(t.waitUs, 0.5) / 1e3, "ms");
        m.add("serve_batch_ms", quantile(t.batchUs, 0.5) / 1e3, "ms");
        m.add("serve_batch_size", mean(t.batchSize), "count");
        m.add("serve_p50_ms", quantile(t.roundP50Us, 0.5) / 1e3, "ms");
        m.add("serve_p90_ms", quantile(t.roundP90Us, 0.5) / 1e3, "ms");
        m.add("serve_p99_ms", quantile(t.latencyUs, 0.99) / 1e3, "ms");
        for (const char *layer :
             {"combination", "aggregation", "activation"})
            m.add(std::string("serve_") + layer + "_us_per_req",
                  serve.at(layer) / t.served, "us");
        m.add("serve_unkerneled_us_per_req",
              std::max(0.0, t.busyUs - kernel_us) / t.served, "us");
        m.add("agg_cache_hits_per_req", t.cacheHits / t.served, "count");
        m.add("agg_cache_misses_per_req", t.cacheMisses / t.served,
              "count");
        m.add("freshness_p50_ms", quantile(t.freshUs, 0.5) / 1e3,
              "ms");
        m.add("update_apply_ms", quantile(t.applyUs, 0.5) / 1e3, "ms");
        m.add("update_coalesced", mean(t.coalesced), "count");
        m.add("generator_late_p99_ms", quantile(t.lateUs, 0.99) / 1e3,
              "ms");
        m.add("capacity_batch_size", mean(t.capBatch), "count");
        m.add("fwd_islandize_ms", quantile(t.islandizeUs, 0.5) / 1e3,
              "ms");
        m.add("fwd_consumer_ms", quantile(t.consumerUs, 0.5) / 1e3, "ms");
        const auto fwd = byLayer(t.fwdKernels);
        const auto n_fwd = static_cast<double>(t.forwardUs.size());
        for (const char *layer :
             {"combination", "aggregation", "activation", "other"})
            m.add(std::string("fwd_") + layer + "_ms",
                  fwd.at(layer) / n_fwd / 1e3, "ms");
        m.add("fwd_agg_ops", static_cast<double>(t.ops.optimizedOps()),
              "count");
        m.add("fwd_agg_baseline_ops",
              static_cast<double>(t.ops.baselineOps), "count");
        m.add("islands", static_cast<double>(t.islands), "count");
        m.add("hubs", static_cast<double>(t.hubs), "count");
        m.add("train_forward_ms", quantile(t.tfwdUs, 0.5) / 1e3, "ms");
        m.add("train_backward_ms", quantile(t.tbwdUs, 0.5) / 1e3, "ms");
        m.add("train_sgd_ms", quantile(t.tsgdUs, 0.5) / 1e3, "ms");
        const auto train = byLayer(t.trainKernels);
        const auto n_epochs = static_cast<double>(t.epochUs.size());
        for (const char *layer :
             {"combination", "aggregation", "activation", "other"})
            m.add(std::string("train_") + layer + "_ms",
                  train.at(layer) / n_epochs / 1e3, "ms");
        if (!args.traceOut.empty() && !spans.write(args.traceOut))
            std::fprintf(stderr, "could not write %s\n",
                         args.traceOut.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                t.correct ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed),
                m.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "igcn_perfbench: %s\n", e.what());
        return 1;
    }
}
