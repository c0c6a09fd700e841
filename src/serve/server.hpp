/**
 * @file
 * The online inference server: admission -> SloScheduler (one
 * continuous-batching loop) -> micro-batched L-hop inference engine,
 * with updates interleaved as graph epochs (see DESIGN.md sections 4
 * and 5).
 *
 * Two execution modes share every component:
 *
 *  - **Virtual-clock replay** (runTrace): the trace supplies arrival
 *    timestamps, batch formation is a pure function of those
 *    timestamps and the config, and completion times come from a
 *    deterministic service-cost model — so results, epochs, batch
 *    composition, and every latency number are bit-reproducible
 *    across runs and IGCN_THREADS settings (the kernels underneath
 *    are bit-identical at any thread count). This is the testing and
 *    benchmarking contract.
 *
 *  - **Real-time serving** (start / submit / stop): producers submit
 *    requests stamped with the live server clock and admitted on
 *    their own thread; a scheduler thread drains them from the
 *    RequestQueue hand-off into the same scheduler and measures
 *    wall-clock latencies. Same scheduler, engine, and applier.
 */

#pragma once

#include <atomic>
#include <thread>

#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_annotations.hpp"
#include "serve/agg_cache.hpp"
#include "serve/queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"
#include "serve/update.hpp"

namespace igcn::serve {

/**
 * Deterministic virtual service-cost model: completion time of a
 * batch = dispatch time + a cost affine in the work actually done
 * (targets, rows and A_hat entries aggregated, islandization repair
 * effort). All
 * inputs are exact integers from the execution, so replay timing is
 * reproducible to the microsecond.
 */
struct ServiceModel
{
    double inferenceFixedUs = 5.0;
    double perTargetUs = 0.5;
    /** Per A_hat row aggregated, summed over layers. */
    double perSubNodeUs = 0.02;
    /** Per A_hat entry those rows read. */
    double perSubEdgeUs = 0.005;
    double updateFixedUs = 20.0;
    double perAppliedEdgeUs = 1.0;
    /** Deletions pay the same merge cost as insertions plus the
     *  dissolve bookkeeping, charged via edgesScanned below. */
    double perRemovedEdgeUs = 1.0;
    double perScannedEdgeUs = 0.02;

    uint64_t inferenceCostUs(const BatchExecInfo &info) const;
    uint64_t updateCostUs(const UpdateResult &res) const;
};

/** Observability wiring (DESIGN.md section 8). */
struct ObsConfig
{
    /**
     * Record lifecycle spans and instants into the server's
     * TraceRecorder (export with obs::writePerfettoTrace, CLI
     * --trace-out). In replay mode every timestamp is virtual and
     * the recorded stream is byte-identical at any IGCN_THREADS;
     * real-time mode stamps through the server's RealClock.
     */
    bool traceEnabled = false;
};

/** Full server configuration. */
struct ServerConfig
{
    SchedulerConfig scheduler;
    LocatorConfig locator;
    ServiceModel service;
    /** SLO layer: admission control, EDF + drop-expired, bounded
     *  staleness. The default sets no limits (see SloConfig). */
    SloConfig slo;
    /** Deterministic fault-injection plan (replay mode). */
    FaultPlan faults;
    /** Observability: span tracing on/off. */
    ObsConfig obs;
    /** Epoch-keyed island-aggregation cache (serve/agg_cache.hpp).
     *  Off by default; results are byte-identical either way. */
    AggCacheConfig aggCache;
};

/** Everything a run produced, in dispatch order. */
struct ReplayReport
{
    std::vector<InferenceResult> inference;
    std::vector<UpdateResult> updates;
    /** Refused requests (admission rejections and deadline drops),
     *  in decision order. Empty when no SLO limit is set and no
     *  request carries a deadline. */
    std::vector<Rejection> rejections;
};

/** Per-request SLO parameters of a live submission. */
struct SubmitOptions
{
    uint32_t tenant = 0;
    Priority priority = Priority::Normal;
    /** Relative deadline in microseconds from arrival; 0 = none. */
    uint64_t deadlineUs = 0;
    Freshness freshness = Freshness::Bounded;
};

/** See file comment. */
class Server
{
  public:
    /** Features are only read, to build the engine's X W0 table;
     *  see InferenceEngine for what is validated. */
    Server(CsrGraph g, const Features &features,
           std::vector<DenseMatrix> weights, ServerConfig cfg = {});

    /** Dense-feature convenience ctor (the pre-sparse API). */
    Server(CsrGraph g, const DenseMatrix &features,
           std::vector<DenseMatrix> weights, ServerConfig cfg = {});
    ~Server();

    /**
     * Virtual-clock replay of a complete trace (sorted by arrival;
     * sorted here defensively). Deterministic; see file comment.
     */
    ReplayReport runTrace(std::vector<Request> trace);

    /** Start the real-time scheduler thread. */
    void start();
    /**
     * Submit a live inference request. Typed result: `ok()` means
     * admitted (the id will appear in the report); otherwise the
     * request was refused at the admission boundary (Rejected /
     * Overloaded) and never enqueued. Throws std::logic_error only
     * for API misuse (server not running).
     */
    [[nodiscard]] ServeResult submitInference(NodeId node,
                                const SubmitOptions &opts = {});
    /** Submit a live edge-mutation request (additions and/or
     *  deletions); same typed-result contract as submitInference. */
    [[nodiscard]] ServeResult submitUpdate(std::vector<Edge> added,
                             std::vector<Edge> removed = {},
                             const SubmitOptions &opts = {});
    /** Close the queue, drain it, join the thread, return results. */
    ReplayReport stop();

    const ServerStats &stats() const { return statsAcc; }
    /** The run's span recorder (populated when cfg.obs.traceEnabled;
     *  export with obs::writePerfettoTrace). */
    const obs::TraceRecorder &traceRecorder() const { return tracer; }
    std::shared_ptr<GraphStateHub> stateHub() { return hub; }
    uint64_t currentEpoch() const { return hub->currentEpoch(); }

  private:
    void handleDecision(SloScheduler::Decision &d, bool real_time,
                        uint64_t &busy_until_us);
    void realTimeLoop();
    [[nodiscard]] ServeResult submitRequest(Request r);
    uint64_t nowUs() const;

    // Trace emission (no-ops when the recorder is disabled). The
    // batch spans subdivide [formed, done] into phase children by
    // integer-proportional work units — exact integers from the
    // execution, so replay traces are thread-count-exact.
    void traceInferenceBatch(uint64_t formed_us, uint64_t done_us,
                             const BatchExecInfo &info,
                             const std::vector<InferenceResult> &results);
    void traceUpdateBatch(const UpdateResult &res);
    void traceRejection(const Rejection &rej, bool dropped);

    ServerConfig cfg;
    std::shared_ptr<GraphStateHub> hub;
    InferenceEngine engine;
    UpdateApplier applier;
    /** Present iff cfg.aggCache.enabled; attached to the engine. */
    std::unique_ptr<AggCache> aggCachePtr;
    ServerStats statsAcc;
    ReplayReport report;
    obs::TraceRecorder tracer;
    /** Monotonic batch sequence within one run (trace arg). */
    uint64_t batchSeq = 0;

    // Real-time mode state.
    RequestQueue liveQueue;
    // The scheduler is a long-lived service thread, not data
    // parallelism — the pool still runs every kernel underneath.
    // igcn-lint: allow(no-thread-outside-runtime)
    std::thread schedulerThread;
    std::atomic<uint64_t> nextId{0};
    /** The server's only wall-clock source (real-time mode); reset
     *  at start(). Replay mode never reads it. */
    obs::RealClock clock;
    std::atomic<bool> running{false};

    // Real-time admission state. Admission decisions happen on
    // submitter threads while the scheduler thread owns statsAcc /
    // report, so submit-side decisions are buffered under
    // submitMutex and merged into the stats after the scheduler
    // thread joins in stop() (which takes submitMutex for the merge,
    // uncontended by then).
    Mutex submitMutex;
    AdmissionController liveAdmission IGCN_GUARDED_BY(submitMutex){
        SloConfig{}};
    std::atomic<size_t> waitingCount{0};
    uint64_t liveMaxDepth IGCN_GUARDED_BY(submitMutex) = 0;
    std::vector<uint32_t> liveAdmittedTenants
        IGCN_GUARDED_BY(submitMutex);
    std::vector<Rejection> liveRejections IGCN_GUARDED_BY(submitMutex);
};

} // namespace igcn::serve
