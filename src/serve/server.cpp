#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace igcn::serve {

uint64_t
ServiceModel::inferenceCostUs(const BatchExecInfo &info) const
{
    // Rows served from the aggregation cache are absent from the
    // layer counts, so cache hits shrink the charge by exactly the
    // aggregation they avoided.
    const double cost = inferenceFixedUs +
        perTargetUs * static_cast<double>(info.targets) +
        perSubNodeUs * static_cast<double>(info.aggregatedRows()) +
        perSubEdgeUs * static_cast<double>(info.aggregatedEntries());
    return static_cast<uint64_t>(std::ceil(cost));
}

uint64_t
ServiceModel::updateCostUs(const UpdateResult &res) const
{
    const double cost = updateFixedUs +
        perAppliedEdgeUs * static_cast<double>(res.edgesApplied) +
        perRemovedEdgeUs * static_cast<double>(res.edgesRemoved) +
        perScannedEdgeUs *
            static_cast<double>(res.stats.edgesScanned);
    return static_cast<uint64_t>(std::ceil(cost));
}

Server::Server(CsrGraph g, const Features &features,
               std::vector<DenseMatrix> weights, ServerConfig cfg)
    : cfg(cfg),
      hub(std::make_shared<GraphStateHub>(
          makeGraphState(std::move(g), cfg.locator))),
      engine(hub, features, std::move(weights)),
      applier(hub, cfg.locator)
{
    if (cfg.aggCache.enabled) {
        aggCachePtr = std::make_unique<AggCache>(cfg.aggCache);
        engine.attachAggCache(aggCachePtr.get());
    }
}

Server::Server(CsrGraph g, const DenseMatrix &features,
               std::vector<DenseMatrix> weights, ServerConfig cfg)
    : cfg(cfg),
      hub(std::make_shared<GraphStateHub>(
          makeGraphState(std::move(g), cfg.locator))),
      engine(hub, features, std::move(weights)),
      applier(hub, cfg.locator)
{
    if (cfg.aggCache.enabled) {
        aggCachePtr = std::make_unique<AggCache>(cfg.aggCache);
        engine.attachAggCache(aggCachePtr.get());
    }
}

Server::~Server()
{
    if (running)
        stop();
}

uint64_t
Server::nowUs() const
{
    return clock.nowUs();
}

void
Server::traceInferenceBatch(uint64_t formed_us, uint64_t done_us,
                            const BatchExecInfo &info,
                            const std::vector<InferenceResult> &results)
{
    if (!tracer.enabled())
        return;
    const uint64_t seq = batchSeq++;
    const uint64_t dur = done_us - formed_us;
    tracer.complete(obs::kLaneServer, "infer-batch", "serve",
                    formed_us, dur,
                    {{"batch", seq},
                     {"size", results.size()},
                     {"epoch", info.epoch},
                     {"targets", info.targets},
                     {"rows", info.aggregatedRows()},
                     {"entries", info.aggregatedEntries()},
                     {"cache_eligible", info.cacheEligible},
                     {"cache_hits", info.cacheHits},
                     {"cache_fills", info.cacheFills},
                     {"cache_rows", info.cacheRows},
                     {"cache_skipped_edges", info.cacheSkippedEdges}});

    // Phase children subdividing [formed, done] proportionally to
    // integer work units (+1 floors so a phase never vanishes):
    // gather is the frontier BFS, each layer pulls its own rows and
    // entries, respond fans results out. Integer arithmetic
    // throughout, so the subdivision is identical at every thread
    // count.
    std::vector<std::pair<std::string, uint64_t>> phases;
    phases.emplace_back("gather", info.bfsWork + 1);
    for (size_t l = 0; l < info.layerRows.size(); ++l)
        phases.emplace_back("layer" + std::to_string(l),
                            info.layerEntries[l] + info.layerRows[l] +
                                1);
    phases.emplace_back("respond",
                        static_cast<uint64_t>(results.size()) + 1);
    uint64_t total = 0;
    for (const auto &[name, work] : phases)
        total += work;
    uint64_t cum = 0, prev = formed_us;
    for (const auto &[name, work] : phases) {
        cum += work;
        const uint64_t b = formed_us + dur * cum / total;
        tracer.complete(obs::kLaneServer, name, "serve", prev,
                        b - prev, {{"batch", seq}, {"work", work}});
        prev = b;
    }

    for (const InferenceResult &r : results)
        tracer.instant(obs::kLaneRequests, "respond", "serve",
                       done_us,
                       {{"req", r.id},
                        {"tenant", r.tenant},
                        {"latency_us", done_us - r.arrivalUs},
                        {"epochs_behind", r.epochsBehind}});
}

void
Server::traceUpdateBatch(const UpdateResult &res)
{
    if (!tracer.enabled())
        return;
    const uint64_t seq = batchSeq++;
    const uint64_t dur = res.doneUs - res.startUs;
    tracer.complete(obs::kLaneServer, "update-batch", "update",
                    res.startUs, dur,
                    {{"batch", seq},
                     {"coalesced", res.coalesced},
                     {"edges_applied", res.edgesApplied},
                     {"edges_removed", res.edgesRemoved},
                     {"epoch", res.epoch}});

    const std::pair<std::string, uint64_t> phases[] = {
        {"coalesce", static_cast<uint64_t>(res.coalesced) + 1},
        {"edit-edges", static_cast<uint64_t>(res.edgesApplied) +
                           res.edgesRemoved + 1},
        {"islandize",
         static_cast<uint64_t>(res.stats.edgesScanned) + 1},
    };
    uint64_t total = 0;
    for (const auto &[name, work] : phases)
        total += work;
    uint64_t cum = 0, prev = res.startUs;
    for (const auto &[name, work] : phases) {
        cum += work;
        const uint64_t b = res.startUs + dur * cum / total;
        tracer.complete(obs::kLaneServer, name, "update", prev,
                        b - prev, {{"batch", seq}, {"work", work}});
        prev = b;
    }

    if (res.edgesApplied > 0 || res.edgesRemoved > 0)
        tracer.instant(obs::kLaneServer, "publish-epoch", "update",
                       res.doneUs, {{"epoch", res.epoch}});
}

void
Server::traceRejection(const Rejection &rej, bool dropped)
{
    if (!tracer.enabled())
        return;
    tracer.instant(obs::kLaneRequests, dropped ? "drop" : "reject",
                   "serve", rej.atUs,
                   {{"req", rej.id}, {"tenant", rej.tenant}},
                   {{"reason", serveErrorName(rej.error)}});
}

void
Server::handleDecision(SloScheduler::Decision &d, bool real_time,
                       uint64_t &busy_until_us)
{
    for (EdfQueue::Dropped &drop : d.dropped) {
        const Rejection rej{drop.entry.req.id, drop.entry.req.tenant,
                            drop.entry.req.kind, drop.error,
                            d.batch.formedAtUs};
        statsAcc.recordRejection(rej);
        traceRejection(rej, /*dropped=*/true);
        report.rejections.push_back(rej);
    }
    if (real_time)
        waitingCount.fetch_sub(d.dropped.size() +
                               d.batch.requests.size());
    if (d.kind == SloScheduler::Decision::Kind::Drops)
        return;

    if (d.kind == SloScheduler::Decision::Kind::Inference) {
        BatchExecInfo info;
        std::vector<InferenceResult> results =
            engine.runBatch(d.batch.requests, &info);
        const uint64_t done = real_time
            ? nowUs()
            : d.batch.formedAtUs + cfg.service.inferenceCostUs(info);
        for (size_t i = 0; i < results.size(); ++i) {
            InferenceResult &r = results[i];
            r.startUs = d.batch.formedAtUs;
            r.doneUs = done;
            r.epochsBehind = d.epochsBehind[i];
            r.deadlineUs = d.batch.requests[i].deadlineUs;
            r.freshness = d.batch.requests[i].freshness;
        }
        traceInferenceBatch(d.batch.formedAtUs, done, info, results);
        for (InferenceResult &r : results) {
            statsAcc.recordInference(r);
            report.inference.push_back(std::move(r));
        }
        statsAcc.recordInferenceBatch(info);
        if (aggCachePtr)
            statsAcc.recordAggCache(aggCachePtr->stats());
        busy_until_us = done;
    } else {
        UpdateResult res = applier.apply(d.batch.requests);
        res.startUs = d.batch.formedAtUs;
        res.doneUs = real_time
            ? nowUs()
            : d.batch.formedAtUs + cfg.service.updateCostUs(res);
        traceUpdateBatch(res);
        statsAcc.recordUpdate(res);
        busy_until_us = res.doneUs;
        report.updates.push_back(std::move(res));
    }
}

ReplayReport
Server::runTrace(std::vector<Request> trace)
{
    if (running)
        throw std::logic_error(
            "runTrace: real-time server is running");
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
    report = ReplayReport{};
    statsAcc.reset(); // each run reports its own telemetry
    if (aggCachePtr)
        aggCachePtr->reset(); // no cross-run carry-over
    tracer.setEnabled(cfg.obs.traceEnabled);
    tracer.clear();
    batchSeq = 0;

    // Fault injection first: trace-shape faults (update delays,
    // burst arrivals) are a deterministic rewrite of the trace.
    cfg.faults.applyToTrace(trace);

    AdmissionController admission(cfg.slo);
    SloScheduler sched(cfg.scheduler, cfg.slo, &cfg.faults);
    uint64_t busy = 0;
    size_t i = 0;

    // Admission happens at each request's arrival timestamp, with
    // the queue depth the request actually observes: all dispatches
    // that start no later than the arrival have already left the
    // pools (the loop below interleaves admissions and dispatches in
    // virtual-time order).
    const auto admitOne = [&] {
        Request r = std::move(trace[i]);
        i++;
        const ServeError e = admission.tryAdmit(r, sched.depth());
        if (e != ServeError::None) {
            const Rejection rej{r.id, r.tenant, r.kind, e,
                                r.arrivalUs};
            statsAcc.recordRejection(rej);
            traceRejection(rej, /*dropped=*/false);
            report.rejections.push_back(rej);
            return;
        }
        statsAcc.recordAdmission(r.tenant);
        if (tracer.enabled())
            tracer.instant(obs::kLaneRequests, "admit", "serve",
                           r.arrivalUs,
                           {{"req", r.id}, {"tenant", r.tenant}});
        sched.admit(std::move(r));
        statsAcc.recordQueueDepth(sched.depth());
    };

    while (true) {
        if (sched.empty()) {
            if (i == trace.size())
                break;
            admitOne();
            continue;
        }
        const uint64_t t = sched.nextDispatchTimeUs(busy);
        if (i < trace.size() && trace[i].arrivalUs <= t) {
            admitOne();
            continue;
        }
        SloScheduler::Decision d;
        sched.next(busy, d);
        handleDecision(d, /*real_time=*/false, busy);
    }
    return std::move(report);
}

void
Server::realTimeLoop()
{
    // Continuous batching against the live clock: admitted requests
    // drain from the hand-off queue into the scheduler's pools, and
    // every engine-free moment serves whatever is eligible. Admission
    // already happened on the submitter threads. The loop ends once
    // the queue is closed and everything pooled has been served.
    SloScheduler sched(cfg.scheduler, cfg.slo, &cfg.faults);
    uint64_t busy = 0;
    Request r;
    for (;;) {
        if (sched.empty()) {
            if (!liveQueue.popHead(r))
                break;
            sched.admit(std::move(r));
        }
        while (liveQueue.tryPop(r))
            sched.admit(std::move(r));
        SloScheduler::Decision d;
        if (sched.next(nowUs(), d))
            handleDecision(d, /*real_time=*/true, busy);
    }
}

void
Server::start()
{
    if (running)
        throw std::logic_error("start: already running");
    running = true;
    clock.reset();
    report = ReplayReport{};
    statsAcc.reset();
    if (aggCachePtr)
        aggCachePtr->reset();
    tracer.setEnabled(cfg.obs.traceEnabled);
    tracer.clear();
    batchSeq = 0;
    {
        MutexLock lock(submitMutex);
        liveAdmission = AdmissionController(cfg.slo);
        waitingCount = 0;
        liveMaxDepth = 0;
        liveAdmittedTenants.clear();
        liveRejections.clear();
    }
    // Service thread, see server.hpp.
    // igcn-lint: allow(no-thread-outside-runtime)
    schedulerThread = std::thread([this] { realTimeLoop(); });
}

ServeResult
Server::submitRequest(Request r)
{
    MutexLock lock(submitMutex);
    r.id = nextId.fetch_add(1);
    r.arrivalUs = nowUs();
    if (r.deadlineUs != 0)
        r.deadlineUs += r.arrivalUs; // relative -> absolute
    ServeResult out;
    out.id = r.id;
    const size_t depth = waitingCount.load();
    out.error = liveAdmission.tryAdmit(r, depth);
    if (out.error != ServeError::None) {
        const Rejection rej{r.id, r.tenant, r.kind, out.error,
                            r.arrivalUs};
        traceRejection(rej, /*dropped=*/false);
        liveRejections.push_back(rej);
        return out;
    }
    liveAdmittedTenants.push_back(r.tenant);
    liveMaxDepth =
        std::max(liveMaxDepth, static_cast<uint64_t>(depth + 1));
    waitingCount.fetch_add(1);
    if (tracer.enabled())
        tracer.instant(obs::kLaneRequests, "admit", "serve",
                       r.arrivalUs,
                       {{"req", r.id}, {"tenant", r.tenant}});
    liveQueue.push(std::move(r));
    return out;
}

ServeResult
Server::submitInference(NodeId node, const SubmitOptions &opts)
{
    if (!running)
        throw std::logic_error("submitInference: server not running");
    Request r;
    r.kind = RequestKind::Inference;
    r.node = node;
    r.tenant = opts.tenant;
    r.priority = opts.priority;
    r.deadlineUs = opts.deadlineUs;
    r.freshness = opts.freshness;
    return submitRequest(std::move(r));
}

ServeResult
Server::submitUpdate(std::vector<Edge> added, std::vector<Edge> removed,
                     const SubmitOptions &opts)
{
    if (!running)
        throw std::logic_error("submitUpdate: server not running");
    Request r;
    r.kind = RequestKind::Update;
    r.addedEdges = std::move(added);
    r.removedEdges = std::move(removed);
    r.tenant = opts.tenant;
    r.priority = opts.priority;
    r.deadlineUs = opts.deadlineUs;
    return submitRequest(std::move(r));
}

ReplayReport
Server::stop()
{
    if (!running)
        throw std::logic_error("stop: server not running");
    liveQueue.close();
    schedulerThread.join();
    running = false;
    // Merge submit-side admission accounting now that the scheduler
    // thread is done with statsAcc / report.
    MutexLock lock(submitMutex);
    for (uint32_t tenant : liveAdmittedTenants)
        statsAcc.recordAdmission(tenant);
    for (const Rejection &rej : liveRejections) {
        statsAcc.recordRejection(rej);
        report.rejections.push_back(rej);
    }
    statsAcc.recordQueueDepth(liveMaxDepth);
    return std::move(report);
}

} // namespace igcn::serve
