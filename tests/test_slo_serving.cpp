/**
 * @file
 * SLO serving tests — acceptance criteria of the robustness layer:
 *
 *  (a) admission control is typed and immediate: over-budget
 *      submissions are Rejected and over-capacity ones Overloaded at
 *      the serving boundary, never enqueued; updates are exempt from
 *      the token budget but bounded by the queue cap;
 *  (b) EDF + drop-expired: pooled requests are served earliest-
 *      deadline-first (priority and arrival breaking ties, deadline-
 *      less requests forming an arrival-ordered tail) and a request
 *      that cannot start by its deadline is dropped — classified
 *      Expired when it was eligible and ShedStale when its freshness
 *      gate was the blocker — so no admitted Strict request ever
 *      starts past its deadline (zero violations by construction);
 *  (c) bounded staleness: a Freshness::Bounded request may be served
 *      from an epoch at most K admitted-updates behind head, Strict
 *      requests always wait for full freshness, and K=0 reproduces
 *      hard sequence-point semantics;
 *  (d) determinism: admit/shed/expire decisions, per-tenant stats and
 *      the full stats summary are bit-identical at IGCN_THREADS 1/4/8
 *      across queue caps, fault plans included;
 *  (e) overload (arrival >= 4x service rate) sheds deterministically
 *      with bounded queue memory and an admitted-request p99 within
 *      2x of the uncontended p99, while the FCFS baseline's backlog
 *      grows without bound on the same trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "gcn/reference.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace igcn {
namespace {

using namespace igcn::serve;

struct Workload
{
    CsrGraph graph;
    Features features;
    std::vector<DenseMatrix> weights;
};

Workload
makeWorkload(NodeId nodes, uint64_t seed)
{
    Workload w;
    w.graph = hubAndIslandGraph({.numNodes = nodes, .seed = seed}).graph;
    Rng rng(seed * 7 + 1);
    w.features.dense = DenseMatrix(nodes, 12);
    w.features.dense.fillRandom(rng, 1.0f);
    ModelConfig mc;
    mc.layers = {{12, 10}, {10, 5}};
    w.weights = makeWeights(mc, rng);
    return w;
}

Request
inf(uint64_t id, uint64_t arrival, uint64_t deadline = 0,
    Freshness fresh = Freshness::Bounded,
    Priority prio = Priority::Normal, uint32_t tenant = 0)
{
    Request r;
    r.kind = RequestKind::Inference;
    r.id = id;
    r.arrivalUs = arrival;
    r.deadlineUs = deadline;
    r.freshness = fresh;
    r.priority = prio;
    r.tenant = tenant;
    return r;
}

Request
upd(uint64_t id, uint64_t arrival)
{
    Request r;
    r.kind = RequestKind::Update;
    r.id = id;
    r.arrivalUs = arrival;
    r.addedEdges.emplace_back(NodeId{0}, NodeId{1});
    return r;
}

/** Exact nearest-rank p99 of served-inference latency, from the
 *  replay report itself (the stats' histogram p99 is a bucketed
 *  estimate; overload-bound assertions need the exact value). */
double
exactP99Us(const ReplayReport &rep)
{
    std::vector<uint64_t> lat;
    lat.reserve(rep.inference.size());
    for (const InferenceResult &r : rep.inference)
        lat.push_back(r.doneUs - r.arrivalUs);
    if (lat.empty())
        return 0.0;
    std::sort(lat.begin(), lat.end());
    const size_t rank = static_cast<size_t>(
        std::max<double>(1.0, std::ceil(0.99 * lat.size())));
    return static_cast<double>(lat[rank - 1]);
}

// ------------------------------------------------------ criterion (a)

TEST(SloTokenBucket, RefillIsPureFunctionOfTimestamps)
{
    // 1000 qps = 0.001 tokens/us, burst 2.
    TokenBucket b(1000.0, 2.0);
    EXPECT_TRUE(b.tryTake(0));
    EXPECT_TRUE(b.tryTake(0));
    EXPECT_FALSE(b.tryTake(0));   // burst exhausted
    EXPECT_FALSE(b.tryTake(500)); // 0.5 tokens accrued
    EXPECT_TRUE(b.tryTake(1000)); // 1.0 accrued since t=0
    EXPECT_FALSE(b.tryTake(1001));
    // Refill caps at burst: a long silence does not bank credit.
    EXPECT_DOUBLE_EQ(b.available(1'000'000), 2.0);
    EXPECT_TRUE(b.tryTake(1'000'000));
    EXPECT_TRUE(b.tryTake(1'000'000));
    EXPECT_FALSE(b.tryTake(1'000'000));
}

TEST(SloAdmission, BudgetThenCapacityTyped)
{
    SloConfig cfg;
    cfg.qpsBudget = 1000.0;
    cfg.burstTokens = 1.0;
    cfg.queueCap = 2;
    AdmissionController adm(cfg);

    // Tenant 0's single burst token admits one inference; the second
    // is over budget: Rejected even though the queue has room.
    EXPECT_EQ(adm.tryAdmit(inf(0, 0), 0), ServeError::None);
    EXPECT_EQ(adm.tryAdmit(inf(1, 0), 1), ServeError::Rejected);
    // Budgets are per tenant: tenant 1 is unaffected.
    EXPECT_EQ(adm.tryAdmit(inf(2, 0, 0, Freshness::Bounded,
                               Priority::Normal, /*tenant=*/1),
                           1),
              ServeError::None);
    // Queue at capacity: Overloaded, even with tokens available.
    EXPECT_EQ(adm.tryAdmit(inf(3, 5000, 0, Freshness::Bounded,
                               Priority::Normal, /*tenant=*/2),
                           2),
              ServeError::Overloaded);
    // Updates are exempt from the token budget (tenant 0 is broke)
    // but bounded by the queue cap like everyone else.
    EXPECT_EQ(adm.tryAdmit(upd(4, 0), 1), ServeError::None);
    EXPECT_EQ(adm.tryAdmit(upd(5, 0), 2), ServeError::Overloaded);
}

// ------------------------------------------------------ criterion (b)

TEST(SloEdfQueue, EdfOrderWithPriorityAndArrivalTieBreaks)
{
    EdfQueue q;
    q.add(inf(0, 30), 0);                           // no deadline
    q.add(inf(1, 10, 500), 0);                      // later deadline
    q.add(inf(2, 20, 400), 0);                      // earliest deadline
    q.add(inf(3, 5, 500, Freshness::Bounded,
              Priority::Interactive), 0);           // ties on deadline
    q.add(inf(4, 1), 0);                            // no deadline, early

    std::vector<uint64_t> order;
    EdfQueue::Entry e;
    while (q.popEligible(0, 0, e))
        order.push_back(e.req.id);
    // EDF first (2), then deadline-500 by priority (3 before 1), then
    // the deadline-less tail in arrival order (4 before 0).
    EXPECT_EQ(order, (std::vector<uint64_t>{2, 3, 1, 4, 0}));
}

TEST(SloEdfQueue, DropExpiredClassifiesExpiredVsShedStale)
{
    EdfQueue q;
    q.add(inf(0, 0, 100), 0);  // eligible, deadline passes -> Expired
    q.add(inf(1, 0, 100), 5);  // needs 5 updates applied -> ShedStale
    q.add(inf(2, 0, 200), 0);  // deadline not yet passed -> stays
    q.add(inf(3, 0), 9);       // no deadline -> never dropped

    auto dropped = q.dropExpired(/*now=*/150, /*applied=*/0,
                                 /*staleness=*/0);
    ASSERT_EQ(dropped.size(), 2u);
    // Map order: deadline-100 entries first (arrival then id).
    EXPECT_EQ(dropped[0].entry.req.id, 0u);
    EXPECT_EQ(dropped[0].error, ServeError::Expired);
    EXPECT_EQ(dropped[1].entry.req.id, 1u);
    EXPECT_EQ(dropped[1].error, ServeError::ShedStale);
    EXPECT_EQ(q.size(), 2u);

    // Boundary: a request whose deadline equals now may still start
    // exactly at the deadline — not dropped.
    auto none = q.dropExpired(/*now=*/200, 0, 0);
    EXPECT_TRUE(none.empty());
}

// ------------------------------------------------------ criterion (c)

TEST(SloScheduler, BoundedStalenessServesStaleStrictWaits)
{
    SchedulerConfig bc;
    bc.maxBatch = 8;
    SloConfig slo;
    slo.stalenessBound = 2;
    SloScheduler sched(bc, slo);

    sched.admit(upd(0, 10));
    sched.admit(inf(1, 20));                          // 1 update behind
    sched.admit(inf(2, 25, 0, Freshness::Strict));    // must wait

    // Bounded request 1 is eligible (1 <= K=2): served first, one
    // epoch behind. Strict request 2 is not in the batch.
    SloScheduler::Decision d;
    ASSERT_TRUE(sched.next(0, d));
    ASSERT_EQ(d.kind, SloScheduler::Decision::Kind::Inference);
    ASSERT_EQ(d.batch.requests.size(), 1u);
    EXPECT_EQ(d.batch.requests[0].id, 1u);
    EXPECT_EQ(d.epochsBehind, (std::vector<uint32_t>{1}));

    // Only the strict request remains ineligible -> the update is
    // forced (it can never deadlock: ineligibility implies pending
    // updates).
    ASSERT_TRUE(sched.next(0, d));
    ASSERT_EQ(d.kind, SloScheduler::Decision::Kind::Update);
    EXPECT_EQ(sched.appliedSeq(), 1u);

    // Now the strict request is fully fresh.
    ASSERT_TRUE(sched.next(0, d));
    ASSERT_EQ(d.kind, SloScheduler::Decision::Kind::Inference);
    ASSERT_EQ(d.batch.requests.size(), 1u);
    EXPECT_EQ(d.batch.requests[0].id, 2u);
    EXPECT_EQ(d.epochsBehind, (std::vector<uint32_t>{0}));
    EXPECT_FALSE(sched.next(0, d));
}

TEST(SloScheduler, StalenessBoundForcesUpdatesWhenExceeded)
{
    SchedulerConfig bc;
    SloConfig slo;
    slo.stalenessBound = 2;
    SloScheduler sched(bc, slo);

    // Three updates pending: a bounded request admitted after them is
    // 3 > K=2 behind -> ineligible, so updates apply first.
    for (uint64_t i = 0; i < 3; ++i)
        sched.admit(upd(i, i));
    sched.admit(inf(3, 10));

    SloScheduler::Decision d;
    ASSERT_TRUE(sched.next(0, d));
    ASSERT_EQ(d.kind, SloScheduler::Decision::Kind::Update);
    EXPECT_EQ(d.batch.requests.size(), 3u); // coalesced
    ASSERT_TRUE(sched.next(0, d));
    ASSERT_EQ(d.kind, SloScheduler::Decision::Kind::Inference);
    EXPECT_EQ(d.epochsBehind, (std::vector<uint32_t>{0}));
}

TEST(SloScheduler, UpdateNeverOvertakesAnEarlierAdmittedRead)
{
    // The sequence-point rule at K=0: an update batch coalesces only
    // the updates admitted before the earliest-admitted pooled read,
    // so U1 (admitted after I1) cannot ride along with U0. Ids 0-3
    // are U0, I1, U1, I2, all arrived by t=0.
    SloScheduler sched(SchedulerConfig{}, SloConfig{});
    sched.admit(upd(0, 0));
    sched.admit(inf(1, 0));
    sched.admit(upd(2, 0));
    sched.admit(inf(3, 0));

    using Kind = SloScheduler::Decision::Kind;
    std::vector<std::pair<Kind, std::vector<uint64_t>>> steps;
    SloScheduler::Decision d;
    while (sched.next(0, d)) {
        std::vector<uint64_t> ids;
        for (const Request &r : d.batch.requests)
            ids.push_back(r.id);
        steps.emplace_back(d.kind, std::move(ids));
        // Every read is served fully fresh.
        for (uint32_t behind : d.epochsBehind)
            EXPECT_EQ(behind, 0u);
    }
    const std::vector<std::pair<Kind, std::vector<uint64_t>>> want = {
        {Kind::Update, {0}},
        {Kind::Inference, {1}},
        {Kind::Update, {2}},
        {Kind::Inference, {3}},
    };
    EXPECT_EQ(steps, want);
}

// ------------------------------------------------------ criterion (d)

/** Everything a decision sequence produced, for bit-comparison. */
struct SloSignature
{
    std::vector<std::tuple<uint64_t, int, uint64_t>> rejections;
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint32_t,
                           uint32_t>>
        served; // id, start, done, epochsBehind, tenant
    std::string summary;
    std::string tenantTable;

    static SloSignature
    of(const ReplayReport &rep, const ServerStats &st)
    {
        SloSignature s;
        for (const Rejection &r : rep.rejections)
            s.rejections.emplace_back(r.id, static_cast<int>(r.error),
                                      r.atUs);
        for (const InferenceResult &r : rep.inference)
            s.served.emplace_back(r.id, r.startUs, r.doneUs,
                                  r.epochsBehind, r.tenant);
        s.summary = st.summary();
        s.tenantTable = st.rejectionTable();
        return s;
    }

    bool operator==(const SloSignature &) const = default;
};

std::vector<Request>
overloadTrace(const CsrGraph &g)
{
    TraceConfig tc;
    tc.numInference = 1200;
    tc.numUpdates = 80;
    tc.meanGapUs = 6.0; // far past saturation
    tc.pattern = ArrivalPattern::Burst;
    tc.numTenants = 4;
    tc.deadlineUs = 4000;
    tc.strictFraction = 0.15;
    tc.seed = 17;
    return makeSyntheticTrace(g, tc);
}

TEST(SloReplay, DecisionsBitIdenticalAcrossThreadsAndQueueCaps)
{
    Workload w = makeWorkload(500, 23);
    const std::vector<Request> trace = overloadTrace(w.graph);

    for (uint32_t cap : {16u, 64u, 256u}) {
        ServerConfig sc;
        sc.scheduler.maxBatch = 8;
        sc.slo.queueCap = cap;
        sc.slo.qpsBudget = 30000.0;
        sc.slo.stalenessBound = 4;

        std::vector<SloSignature> sigs;
        for (int threads : {1, 4, 8}) {
            setGlobalThreads(threads);
            Server server(w.graph, w.features, w.weights, sc);
            ReplayReport rep = server.runTrace(trace);
            // Shedding engaged; queue memory stayed bounded; no
            // admitted request ever started past its deadline.
            EXPECT_GT(rep.rejections.size(), 0u) << "cap " << cap;
            EXPECT_LE(server.stats().maxQueueDepth(), cap);
            EXPECT_EQ(server.stats().strictDeadlineViolations(), 0u);
            sigs.push_back(SloSignature::of(rep, server.stats()));
        }
        setGlobalThreads(0);
        EXPECT_EQ(sigs[0], sigs[1]) << "cap " << cap;
        EXPECT_EQ(sigs[0], sigs[2]) << "cap " << cap;
    }
}

TEST(SloReplay, ServedResultsBitIdenticalToFreshReference)
{
    // Strict requests served by the SLO path carry epochsBehind == 0
    // and must be bit-identical to the whole-graph reference of the
    // epoch they were served against.
    Workload w = makeWorkload(400, 31);
    TraceConfig tc;
    tc.numInference = 150;
    tc.numUpdates = 0;
    tc.meanGapUs = 400.0;
    tc.seed = 5;
    ServerConfig sc;
    Server server(w.graph, w.features, w.weights, sc);
    ReplayReport rep = server.runTrace(makeSyntheticTrace(w.graph, tc));
    ASSERT_EQ(rep.inference.size(), tc.numInference);

    DenseMatrix ref = referenceForward(w.graph, w.features, w.weights);
    for (const InferenceResult &r : rep.inference) {
        EXPECT_EQ(r.epochsBehind, 0u);
        ASSERT_EQ(r.logits.size(), ref.cols());
        for (size_t c = 0; c < r.logits.size(); ++c)
            EXPECT_EQ(r.logits[c], ref.row(r.node)[c]);
    }
}

// ------------------------------------- fault injection / staleness

TEST(SloFaults, EngineStallDropsDeterministicallyAndRecovers)
{
    Workload w = makeWorkload(400, 47);
    TraceConfig tc;
    tc.numInference = 400;
    tc.numUpdates = 30;
    tc.meanGapUs = 60.0;
    tc.deadlineUs = 900;
    tc.seed = 19;
    const std::vector<Request> trace =
        makeSyntheticTrace(w.graph, tc);

    ServerConfig sc;
    sc.slo.stalenessBound = 4;
    FaultEvent stall;
    stall.kind = FaultEvent::Kind::EngineStall;
    stall.atUs = 4000;
    stall.durationUs = 3000;
    sc.faults.events.push_back(stall);

    Server server(w.graph, w.features, w.weights, sc);
    ReplayReport rep = server.runTrace(trace);
    const ServerStats &st = server.stats();

    // Nothing starts inside the stall window.
    for (const InferenceResult &r : rep.inference) {
        EXPECT_FALSE(r.startUs >= stall.atUs &&
                     r.startUs < stall.atUs + stall.durationUs)
            << "inference started mid-stall at " << r.startUs;
    }
    for (const UpdateResult &u : rep.updates)
        EXPECT_FALSE(u.startUs >= stall.atUs &&
                     u.startUs < stall.atUs + stall.durationUs);

    // Deadlines shorter than the stall expire deterministically —
    // degradation, not late serving — and serving resumes after.
    EXPECT_GT(st.expiredRequests() + st.shedStaleRequests(), 0u);
    EXPECT_EQ(st.strictDeadlineViolations(), 0u);
    uint64_t served_after_stall = 0;
    for (const InferenceResult &r : rep.inference)
        if (r.startUs >= stall.atUs + stall.durationUs)
            served_after_stall++;
    EXPECT_GT(served_after_stall, 0u);

    // The same plan is bit-reproducible at another thread count.
    setGlobalThreads(4);
    Server server2(w.graph, w.features, w.weights, sc);
    ReplayReport rep2 = server2.runTrace(trace);
    setGlobalThreads(0);
    EXPECT_EQ(SloSignature::of(rep, st),
              SloSignature::of(rep2, server2.stats()));
}

TEST(SloFaults, BoundedStalenessKeepsServingThroughUpdateBurst)
{
    // An UpdateDelay fault turns a steady trickle of updates into one
    // replication-lag burst. With a staleness budget the server keeps
    // answering from the slightly-stale epoch; with K=0 every pooled
    // request stalls behind the burst (hard sequence-point
    // semantics).
    Workload w = makeWorkload(400, 59);
    TraceConfig tc;
    tc.numInference = 500;
    tc.numUpdates = 12;
    tc.meanGapUs = 25.0;
    tc.deadlineUs = 1500;
    tc.seed = 29;
    const std::vector<Request> trace =
        makeSyntheticTrace(w.graph, tc);

    FaultPlan plan;
    FaultEvent delay;
    delay.kind = FaultEvent::Kind::UpdateDelay;
    delay.atUs = 0;
    delay.durationUs = 8000; // all early updates land at t=8000
    plan.events.push_back(delay);
    // An engine stall bracketing the burst's landing makes requests
    // pile up behind it, so the first post-stall dispatch finds both
    // the landed updates and admitted-after-them inference pooled —
    // the exact moment where the staleness budget decides who is
    // served.
    FaultEvent stall;
    stall.kind = FaultEvent::Kind::EngineStall;
    stall.atUs = 7000;
    stall.durationUs = 1100;
    plan.events.push_back(stall);

    auto run = [&](uint32_t staleness) {
        ServerConfig sc;
        sc.scheduler.maxBatch = 8;
        sc.slo.stalenessBound = staleness;
        sc.faults = plan;
        Server server(w.graph, w.features, w.weights, sc);
        server.runTrace(trace);
        return std::make_tuple(server.stats().inferenceRequests(),
                               server.stats().staleServes(),
                               server.stats().expiredRequests() +
                                   server.stats().shedStaleRequests(),
                               server.stats().strictDeadlineViolations());
    };

    const auto [served_k, stale_k, dropped_k, viol_k] = run(16);
    const auto [served_0, stale_0, dropped_0, viol_0] = run(0);

    // K=16 rides through the burst serving stale-but-valid answers.
    EXPECT_GT(stale_k, 0u);
    // K=0 is exactly the strict world: nothing is ever served stale.
    EXPECT_EQ(stale_0, 0u);
    // The budgeted server answers at least as many requests and drops
    // no more than the strict one on the identical degraded trace.
    EXPECT_GE(served_k, served_0);
    EXPECT_LE(dropped_k, dropped_0);
    // Neither mode ever serves an admitted strict request late.
    EXPECT_EQ(viol_k, 0u);
    EXPECT_EQ(viol_0, 0u);
}

TEST(SloFaults, BurstArrivalsInjectDeterministicHerd)
{
    Workload w = makeWorkload(300, 61);
    TraceConfig tc;
    tc.numInference = 100;
    tc.numUpdates = 0;
    tc.meanGapUs = 200.0;
    tc.seed = 3;
    std::vector<Request> trace = makeSyntheticTrace(w.graph, tc);
    const size_t base = trace.size();

    FaultPlan plan;
    FaultEvent burst;
    burst.kind = FaultEvent::Kind::BurstArrivals;
    burst.atUs = 5000;
    burst.count = 300;
    burst.durationUs = 400; // tight relative deadline
    burst.node = 7;
    burst.tenant = 3;
    plan.events.push_back(burst);
    plan.applyToTrace(trace);

    ASSERT_EQ(trace.size(), base + burst.count);
    EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end(),
                               [](const Request &a, const Request &b) {
                                   return a.arrivalUs < b.arrivalUs;
                               }));

    // The herd overwhelms a small queue: most of it is shed with
    // typed errors billed to the herd's tenant.
    ServerConfig sc;
    sc.scheduler.maxBatch = 4;
    sc.slo.queueCap = 16;
    Server server(w.graph, w.features, w.weights, sc);
    ReplayReport rep = server.runTrace(std::move(trace));
    const auto &tenants = server.stats().tenantStats();
    auto it = tenants.find(burst.tenant);
    ASSERT_NE(it, tenants.end());
    EXPECT_GT(it->second.shed() + it->second.dropped(), 0u);
    EXPECT_EQ(server.stats().strictDeadlineViolations(), 0u);
    EXPECT_LE(server.stats().maxQueueDepth(), 16u);
    EXPECT_GT(rep.rejections.size(), 0u);
}

// ------------------------------------------------------ criterion (e)

TEST(SloReplay, OverloadShedsBoundedWhileFcfsBacklogGrows)
{
    Workload w = makeWorkload(500, 67);

    // A flat service model makes the arithmetic exact: every
    // inference dispatch costs 100us regardless of composition, so
    // with maxBatch=1 the service rate is 10k rps.
    ServiceModel flat;
    flat.inferenceFixedUs = 100.0;
    flat.perTargetUs = 0.0;
    flat.perSubNodeUs = 0.0;
    flat.perSubEdgeUs = 0.0;

    // Uncontended baseline: arrivals far apart, no deadline.
    TraceConfig calm;
    calm.numInference = 200;
    calm.numUpdates = 10;
    calm.meanGapUs = 2000.0;
    calm.seed = 41;
    ServerConfig calm_sc;
    calm_sc.scheduler.maxBatch = 1;
    calm_sc.service = flat;
    calm_sc.slo.queueCap = 0; // unbounded; no contention anyway
    Server calm_server(w.graph, w.features, w.weights, calm_sc);
    ReplayReport calm_rep =
        calm_server.runTrace(makeSyntheticTrace(w.graph, calm));
    const double p99_uncontended = exactP99Us(calm_rep);
    ASSERT_GT(p99_uncontended, 0.0);

    // Overload: mean gap 25us = 40k rps arrivals, 4x the 10k rps
    // service rate. Deadline at half the uncontended p99 keeps every
    // served request's queueing delay under p99/2, so admitted p99
    // <= deadline + service < 2x uncontended p99.
    TraceConfig hot;
    hot.numInference = 1500;
    hot.numUpdates = 100;
    hot.meanGapUs = 25.0;
    hot.numTenants = 2;
    hot.deadlineUs =
        static_cast<uint64_t>(p99_uncontended / 2.0);
    hot.seed = 41;
    const std::vector<Request> overload =
        makeSyntheticTrace(w.graph, hot);

    const uint32_t cap = 32;
    ServerConfig slo_sc = calm_sc;
    slo_sc.slo.queueCap = cap;
    Server slo_server(w.graph, w.features, w.weights, slo_sc);
    ReplayReport slo_rep = slo_server.runTrace(overload);
    const ServerStats &st = slo_server.stats();

    // Shedding engages hard (at 4x overload at most ~25% of arrivals
    // can be served), queue memory stays bounded by the cap, no
    // admitted strict request starts late, and the tail of what WAS
    // admitted stays within 2x of the uncontended tail.
    EXPECT_GT(st.shedRequests() + st.expiredRequests() +
                  st.shedStaleRequests(),
              overload.size() / 2);
    EXPECT_LE(st.maxQueueDepth(), cap);
    EXPECT_EQ(st.strictDeadlineViolations(), 0u);
    const double p99_admitted = exactP99Us(slo_rep);
    EXPECT_LE(p99_admitted, 2.0 * p99_uncontended)
        << "admitted p99 " << p99_admitted << " vs uncontended "
        << p99_uncontended;

    // FCFS-without-shedding baseline: the same trace with its
    // deadlines cleared, served with no queue cap. Every request is
    // eventually served, so the waiting line at the moment the last
    // request arrives has grown far past the SLO queue cap —
    // unbounded backlog growth in request count (and memory).
    std::vector<Request> no_deadlines = overload;
    for (Request &r : no_deadlines)
        r.deadlineUs = 0;
    ServerConfig fcfs_sc;
    fcfs_sc.scheduler.maxBatch = 1;
    fcfs_sc.service = flat;
    Server fcfs_server(w.graph, w.features, w.weights, fcfs_sc);
    ReplayReport fcfs_rep = fcfs_server.runTrace(no_deadlines);
    EXPECT_EQ(fcfs_rep.inference.size() +
                  [&] {
                      uint64_t coalesced = 0;
                      for (const UpdateResult &u : fcfs_rep.updates)
                          coalesced += u.coalesced;
                      return coalesced;
                  }(),
              overload.size());
    uint64_t last_arrival = 0;
    for (const Request &r : overload)
        last_arrival = std::max(last_arrival, r.arrivalUs);
    uint64_t started_by_then = 0;
    for (const InferenceResult &r : fcfs_rep.inference)
        if (r.startUs <= last_arrival)
            started_by_then++;
    for (const UpdateResult &u : fcfs_rep.updates)
        if (u.startUs <= last_arrival)
            started_by_then++;
    const uint64_t fcfs_backlog =
        static_cast<uint64_t>(overload.size()) - started_by_then;
    EXPECT_GT(fcfs_backlog, 4u * cap)
        << "FCFS backlog " << fcfs_backlog
        << " should dwarf the SLO queue cap " << cap;
}

// ------------------------------------------- trace pattern satellites

TEST(SloTrace, TenantAndDeadlineStampsDoNotPerturbTheStream)
{
    // numTenants / deadlineUs consume no RNG draws: the arrival
    // times, kinds, targets, and edit lists are bit-identical to the
    // default trace — only the new stamps differ.
    CsrGraph g = hubAndIslandGraph({.numNodes = 300, .seed = 2}).graph;
    TraceConfig base;
    base.numInference = 400;
    base.numUpdates = 40;
    base.removeFraction = 0.3;
    base.seed = 12;
    TraceConfig stamped = base;
    stamped.numTenants = 4;
    stamped.deadlineUs = 5000;

    auto a = makeSyntheticTrace(g, base);
    auto b = makeSyntheticTrace(g, stamped);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrivalUs, b[i].arrivalUs);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_EQ(a[i].addedEdges, b[i].addedEdges);
        EXPECT_EQ(a[i].removedEdges, b[i].removedEdges);
        EXPECT_EQ(a[i].tenant, 0u);
        EXPECT_EQ(b[i].tenant, i % 4);
        EXPECT_EQ(a[i].deadlineUs, 0u);
        EXPECT_EQ(b[i].deadlineUs, b[i].arrivalUs + 5000);
    }
}

TEST(SloTrace, BurstPatternCompressesArrivalsNotContent)
{
    // The arrival pattern scales the single exponential gap draw, so
    // a burst trace has the same kinds/targets sequence as Poisson —
    // only the timestamps move — and its makespan shrinks.
    CsrGraph g = hubAndIslandGraph({.numNodes = 300, .seed = 2}).graph;
    TraceConfig tc;
    tc.numInference = 600;
    tc.numUpdates = 60;
    tc.seed = 9;
    auto poisson = makeSyntheticTrace(g, tc);
    tc.pattern = ArrivalPattern::Burst;
    auto burst = makeSyntheticTrace(g, tc);
    tc.pattern = ArrivalPattern::Diurnal;
    auto diurnal = makeSyntheticTrace(g, tc);

    ASSERT_EQ(poisson.size(), burst.size());
    ASSERT_EQ(poisson.size(), diurnal.size());
    for (size_t i = 0; i < poisson.size(); ++i) {
        EXPECT_EQ(poisson[i].kind, burst[i].kind);
        EXPECT_EQ(poisson[i].node, burst[i].node);
        EXPECT_EQ(poisson[i].kind, diurnal[i].kind);
        EXPECT_EQ(poisson[i].node, diurnal[i].node);
    }
    // Burst windows run 8x faster for 20% of each period: the mean
    // gap drops, so the same request count lands sooner.
    EXPECT_LT(burst.back().arrivalUs, poisson.back().arrivalUs);
    // Still sorted (ids are arrival-ordered).
    EXPECT_TRUE(std::is_sorted(burst.begin(), burst.end(),
                               [](const Request &x, const Request &y) {
                                   return x.arrivalUs < y.arrivalUs;
                               }));
}

TEST(SloTrace, ZipfSkewConcentratesOnHighDegreeRanks)
{
    CsrGraph g = hubAndIslandGraph({.numNodes = 500, .seed = 4}).graph;
    TraceConfig tc;
    tc.numInference = 4000;
    tc.numUpdates = 0;
    tc.zipfAlpha = 1.8;
    tc.seed = 21;
    auto trace = makeSyntheticTrace(g, tc);

    // Rank nodes by degree exactly as the generator does and measure
    // the hit share of the top 1% of ranks: a Zipf(1.8) draw puts the
    // bulk of the mass there, a uniform draw would put ~1%.
    std::vector<NodeId> by_degree(g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        by_degree[v] = v;
    std::sort(by_degree.begin(), by_degree.end(),
              [&g](NodeId a, NodeId b) {
                  if (g.degree(a) != g.degree(b))
                      return g.degree(a) > g.degree(b);
                  return a < b;
              });
    std::vector<uint32_t> rank_of(g.numNodes());
    for (size_t r = 0; r < by_degree.size(); ++r)
        rank_of[by_degree[r]] = static_cast<uint32_t>(r);

    uint64_t top1 = 0;
    const uint32_t cut = g.numNodes() / 100;
    for (const Request &r : trace) {
        ASSERT_LT(r.node, g.numNodes());
        if (rank_of[r.node] <= cut)
            top1++;
    }
    EXPECT_GT(top1, trace.size() / 3)
        << "top-1% ranks drew only " << top1 << " of "
        << trace.size();

    // strictFraction marks a deterministic subset Strict.
    tc.strictFraction = 0.3;
    auto strict_trace = makeSyntheticTrace(g, tc);
    uint64_t strict = 0;
    for (const Request &r : strict_trace)
        if (r.freshness == Freshness::Strict)
            strict++;
    EXPECT_GT(strict, trace.size() / 5);
    EXPECT_LT(strict, trace.size() / 2);
}

// ------------------------------------------------- real-time SLO path

TEST(SloRealTime, TypedSubmitAccountsEveryRequestExactlyOnce)
{
    Workload w = makeWorkload(300, 71);
    ServerConfig sc;
    sc.scheduler.maxBatch = 4;
    sc.slo.queueCap = 8;
    Server server(w.graph, w.features, w.weights, sc);
    server.start();

    uint64_t ok_inf = 0, ok_upd = 0, refused = 0;
    Rng rng(700);
    for (int i = 0; i < 300; ++i) {
        ServeResult res;
        bool was_update = false;
        if (i % 25 == 24) {
            const auto u = static_cast<NodeId>(
                rng.nextBounded(w.graph.numNodes()));
            const auto v = static_cast<NodeId>(
                rng.nextBounded(w.graph.numNodes()));
            if (u == v)
                continue;
            res = server.submitUpdate({{u, v}},
                                      {},
                                      {.tenant = 1});
            was_update = true;
        } else {
            res = server.submitInference(
                static_cast<NodeId>(
                    rng.nextBounded(w.graph.numNodes())),
                {.tenant = static_cast<uint32_t>(i % 2)});
        }
        if (res.ok()) {
            (was_update ? ok_upd : ok_inf)++;
        } else {
            refused++;
            EXPECT_TRUE(res.error == ServeError::Rejected ||
                        res.error == ServeError::Overloaded);
        }
    }
    ReplayReport rep = server.stop();

    // Typed accounting is exact: every admitted inference request is
    // answered exactly once, every admitted update is applied (or
    // coalesced) exactly once, every refusal is in the rejection log.
    uint64_t coalesced = 0;
    for (const UpdateResult &u : rep.updates)
        coalesced += u.coalesced;
    EXPECT_EQ(rep.inference.size(), ok_inf);
    EXPECT_EQ(coalesced, ok_upd);
    EXPECT_EQ(rep.rejections.size(), refused);
    EXPECT_EQ(server.stats().admittedRequests(), ok_inf + ok_upd);
    EXPECT_LE(server.stats().maxQueueDepth(), 8u);
}

} // namespace
} // namespace igcn
