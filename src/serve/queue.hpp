/**
 * @file
 * The serving queues: the thread-safe live hand-off from submitter
 * threads to the scheduler thread, and the scheduler's earliest-
 * deadline-first pool of admitted inference requests.
 *
 * Replay mode never touches RequestQueue: the driver admits straight
 * into the SloScheduler in virtual-time order.
 */

#pragma once

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "runtime/thread_annotations.hpp"
#include "serve/request.hpp"

namespace igcn::serve {

/** Thread-safe FIFO hand-off of admitted live requests. */
class RequestQueue
{
  public:
    /** Append a request (FIFO) and wake the waiter. */
    void push(Request r);

    /** Non-blocking pop of the head; false when empty. */
    bool tryPop(Request &out);

    /** Mark end-of-stream; a blocked popHead returns once drained. */
    void close();

    /**
     * Blocking pop of the head: waits until a request is queued or
     * the queue is closed. False when closed and drained.
     */
    bool popHead(Request &out);

  private:
    Mutex mutex;
    CondVar cv;
    std::deque<Request> items IGCN_GUARDED_BY(mutex);
    bool isClosed IGCN_GUARDED_BY(mutex) = false;
};

/**
 * Earliest-deadline-first pool of admitted inference requests.
 *
 * Ordering key: (deadline, priority, arrival, id) — EDF first, with
 * no-deadline requests (deadlineUs == 0) forming an arrival-ordered
 * tail after every deadlined request, and Priority breaking deadline
 * ties. The pool also carries each request's freshness requirement:
 * `requiredSeq` is the number of update requests admitted before it,
 * and the request is *eligible* once the applier has caught up to
 * within its staleness budget (0 for Freshness::Strict, the
 * configured bound for Bounded). Scheduling = pop eligible entries
 * in EDF order; requests whose deadline passes while pooled are
 * dropped and classified (Expired if they were eligible and simply
 * waited too long, ShedStale if the freshness gate was the blocker).
 *
 * Single-threaded by design: the replay loop owns one, and the
 * real-time scheduler thread owns one. Thread-safe hand-off happens
 * upstream in RequestQueue.
 */
class EdfQueue
{
  public:
    struct Entry
    {
        Request req;
        /** Update requests admitted before this one. */
        uint64_t requiredSeq = 0;
    };

    /** A dropped entry and why it was dropped. */
    struct Dropped
    {
        Entry entry;
        ServeError error = ServeError::Expired;
    };

    void add(Request r, uint64_t required_seq);

    bool empty() const { return pool.empty(); }
    size_t size() const { return pool.size(); }

    /** Earliest arrival among pooled entries (pool must be
     *  non-empty). */
    uint64_t earliestArrivalUs() const;

    /** Smallest requiredSeq among pooled entries — that of the
     *  earliest-admitted one (pool must be non-empty). */
    uint64_t minRequiredSeq() const;

    /**
     * Pop the EDF-first entry eligible at `applied_seq` updates
     * applied, under staleness bound K (Strict entries use 0).
     * False when no pooled entry is eligible.
     */
    bool popEligible(uint64_t applied_seq, uint32_t staleness_bound,
                     Entry &out);

    /**
     * Remove every entry whose nonzero deadline is < now_us and
     * classify it: Expired if it was eligible when dropped,
     * ShedStale if its freshness gate was unsatisfied.
     */
    std::vector<Dropped> dropExpired(uint64_t now_us,
                                     uint64_t applied_seq,
                                     uint32_t staleness_bound);

  private:
    struct Key
    {
        uint64_t deadline; // 0 mapped to UINT64_MAX
        uint8_t priority;
        uint64_t arrival;
        uint64_t id;
        auto operator<=>(const Key &) const = default;
    };
    static Key keyOf(const Request &r, uint64_t required_seq);
    static bool eligible(const Entry &e, uint64_t applied_seq,
                         uint32_t staleness_bound);

    std::map<Key, Entry> pool;
};

} // namespace igcn::serve
