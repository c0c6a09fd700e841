/**
 * @file
 * Parallel execution runtime: a reusable fixed-size thread pool with
 * static range partitioning.
 *
 * Design goals (see DESIGN.md section 3):
 *
 *  - **Static partitioning.** parallelFor() splits [begin, end) into
 *    at most numThreads() contiguous chunks, one per worker, with the
 *    same split for the same (range, thread count). A kernel that
 *    keeps per-worker partial results therefore sees a reproducible
 *    assignment: merging per-worker buffers in worker-index order
 *    replays the contributions in a fixed, input-independent order.
 *
 *  - **Caller participation.** The calling thread executes chunk 0
 *    itself, so a pool of size 1 runs the loop inline with zero
 *    synchronization — the sequential path is the parallel path at
 *    one thread, not separate code.
 *
 *  - **No nesting.** parallelFor() from inside a parallelFor() body
 *    runs the whole range inline on the calling worker (worker index
 *    0, one chunk). Nested parallelism would deadlock on the pool's
 *    single job slot; kernels parallelize exactly one loop level, and
 *    a kernel invoked from inside another parallel region degrades to
 *    its sequential form instead of aborting.
 *
 *  - **Exception transparency.** The first exception thrown by any
 *    chunk (lowest worker index wins, deterministically) is rethrown
 *    to the caller after all workers finish.
 *
 * The global pool is sized from the IGCN_THREADS environment variable
 * when set (clamped to [1, 256]), else from hardware concurrency.
 * Tests and benches resize it with setGlobalThreads().
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/thread_annotations.hpp"

namespace igcn {

/**
 * Observation hooks for the pool (DESIGN.md section 8). The runtime
 * cannot depend on src/obs/, so the dependency is inverted: obs (or
 * a bench) implements this interface and installs it with
 * setPoolObserver(). With no observer installed the pool takes no
 * timestamps and pays one relaxed atomic load per parallelFor.
 *
 * onRegion fires on the calling thread after a top-level parallelFor
 * finished (label = the innermost KernelRegion active at the call,
 * else "unlabeled"). onChunk fires on each worker's own thread right
 * after its chunk body ran — implementations must be thread-safe
 * (the obs RuntimeProfiler aggregates into sharded counters).
 * Timestamps are runtimeNowUs() microseconds.
 */
class PoolObserver
{
  public:
    virtual ~PoolObserver() = default;
    /** A top-level parallelFor region completed. */
    virtual void onRegion(const char *label, int chunks,
                          uint64_t start_us, uint64_t end_us) = 0;
    /** Worker `worker` finished its chunk of the current region. */
    virtual void onChunk(const char *label, int worker,
                         uint64_t start_us, uint64_t end_us) = 0;
};

/** Install (or, with nullptr, remove) the process-wide observer.
 *  Not safe concurrently with running kernels; call between runs. */
void setPoolObserver(PoolObserver *observer);

/** The installed observer, or nullptr. */
PoolObserver *poolObserver();

/** Monotonic microseconds since a process-local origin; the time
 *  base of every PoolObserver callback. */
uint64_t runtimeNowUs();

/**
 * RAII kernel label: parallelFor regions started while this is alive
 * on the current thread are attributed to `label` in PoolObserver
 * callbacks (innermost label wins; the label must outlive the
 * region, so pass string literals). Purely observational — no effect
 * on partitioning or execution.
 */
class KernelRegion
{
  public:
    explicit KernelRegion(const char *label);
    ~KernelRegion();

    KernelRegion(const KernelRegion &) = delete;
    KernelRegion &operator=(const KernelRegion &) = delete;

  private:
    const char *prev;
};

/** The innermost active KernelRegion label, or nullptr. */
const char *currentKernelLabel();

/** Fixed-size worker pool executing statically partitioned ranges. */
class ThreadPool
{
  public:
    /** Chunk body: (worker index, chunk begin, chunk end). */
    using RangeFn = std::function<void(int, size_t, size_t)>;

    /** Spawn a pool of num_threads workers (clamped to >= 1). */
    explicit ThreadPool(int num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int numThreads() const { return numWorkers; }

    /**
     * Run fn over [begin, end) split into contiguous per-worker
     * chunks. Blocks until every chunk finished. min_per_worker caps
     * the split so tiny ranges run on fewer workers (down to inline
     * on the caller) instead of paying wake-up latency per thread.
     * Called from inside a chunk body, the whole range runs inline on
     * the caller as worker 0 (sequential fallback, no deadlock).
     *
     * @throws whatever a chunk body threw (first worker index wins).
     */
    void parallelFor(size_t begin, size_t end, const RangeFn &fn,
                     size_t min_per_worker = 1);

    /**
     * Number of chunks parallelFor would split [begin, end) into with
     * this min_per_worker: 0 for an empty range, 1 inside a parallel
     * region (the sequential fallback), else
     * min(numThreads(), ceil(n / min_per_worker)). Kernels that keep
     * per-worker accumulators size their buffer arrays with this so
     * buffer count and chunk assignment always agree.
     */
    int planChunks(size_t begin, size_t end,
                   size_t min_per_worker = 1) const;

    /** True while the current thread executes a parallelFor chunk. */
    static bool inParallelRegion();

  private:
    void workerLoop(int worker);
    void runChunk(int chunk, int num_chunks)
        IGCN_NO_THREAD_SAFETY_ANALYSIS;

    int numWorkers = 1;
    std::vector<std::thread> threads;

    // One job at a time: parallelFor holds jobMutex for its entire
    // duration, so concurrent callers from distinct external threads
    // serialize instead of corrupting the shared job slot.
    Mutex jobMutex;

    Mutex stateMutex;
    CondVar wakeCv;
    CondVar doneCv;
    uint64_t generation IGCN_GUARDED_BY(stateMutex) = 0;
    int chunksRemaining IGCN_GUARDED_BY(stateMutex) = 0;
    bool stopping IGCN_GUARDED_BY(stateMutex) = false;

    // Current job. Written under stateMutex by parallelFor before the
    // generation bump; workers' lock-free reads in runChunk are
    // ordered by the generation/chunksRemaining handshake (runChunk
    // opts out of the analysis for exactly those reads).
    const RangeFn *jobFn IGCN_GUARDED_BY(stateMutex) = nullptr;
    size_t jobBegin IGCN_GUARDED_BY(stateMutex) = 0;
    size_t jobEnd IGCN_GUARDED_BY(stateMutex) = 0;
    int jobChunks IGCN_GUARDED_BY(stateMutex) = 0;
    // Observer + label snapshot for the current job, published with
    // the job slot so workers see a consistent pair (the global
    // observer may change between jobs, never mid-job).
    PoolObserver *jobObserver IGCN_GUARDED_BY(stateMutex) = nullptr;
    const char *jobLabel IGCN_GUARDED_BY(stateMutex) = nullptr;
    std::vector<std::exception_ptr> jobErrors
        IGCN_GUARDED_BY(stateMutex);
};

/**
 * The process-wide pool used by the parallel kernels. Created on
 * first use, sized from IGCN_THREADS (else hardware concurrency).
 */
ThreadPool &globalPool();

/**
 * Resize the global pool to n workers (n < 1 restores the default
 * sizing). Not safe concurrently with running kernels; intended for
 * tests and benches between measurements.
 */
void setGlobalThreads(int n);

/** Worker count of the global pool without forcing other defaults. */
int globalThreads();

} // namespace igcn
