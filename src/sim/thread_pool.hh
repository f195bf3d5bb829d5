/**
 * @file
 * A work-stealing worker pool for running independent host-side tasks —
 * the execution engine behind parallel scaling studies and intra-point
 * parallelism (per-seed repeat replicas).
 * The simulator itself stays single-threaded and deterministic; the
 * pool only ever runs *self-contained* jobs concurrently, never parts
 * of one simulation's event loop.
 *
 * Pool v2 design:
 *  - Each worker owns a Chase–Lev-style deque: the owner pushes and
 *    pops at the bottom (LIFO, cache-warm), idle workers steal from
 *    the top (FIFO, oldest first). All index/cell accesses are C++
 *    atomics (no standalone fences), so the implementation is exactly
 *    as TSan models it.
 *  - External submit() lands in a global injection queue (two bands:
 *    TaskPriority::High drains before Normal); workers prefer their
 *    local deque, then injection, then stealing.
 *  - Nested submission: a task already running on a worker may call
 *    parallelFor() on its own pool without deadlock. The calling
 *    worker claims loop indices inline and then *helps* — draining its
 *    deque, the injection queue, and stealing from peers — until the
 *    nested job completes. External callers block on a condition
 *    variable instead.
 *  - Optional CPU-affinity pinning (ThreadPoolConfig::pinThreads) pins
 *    worker i to cpu i mod hardware_concurrency on Linux.
 *
 * Determinism contract (unchanged from pool v1): tasks must not share
 * mutable state (each ExperimentRunner::run call builds its own
 * System/Database/Workload and derives every RNG stream from the
 * per-run seed), so any interleaving of task execution produces
 * bit-identical results. Callers that need ordered output must collect
 * results by task index, not completion order — see ScalingStudy::run
 * and repeatRun. Stealing changes *which thread* runs an index, never
 * the result collected for it.
 */

#ifndef ODBSIM_SIM_THREAD_POOL_HH
#define ODBSIM_SIM_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace odbsim
{

/** Scheduling band for externally submitted tasks. */
enum class TaskPriority { Normal, High };

/** Construction options for ThreadPool. */
struct ThreadPoolConfig
{
    /** Worker count; 0 selects hardware_concurrency() (at least 1). */
    unsigned threads = 0;
    /** Pin worker i to cpu (i mod ncpu); Linux only, best effort. */
    bool pinThreads = false;
};

/**
 * Work-stealing thread pool.
 *
 * Workers are started in the constructor and joined in shutdown() (or
 * the destructor); the pool is reusable across any number of
 * submit()/parallelFor() rounds. Submitting from multiple threads is
 * safe; submitting after shutdown() is a fatal usage error
 * (odbsim_fatal), not an exception.
 */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers.
     *
     * @param threads Worker count; 0 selects
     *        std::thread::hardware_concurrency() (at least 1).
     */
    explicit ThreadPool(unsigned threads = 0)
        : ThreadPool(ThreadPoolConfig{threads, false})
    {
    }

    /** Start workers per @p cfg (count, pinning). */
    explicit ThreadPool(const ThreadPoolConfig &cfg);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Completes all pending tasks, then joins workers. */
    ~ThreadPool();

    /**
     * Complete all pending tasks and join the workers. Idempotent;
     * called implicitly by the destructor. After shutdown() any
     * submit()/parallelFor() is a fatal error.
     */
    void shutdown();

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * The pool whose worker is executing the calling thread's current
     * task, or nullptr if the caller is not a pool worker. Lets nested
     * code (repeatRun) fan out on the pool it is already running on
     * instead of spawning a transient pool.
     */
    static ThreadPool *current();

    /**
     * Enqueue @p fn for execution on a worker.
     *
     * Called from outside the pool, the task lands in the global
     * injection queue in the given priority band; called from a worker
     * of this pool, it is pushed onto that worker's local deque (LIFO)
     * where peers can steal it.
     *
     * @return A future for fn's result; exceptions thrown by fn are
     *         captured and rethrown from future::get().
     */
    template <typename F>
    auto
    submit(TaskPriority prio, F &&fn)
        -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using Ret = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<Ret()>>(
            std::forward<F>(fn));
        std::future<Ret> result = task->get_future();
        submitTask(new Task([task] { (*task)(); }), prio);
        return result;
    }

    /** submit() at TaskPriority::Normal. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        return submit(TaskPriority::Normal, std::forward<F>(fn));
    }

    /**
     * Run fn(0) … fn(n-1) on the pool and block until all complete.
     *
     * Tasks may run in any order and concurrently; indices provide the
     * deterministic identity for collecting results. If one or more
     * invocations throw, every index is still executed (no partial
     * cancellation) and the exception of the lowest-indexed failing
     * task is rethrown here.
     *
     * May be called from inside a task running on this pool: the
     * calling worker executes indices inline and helps run other
     * pending tasks while waiting, so nested fan-out cannot deadlock
     * even on a single-worker pool.
     */
    template <typename Fn>
    void
    parallelFor(std::size_t n, Fn &&fn)
    {
        if (n == 0)
            return;
        if (n == 1) {
            fn(std::size_t{0});
            return;
        }
        parallelForImpl(n, std::function<void(std::size_t)>(
                               std::forward<Fn>(fn)));
    }

  private:
    /** Type-erased unit of work, heap-owned while queued. */
    using Task = std::function<void()>;

    /**
     * Chase–Lev work-stealing deque of Task*. The owning worker
     * push()es and pop()s at the bottom; any other thread steal()s at
     * the top. Implemented with seq_cst atomics throughout (hot enough
     * for host-side jobs, and free of the standalone fences TSan
     * cannot model). Retired grow arrays are kept alive until the
     * deque is destroyed so in-flight steals never dangle.
     */
    class StealDeque
    {
      public:
        explicit StealDeque(std::size_t capacity = 64);
        ~StealDeque();

        void push(Task *t); //!< owner only
        Task *pop();        //!< owner only
        Task *steal();      //!< any thread

      private:
        struct Array
        {
            explicit Array(std::size_t c) : cap(c), mask(c - 1), cells(c) {}
            std::size_t cap;
            std::size_t mask;
            std::vector<std::atomic<Task *>> cells;
        };

        Array *grow(Array *a, std::int64_t top, std::int64_t bottom);

        std::atomic<std::int64_t> top_{0};
        std::atomic<std::int64_t> bottom_{0};
        std::atomic<Array *> array_{nullptr};
        std::unique_ptr<Array> current_;              // owner-managed
        std::vector<std::unique_ptr<Array>> retired_; // owner-managed
    };

    /** Shared state of one parallelFor job (heap-held so stale runner
     *  tasks left in a deque after completion stay harmless). */
    struct ForState
    {
        std::size_t n = 0;
        std::function<void(std::size_t)> body;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::mutex m;
        std::condition_variable cv;
        std::exception_ptr exc;
        std::size_t excIdx = 0;
    };

    void parallelForImpl(std::size_t n, std::function<void(std::size_t)> fn);
    void submitTask(Task *t, TaskPriority prio);
    void signalWork(bool all);
    Task *findTask(unsigned self);
    Task *popInjectionLocked();
    void runTask(Task *t);
    void runLoop(const std::shared_ptr<ForState> &st);
    void helpUntilDone(const std::shared_ptr<ForState> &st, unsigned self);
    void workerLoop(unsigned id);

    ThreadPoolConfig cfg_;
    std::vector<std::unique_ptr<StealDeque>> deques_;
    std::vector<std::thread> workers_;

    std::mutex injMutex_;
    std::condition_variable cv_;
    std::deque<Task *> injHigh_;
    std::deque<Task *> injNormal_;
    std::uint64_t wakeEpoch_ = 0;
    bool stop_ = false;
    bool joined_ = false;
};

/**
 * Run fn(0) … fn(n-1) with host-side parallelism @p jobs, reusing the
 * caller's pool when already on one.
 *
 *  - n <= 1: runs inline.
 *  - jobs == 1: plain serial loop (the structurally-inert default).
 *  - already on a pool worker: nested parallelFor on that pool (the
 *    worker helps, so this composes with ScalingStudy's outer fan-out
 *    without oversubscribing).
 *  - otherwise: a transient pool of min(jobs, n) workers, where
 *    jobs == 0 selects hardware_concurrency().
 *
 * The index-identity determinism contract of ThreadPool::parallelFor
 * applies unchanged.
 */
template <typename Fn>
void
hostParallelFor(unsigned jobs, std::size_t n, Fn &&fn)
{
    if (n == 0)
        return;
    if (n == 1) {
        fn(std::size_t{0});
        return;
    }
    if (jobs == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if (ThreadPool *pool = ThreadPool::current()) {
        pool->parallelFor(n, std::forward<Fn>(fn));
        return;
    }
    unsigned want = jobs;
    if (want == 0) {
        want = std::thread::hardware_concurrency();
        if (want == 0)
            want = 1;
    }
    want = static_cast<unsigned>(
        std::min<std::size_t>(want, n));
    if (want <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(want);
    pool.parallelFor(n, std::forward<Fn>(fn));
}

} // namespace odbsim

#endif // ODBSIM_SIM_THREAD_POOL_HH
