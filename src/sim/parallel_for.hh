/**
 * @file
 * parallelFor: run independent host-side jobs, such as the points of a
 * scaling study, on a few plain threads.
 *
 * The simulator itself stays single-threaded and deterministic; this
 * only ever runs *whole* simulations side by side, never parts of one
 * simulation's event loop.
 */

#ifndef ODBSIM_SIM_PARALLEL_FOR_HH
#define ODBSIM_SIM_PARALLEL_FOR_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <numeric>
#include <thread>
#include <vector>

namespace odbsim
{

/**
 * Run fn(0) … fn(n-1) on up to @p jobs host threads and return when all
 * have finished.
 *
 * @p jobs = 0 selects std::thread::hardware_concurrency() (at least 1);
 * the worker count is then clamped to @p n, so a sweep never starts
 * more threads than it has indices. With one worker the indices run in
 * index order on the calling thread, and an exception propagates at
 * once. Otherwise workers − 1 threads and the caller claim indices from
 * one atomic counter, in index order, until none is left. A throwing
 * index does not stop the others: every index still runs, and the
 * exception of the lowest-indexed failure is rethrown after the join.
 *
 * Determinism contract: the invocations must share no mutable state
 * (each ExperimentRunner::run call builds its own machine, database and
 * workload and derives every RNG stream from its seed), and callers
 * collect results by index, never by completion order. Which thread
 * runs an index, and when, then changes no result.
 */
template <typename Fn>
void
parallelFor(unsigned jobs, std::size_t n, Fn &&fn)
{
    const std::size_t wanted =
        jobs != 0 ? jobs : std::max(1u, std::thread::hardware_concurrency());
    const std::size_t workers = std::min(wanted, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> failures(n); // slot i: index i only
    const auto work = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                failures[i] = std::current_exception();
            }
        }
    };
    {
        // jthread joins on destruction, also if starting a later
        // thread throws.
        std::vector<std::jthread> threads;
        threads.reserve(workers - 1);
        for (std::size_t t = 1; t < workers; ++t)
            threads.emplace_back(work);
        work();
    }
    for (const std::exception_ptr &failure : failures) {
        if (failure)
            std::rethrow_exception(failure);
    }
}

/**
 * parallelFor over fn(0) … fn(n-1), dispatched largest size(i) first.
 *
 * The indices are stable-sorted by descending size(i), so equal sizes
 * keep index order, and parallelFor claims them in that order; fn gets
 * the original index. When size tracks a job's cost, the longest jobs
 * start earliest and no worker is left finishing a large one alone at
 * the end (longest-processing-time-first). The order is fixed for given
 * sizes, and at one worker it is the order fn runs in on the caller.
 */
template <typename Size, typename Fn>
void
parallelForLargestFirst(unsigned jobs, std::size_t n, Size &&size, Fn &&fn)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return size(a) > size(b);
                     });
    parallelFor(jobs, n, [&](std::size_t k) { fn(order[k]); });
}

} // namespace odbsim

#endif // ODBSIM_SIM_PARALLEL_FOR_HH
