/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths: the
 * set-associative tag store, the buffer cache, implicit B-tree
 * lookups, the event queue, and the regression fits.
 */

#include <benchmark/benchmark.h>

#include "analysis/piecewise.hh"
#include "db/btree.hh"
#include "db/buffer_cache.hh"
#include "mem/cache.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "support/bench_common.hh"

namespace
{

using namespace odbsim;

void
BM_CacheAccess(benchmark::State &state)
{
    mem::SetAssocCache cache("bench",
                             mem::CacheGeometry{64 * KiB, 8, 64});
    Rng rng(1);
    const std::uint64_t footprint = state.range(0);
    for (auto _ : state) {
        const Addr addr = rng.below(footprint) * 64;
        benchmark::DoNotOptimize(cache.access(addr, false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(512)->Arg(4096)->Arg(65536);

void
BM_BufferCacheLookup(benchmark::State &state)
{
    db::BufferCache bc(100000);
    for (db::BlockId b = 0; b < 100000; ++b)
        bc.prefill(b);
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(bc.lookup(rng.below(100000)).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferCacheLookup);

void
BM_BufferCacheMissEvict(benchmark::State &state)
{
    db::BufferCache bc(4096);
    Rng rng(3);
    db::BlockId next = 0;
    for (auto _ : state) {
        const auto v = bc.allocate(1000000 + next++);
        bc.fillComplete(v.frame);
        benchmark::DoNotOptimize(v.frame);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferCacheMissEvict);

void
BM_BTreeLookup(benchmark::State &state)
{
    db::ImplicitBTree tree(0, 24000000, 300, 250);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.lookup(rng.below(24000000)).leaf());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void
BM_EventQueueChurn(benchmark::State &state)
{
    EventQueue eq;
    Rng rng(5);
    // Keep a rolling population of pending events.
    for (int i = 0; i < 256; ++i)
        eq.schedule(rng.below(1000), [] {});
    for (auto _ : state) {
        eq.scheduleAfter(rng.below(1000) + 1, [] {});
        eq.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn);

void
BM_PiecewiseFit(benchmark::State &state)
{
    std::vector<double> xs, ys;
    Rng rng(6);
    for (double x : {10., 25., 35., 50., 75., 100., 150., 200., 300.,
                     400., 600., 800.}) {
        xs.push_back(x);
        ys.push_back(x < 100 ? 2 + 0.02 * x
                             : 4 + 0.001 * (x - 100) +
                                   rng.normal(0, 0.01));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::fitTwoSegment(xs, ys).pivotX);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiecewiseFit);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

} // namespace

int
main(int argc, char **argv)
{
    // Shared bench knobs first (--jobs/--csv-dir/... are not google-
    // benchmark flags, so they must be consumed before Initialize —
    // and unrecognized leftovers are tolerated, not fatal).
    odbsim::bench::parseArgs(argc, argv);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
