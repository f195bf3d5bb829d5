/**
 * @file
 * Tests for island-aware placement: CPU affinity masks must be hard
 * (pinned processes never run on excluded CPUs), ready work must queue
 * rather than spill, and pinned schedules must stay deterministic.
 */

#include <gtest/gtest.h>

#include <memory>

#include "os/system.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::os;

SystemConfig
twoSocketConfig()
{
    SystemConfig cfg;
    cfg.numCpus = 4;
    cfg.core.samplePeriod = 16;
    cfg.disks.dataDisks = 2;
    cfg.disks.logDisks = 1;
    cfg.topology.sockets = 2;
    // Short quantum so 5 ms runs see several preemption rounds.
    cfg.quantum = tickPerMs;
    return cfg;
}

/** "<prefix><i>", built by appending: gcc 12 misreads the prepend in
 *  `"q" + std::to_string(i)` as an overlapping copy (-Wrestrict). */
std::string
procName(const char *prefix, int i)
{
    std::string name = prefix;
    name += std::to_string(i);
    return name;
}

/** Runs forever in fixed-size chunks, counting its dispatches. */
class SpinProcess : public Process
{
  public:
    explicit SpinProcess(const std::string &name)
        : Process(name)
    {}

    NextAction
    next(System &) override
    {
        ++turns;
        NextAction act;
        act.work.instructions = 20'000;
        act.after = NextAction::After::Continue;
        return act;
    }

    std::uint64_t turns = 0;
};

TEST(Placement, SocketAffinityMaskCoversSocketCpus)
{
    System sys(twoSocketConfig());
    ASSERT_EQ(sys.numSockets(), 2u);
    EXPECT_EQ(sys.socketOfCpu(0), 0u);
    EXPECT_EQ(sys.socketOfCpu(1), 0u);
    EXPECT_EQ(sys.socketOfCpu(2), 1u);
    EXPECT_EQ(sys.socketOfCpu(3), 1u);
    EXPECT_EQ(sys.socketAffinityMask(0, 1), 0b0011u);
    EXPECT_EQ(sys.socketAffinityMask(1, 1), 0b1100u);
    EXPECT_EQ(sys.socketAffinityMask(0, 2), 0b1111u);
}

TEST(Placement, PinnedProcessesNeverRunOnExcludedCpus)
{
    System sys(twoSocketConfig());
    for (int i = 0; i < 4; ++i) {
        auto p =
            std::make_unique<SpinProcess>(procName("pin", i));
        p->setCpuAffinity(sys.socketAffinityMask(1, 1)); // CPUs 2, 3.
        sys.spawn(std::move(p));
    }
    sys.runFor(5 * tickPerMs);
    EXPECT_EQ(sys.sched().busyTicks(0), 0u);
    EXPECT_EQ(sys.sched().busyTicks(1), 0u);
    EXPECT_GT(sys.sched().busyTicks(2), 0u);
    EXPECT_GT(sys.sched().busyTicks(3), 0u);
}

TEST(Placement, ReadyWorkQueuesOnItsAllowedCpu)
{
    // Three spinners pinned to one CPU: all must make progress (the
    // run queue rotates through eligible processes) and only that CPU
    // may accrue busy time.
    System sys(twoSocketConfig());
    SpinProcess *procs[3];
    for (int i = 0; i < 3; ++i) {
        auto p =
            std::make_unique<SpinProcess>(procName("q", i));
        p->setCpuAffinity(1u << 1);
        procs[i] = p.get();
        sys.spawn(std::move(p));
    }
    sys.runFor(5 * tickPerMs);
    for (int i = 0; i < 3; ++i)
        EXPECT_GT(procs[i]->turns, 0u) << "process " << i;
    EXPECT_EQ(sys.sched().busyTicks(0), 0u);
    EXPECT_GT(sys.sched().busyTicks(1), 0u);
    EXPECT_EQ(sys.sched().busyTicks(2), 0u);
    EXPECT_EQ(sys.sched().busyTicks(3), 0u);
}

TEST(Placement, ExplicitFullMaskMatchesDefaultSchedule)
{
    // Pinning to "every CPU" must reproduce the default (unpinned)
    // scheduler decisions exactly — the affinity checks reduce to the
    // legacy first-idle / frontmost-ready policy when nothing is
    // excluded. Single-socket systems so only scheduling can differ.
    SystemConfig cfg = twoSocketConfig();
    cfg.topology.sockets = 1;
    System unpinned(cfg);
    System pinned(cfg);
    for (int i = 0; i < 6; ++i) {
        unpinned.spawn(
            std::make_unique<SpinProcess>(procName("p", i)));
        auto p =
            std::make_unique<SpinProcess>(procName("p", i));
        p->setCpuAffinity(0b1111u); // All four CPUs, explicitly.
        pinned.spawn(std::move(p));
    }
    unpinned.runFor(5 * tickPerMs);
    pinned.runFor(5 * tickPerMs);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(unpinned.sched().busyTicks(c),
                  pinned.sched().busyTicks(c))
            << "cpu " << c;
    EXPECT_EQ(unpinned.sched().contextSwitches(),
              pinned.sched().contextSwitches());
}

TEST(Placement, PinnedScheduleIsDeterministic)
{
    // Two identical pinned systems must agree tick for tick.
    const auto run = [](std::uint64_t &ctx, Tick (&busy)[4]) {
        System sys(twoSocketConfig());
        for (int i = 0; i < 5; ++i) {
            auto p = std::make_unique<SpinProcess>(
                procName("d", i));
            p->setCpuAffinity(
                i % 2 == 0 ? 0b0011u : 0b1100u);
            sys.spawn(std::move(p));
        }
        sys.runFor(5 * tickPerMs);
        ctx = sys.sched().contextSwitches();
        for (unsigned c = 0; c < 4; ++c)
            busy[c] = sys.sched().busyTicks(c);
    };
    std::uint64_t ctx_a = 0, ctx_b = 0;
    Tick busy_a[4], busy_b[4];
    run(ctx_a, busy_a);
    run(ctx_b, busy_b);
    EXPECT_EQ(ctx_a, ctx_b);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(busy_a[c], busy_b[c]) << "cpu " << c;
}

} // namespace
