/**
 * @file
 * Tests for the scaled-tag-store memory system: sampled-line
 * compression, miss propagation, coherence integration, DMA
 * invalidation, counter attribution.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "mem/hierarchy.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::mem;

constexpr std::uint32_t S = 16;

HierarchyConfig
smallHier()
{
    HierarchyConfig h;
    h.l2 = {16 * KiB, 4, 64};
    h.l3 = {64 * KiB, 8, 64};
    return h;
}

BusConfig
quietBus()
{
    BusConfig b;
    b.windowTicks = tickPerSec; // Effectively never recompute.
    return b;
}

/** n-th sampled line address (multiples of S lines). */
Addr
sline(std::uint64_t n)
{
    return n * 64 * S;
}

TEST(MemorySystem, FirstTouchMissesEverywhere)
{
    MemorySystem ms(1, smallHier(), quietBus(), S);
    const auto res =
        ms.access(0, sline(1), AccessKind::DataRead, ExecMode::User, 0);
    EXPECT_EQ(res.servicedBy, ServicedBy::Memory);
    EXPECT_TRUE(res.l3Miss());
}

TEST(MemorySystem, RepeatHitsInL2)
{
    MemorySystem ms(1, smallHier(), quietBus(), S);
    ms.access(0, sline(1), AccessKind::DataRead, ExecMode::User, 0);
    const auto res =
        ms.access(0, sline(1), AccessKind::DataRead, ExecMode::User, 0);
    EXPECT_EQ(res.servicedBy, ServicedBy::L2);
}

TEST(MemorySystem, L2VictimStillHitsL3)
{
    MemorySystem ms(1, smallHier(), quietBus(), S);
    // L2 scaled: 16 KiB/16 = 1 KiB = 16 lines, 4 sets. Touch a line,
    // then flood its L2 set; it must still hit in the larger L3.
    ms.access(0, sline(0), AccessKind::DataRead, ExecMode::User, 0);
    for (std::uint64_t n = 1; n <= 8; ++n) {
        // Same L2 set: line index multiple of 4 (sets) in compressed
        // space -> choose sampled lines 4n.
        ms.access(0, sline(4 * n), AccessKind::DataRead, ExecMode::User,
                  0);
    }
    const auto res =
        ms.access(0, sline(0), AccessKind::DataRead, ExecMode::User, 0);
    EXPECT_EQ(res.servicedBy, ServicedBy::L3);
}

TEST(MemorySystem, SampledLinesSpreadOverAllSets)
{
    // Regression test for the compression bug: consecutive sampled
    // lines must map to consecutive cache sets, not collide in a few.
    MemorySystem ms(1, smallHier(), quietBus(), S);
    // Scaled L3 = 4 KiB = 64 lines, 8 sets x 8 ways. 64 distinct
    // sampled lines must all be resident afterwards.
    for (std::uint64_t n = 0; n < 64; ++n)
        ms.access(0, sline(n), AccessKind::DataRead, ExecMode::User, 0);
    std::uint64_t hits = 0;
    for (std::uint64_t n = 0; n < 64; ++n) {
        const auto r =
            ms.access(0, sline(n), AccessKind::DataRead, ExecMode::User,
                      0);
        hits += !r.l3Miss();
    }
    EXPECT_EQ(hits, 64u);
}

TEST(MemorySystem, CountersScaleBySampleFactor)
{
    MemorySystem ms(1, smallHier(), quietBus(), S);
    ms.access(0, sline(1), AccessKind::DataRead, ExecMode::User, 0);
    ms.access(0, sline(2), AccessKind::DataWrite, ExecMode::User, 0);
    ms.access(0, sline(3), AccessKind::CodeFetch, ExecMode::Os, 0);
    const MemCounters &u = ms.cpu(0).counters(ExecMode::User);
    const MemCounters &o = ms.cpu(0).counters(ExecMode::Os);
    EXPECT_EQ(u.dataReads, S);
    EXPECT_EQ(u.dataWrites, S);
    EXPECT_EQ(u.l3Misses, 2 * S);
    EXPECT_EQ(o.codeFetches, S);
    EXPECT_EQ(o.l3Misses, S);
}

TEST(MemorySystem, RemoteDirtyLineIsCoherenceMiss)
{
    MemorySystem ms(2, smallHier(), quietBus(), S);
    ms.access(0, sline(5), AccessKind::DataWrite, ExecMode::User, 0);
    const auto res =
        ms.access(1, sline(5), AccessKind::DataRead, ExecMode::User, 0);
    EXPECT_EQ(res.servicedBy, ServicedBy::RemoteCache);
    EXPECT_EQ(ms.cpu(1).counters(ExecMode::User).coherenceMisses, S);
}

TEST(MemorySystem, WriteInvalidatesRemoteCopies)
{
    MemorySystem ms(2, smallHier(), quietBus(), S);
    ms.access(0, sline(5), AccessKind::DataRead, ExecMode::User, 0);
    ms.access(1, sline(5), AccessKind::DataRead, ExecMode::User, 0);
    // CPU 1 writes: CPU 0's copy must be invalidated.
    ms.access(1, sline(5), AccessKind::DataWrite, ExecMode::User, 0);
    const auto res =
        ms.access(0, sline(5), AccessKind::DataRead, ExecMode::User, 0);
    EXPECT_TRUE(res.l3Miss());
}

TEST(MemorySystem, DmaFillInvalidatesCachedLines)
{
    MemorySystem ms(1, smallHier(), quietBus(), S);
    ms.access(0, sline(2), AccessKind::DataRead, ExecMode::User, 0);
    // DMA overwrites an 8 KB region containing the line.
    ms.dmaFill(0, 8192, 0);
    const auto res =
        ms.access(0, sline(2), AccessKind::DataRead, ExecMode::User, 0);
    EXPECT_TRUE(res.l3Miss());
}

TEST(MemorySystem, DmaChargesBusTraffic)
{
    BusConfig b;
    b.windowTicks = 100 * tickPerUs;
    b.ewmaAlpha = 1.0;
    MemorySystem ms(1, smallHier(), b, S);
    ms.dmaDrain(64 * 1024, 0);
    ms.bus().maybeUpdate(b.windowTicks);
    EXPECT_GT(ms.bus().utilization(), 0.0);
}

TEST(MemorySystem, ResetStatsKeepsCacheState)
{
    MemorySystem ms(1, smallHier(), quietBus(), S);
    ms.access(0, sline(9), AccessKind::DataRead, ExecMode::User, 0);
    ms.resetStats();
    EXPECT_EQ(ms.cpu(0).counters(ExecMode::User).dataReads, 0u);
    const auto res =
        ms.access(0, sline(9), AccessKind::DataRead, ExecMode::User, 0);
    EXPECT_FALSE(res.l3Miss()); // Still cached.
}

TEST(MemorySystem, TotalCountersSumModes)
{
    MemorySystem ms(1, smallHier(), quietBus(), S);
    ms.access(0, sline(1), AccessKind::DataRead, ExecMode::User, 0);
    ms.access(0, sline(2), AccessKind::DataRead, ExecMode::Os, 0);
    const MemCounters t = ms.cpu(0).totalCounters();
    EXPECT_EQ(t.dataReads, 2 * S);
    EXPECT_EQ(t.l2Accesses(), 2 * S);
}

TEST(MemorySystem, CapacityEvictionsUpdateDirectory)
{
    MemorySystem ms(2, smallHier(), quietBus(), S);
    // CPU 0 reads a line, then streams enough lines to evict it from
    // its own L3. CPU 1 writing the line afterwards must see no stale
    // sharers (no crash, no invalidation of CPU 0 needed).
    ms.access(0, sline(0), AccessKind::DataRead, ExecMode::User, 0);
    for (std::uint64_t n = 1; n <= 128; ++n)
        ms.access(0, sline(n * 8), AccessKind::DataRead, ExecMode::User,
                  0);
    ms.access(1, sline(0), AccessKind::DataWrite, ExecMode::User, 0);
    EXPECT_EQ(ms.directory().snoop(sline(0)).modifiedOwner, 1);
}

void
expectSameCounters(const MemCounters &a, const MemCounters &b)
{
    EXPECT_EQ(a.codeFetches, b.codeFetches);
    EXPECT_EQ(a.dataReads, b.dataReads);
    EXPECT_EQ(a.dataWrites, b.dataWrites);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.coherenceMisses, b.coherenceMisses);
}

TEST(MemorySystem, EpochAccessesMatchPerCallAccesses)
{
    // The batched entry point must be bit-exact versus one access()
    // call per reference: same per-access results, same counters, same
    // bus accounting — including when the advancing clock makes the
    // hoisted maybeUpdate recompute the bus window.
    BusConfig b;
    b.windowTicks = 10 * tickPerUs;
    MemorySystem plain(2, smallHier(), b, S);
    MemorySystem epoched(2, smallHier(), b, S);
    std::uint64_t x = 88172645463325252ull; // xorshift64
    for (int e = 0; e < 200; ++e) {
        const Tick now = static_cast<Tick>(e) * 3 * tickPerUs;
        const unsigned cpu = e & 1;
        const ExecMode mode = (e & 2) ? ExecMode::Os : ExecMode::User;
        auto epoch = epoched.beginEpoch(cpu, mode, now);
        for (int i = 0; i < 32; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const Addr addr = sline(x % 512);
            const AccessKind kind = (i % 5 == 0) ? AccessKind::DataWrite
                                   : (i % 5 == 1)
                                       ? AccessKind::CodeFetch
                                       : AccessKind::DataRead;
            const auto ra = plain.access(cpu, addr, kind, mode, now);
            const auto rb = epoch.access(addr, kind);
            ASSERT_EQ(ra.servicedBy, rb.servicedBy)
                << "epoch " << e << " ref " << i;
        }
    }
    for (unsigned c = 0; c < 2; ++c) {
        expectSameCounters(plain.cpu(c).counters(ExecMode::User),
                           epoched.cpu(c).counters(ExecMode::User));
        expectSameCounters(plain.cpu(c).counters(ExecMode::Os),
                           epoched.cpu(c).counters(ExecMode::Os));
    }
    plain.bus().maybeUpdate(1000 * tickPerUs);
    epoched.bus().maybeUpdate(1000 * tickPerUs);
    EXPECT_EQ(plain.bus().utilization(), epoched.bus().utilization());
    EXPECT_EQ(plain.directory().trackedLines(),
              epoched.directory().trackedLines());
}

TEST(MemorySystem, OneCpuMatchesTwoCpusWithAnIdleSecond)
{
    // One CPU must behave exactly like two CPUs whose second makes no
    // reference: the same results and counters for CPU 0, and the same
    // directory state, line by line.
    MemorySystem solo(1, smallHier(), quietBus(), S);
    MemorySystem duo(2, smallHier(), quietBus(), S);
    std::uint64_t x = 424242;
    for (int i = 0; i < 20'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr addr = sline(x % 256);
        const AccessKind kind =
            (i % 4 == 0) ? AccessKind::DataWrite : AccessKind::DataRead;
        const auto ra = solo.access(0, addr, kind, ExecMode::User, 0);
        const auto rb = duo.access(0, addr, kind, ExecMode::User, 0);
        ASSERT_EQ(ra.servicedBy, rb.servicedBy) << "ref " << i;
    }
    expectSameCounters(solo.cpu(0).counters(ExecMode::User),
                       duo.cpu(0).counters(ExecMode::User));
    ASSERT_EQ(solo.directory().trackedLines(),
              duo.directory().trackedLines());
    for (std::uint64_t n = 0; n < 256; ++n) {
        const SnoopState a = solo.directory().snoop(sline(n));
        const SnoopState b = duo.directory().snoop(sline(n));
        ASSERT_EQ(a.tracked, b.tracked) << "line " << n;
        ASSERT_EQ(a.sharers, b.sharers) << "line " << n;
        ASSERT_EQ(a.modifiedOwner, b.modifiedOwner) << "line " << n;
    }
    EXPECT_EQ(solo.cpu(0).counters(ExecMode::User).coherenceMisses, 0u);
}

TEST(MemorySystem, SingleCpuDmaInvalidationStillWorks)
{
    // Lines a single CPU filled must still be found (and dropped) by
    // DMA snoops.
    MemorySystem ms(1, smallHier(), quietBus(), S);
    ms.access(0, sline(3), AccessKind::DataWrite, ExecMode::User, 0);
    ASSERT_TRUE(ms.directory().snoop(sline(3)).tracked);
    ms.dmaFill(sline(3), 64, 0);
    EXPECT_FALSE(ms.directory().snoop(sline(3)).tracked);
    EXPECT_TRUE(ms.access(0, sline(3), AccessKind::DataRead,
                          ExecMode::User, 0)
                    .l3Miss());
}

TEST(MemorySystem, DirectoriesAreSizedForShortProbeChains)
{
    // The rule: each directory reserves four times the lines the
    // caches can keep resident, P x (scaled L2 + L3 lines), in the
    // smallest power-of-two table whose 7/8 load limit admits that many
    // entries, so its load at that population stays at or below 7/32.
    // Filling it to the population never rehashes.
    using core::MachineKind;
    for (const MachineKind kind :
         {MachineKind::XeonQuadMp, MachineKind::Itanium2Quad,
          MachineKind::CmpQuad}) {
        for (const unsigned p : {1u, 2u, 4u, 8u}) {
            // CMP's one shared L3 cannot span two sockets.
            const unsigned max_sockets =
                kind == MachineKind::CmpQuad ? 1u : 2u;
            for (unsigned sockets = 1; sockets <= max_sockets; ++sockets) {
                SCOPED_TRACE(testing::Message()
                             << core::toString(kind) << " P=" << p
                             << " sockets=" << sockets);
                const core::MachinePreset preset =
                    core::makeMachine(kind, p, S, 42);
                TopologyConfig topo = preset.sys.topology;
                topo.sockets = sockets;
                MemorySystem ms(p, preset.sys.hierarchy, preset.sys.bus,
                                preset.sys.core.samplePeriod, topo);
                const HierarchyConfig &h = preset.sys.hierarchy;
                const std::uint64_t resident =
                    p * (h.l2.numLines() + h.l3.numLines()) / S;
                for (unsigned s = 0; s < sockets; ++s) {
                    CoherenceDirectory &dir = ms.directoryAt(s);
                    const std::uint64_t cap = dir.capacity();
                    EXPECT_GE(cap * 7, 4 * resident * 8);
                    EXPECT_LT(cap / 2 * 7, 4 * resident * 8);
                    const std::uint64_t allocs = dir.tableAllocations();
                    for (std::uint64_t n = 0; n < resident; ++n)
                        dir.onFill(static_cast<unsigned>(n % p), sline(n),
                                   false);
                    EXPECT_EQ(dir.trackedLines(), resident);
                    EXPECT_EQ(dir.tableAllocations(), allocs);
                }
            }
        }
    }
}

/** Parameterized: every power-of-two sample factor behaves sanely. */
class SampleFactorProperty : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SampleFactorProperty, WorkingSetWithinScaledCacheIsRetained)
{
    const std::uint32_t s = GetParam();
    MemorySystem ms(1, smallHier(), quietBus(), s);
    const std::uint64_t lines = (64 * KiB / s) / 64; // Scaled L3 lines.
    for (std::uint64_t n = 0; n < lines; ++n)
        ms.access(0, n * 64 * s, AccessKind::DataRead, ExecMode::User, 0);
    std::uint64_t miss = 0;
    for (std::uint64_t n = 0; n < lines; ++n) {
        miss += ms.access(0, n * 64 * s, AccessKind::DataRead,
                          ExecMode::User, 0)
                    .l3Miss();
    }
    EXPECT_EQ(miss, 0u);
}

INSTANTIATE_TEST_SUITE_P(Factors, SampleFactorProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
