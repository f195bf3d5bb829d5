/**
 * @file
 * Tests for the CMP shared-L3 mode: cross-core hits, on-die coherence
 * transfers, inclusive eviction, capacity sharing, and cores' private
 * L3s staying empty.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::mem;

constexpr std::uint32_t S = 16;

HierarchyConfig
cmpHier()
{
    HierarchyConfig h;
    h.l2 = {16 * KiB, 4, 64};
    h.l3 = {64 * KiB, 8, 64};
    h.sharedL3 = true;
    return h;
}

BusConfig
quietBus()
{
    BusConfig b;
    b.windowTicks = tickPerSec;
    return b;
}

Addr
sline(std::uint64_t n)
{
    return n * 64 * S;
}

TEST(SharedL3, ModeIsReported)
{
    MemorySystem cmp(4, cmpHier(), quietBus(), S);
    EXPECT_TRUE(cmp.sharedL3());
    HierarchyConfig smp = cmpHier();
    smp.sharedL3 = false;
    MemorySystem priv(4, smp, quietBus(), S);
    EXPECT_FALSE(priv.sharedL3());
}

TEST(SharedL3, CrossCoreReadHitsOnDie)
{
    MemorySystem ms(2, cmpHier(), quietBus(), S);
    // Core 0 fills the line from memory.
    EXPECT_EQ(ms.access(0, sline(3), AccessKind::DataRead,
                        ExecMode::User, 0)
                  .servicedBy,
              ServicedBy::Memory);
    // Core 1 reads: the shared L3 serves it without a bus transfer.
    EXPECT_EQ(ms.access(1, sline(3), AccessKind::DataRead,
                        ExecMode::User, 0)
                  .servicedBy,
              ServicedBy::L3);
    EXPECT_EQ(ms.cpu(1).counters(ExecMode::User).l3Misses, 0u);
}

TEST(SharedL3, PrivateModeMissesCrossCore)
{
    HierarchyConfig smp = cmpHier();
    smp.sharedL3 = false;
    MemorySystem ms(2, smp, quietBus(), S);
    ms.access(0, sline(3), AccessKind::DataRead, ExecMode::User, 0);
    // With private L3s the sibling must go to memory.
    EXPECT_EQ(ms.access(1, sline(3), AccessKind::DataRead,
                        ExecMode::User, 0)
                  .servicedBy,
              ServicedBy::Memory);
}

TEST(SharedL3, DirtyLineServedOnDieCountsAsHitm)
{
    MemorySystem ms(2, cmpHier(), quietBus(), S);
    ms.access(0, sline(5), AccessKind::DataWrite, ExecMode::User, 0);
    const auto res =
        ms.access(1, sline(5), AccessKind::DataRead, ExecMode::User, 0);
    EXPECT_EQ(res.servicedBy, ServicedBy::L3); // On-die, cheap.
    EXPECT_EQ(ms.cpu(1).counters(ExecMode::User).coherenceMisses, S);
}

TEST(SharedL3, WriteInvalidatesSiblingL2Copy)
{
    MemorySystem ms(2, cmpHier(), quietBus(), S);
    ms.access(0, sline(7), AccessKind::DataRead, ExecMode::User, 0);
    ms.access(1, sline(7), AccessKind::DataRead, ExecMode::User, 0);
    // Core 1 writes; core 0's L2 copy must be gone, but the data is
    // still on die.
    ms.access(1, sline(7), AccessKind::DataWrite, ExecMode::User, 0);
    const auto res =
        ms.access(0, sline(7), AccessKind::DataRead, ExecMode::User, 0);
    EXPECT_EQ(res.servicedBy, ServicedBy::L3);
}

TEST(SharedL3, CapacityIsShared)
{
    // Two cores streaming disjoint sets together thrash the single
    // shared L3 where private L3s would have held both.
    MemorySystem shared(2, cmpHier(), quietBus(), S);
    HierarchyConfig smp = cmpHier();
    smp.sharedL3 = false;
    MemorySystem priv(2, smp, quietBus(), S);

    // Scaled shared L3 = 64 lines. Each core streams 48 lines.
    auto stream = [](MemorySystem &ms, unsigned cpu, std::uint64_t base) {
        std::uint64_t misses = 0;
        for (int pass = 0; pass < 2; ++pass) {
            for (std::uint64_t n = 0; n < 48; ++n) {
                misses += ms.access(cpu, sline(base + n),
                                    AccessKind::DataRead,
                                    ExecMode::User, 0)
                              .l3Miss();
            }
        }
        return misses;
    };
    std::uint64_t shared_misses = 0, priv_misses = 0;
    // Interleave the two cores' streams.
    for (int rep = 0; rep < 2; ++rep) {
        shared_misses += stream(shared, 0, 0);
        shared_misses += stream(shared, 1, 1000);
        priv_misses += stream(priv, 0, 0);
        priv_misses += stream(priv, 1, 1000);
    }
    EXPECT_GT(shared_misses, priv_misses);
}

TEST(SharedL3, InclusiveEvictionRemovesL2Copies)
{
    MemorySystem ms(2, cmpHier(), quietBus(), S);
    ms.access(0, sline(0), AccessKind::DataRead, ExecMode::User, 0);
    // Stream enough lines through core 1 to evict line 0 from the
    // shared L3 entirely (64-line scaled capacity).
    for (std::uint64_t n = 1; n <= 256; ++n)
        ms.access(1, sline(n), AccessKind::DataRead, ExecMode::User, 0);
    // Core 0's next access must go to memory (its L2 copy was
    // back-invalidated with the shared-L3 eviction).
    EXPECT_EQ(ms.access(0, sline(0), AccessKind::DataRead,
                        ExecMode::User, 0)
                  .servicedBy,
              ServicedBy::Memory);
}

TEST(SharedL3, PrivateL3sStayEmpty)
{
    // A CMP core looks lines up in the shared L3, so its private L3 is
    // never filled. The memory system relies on that when it drops a
    // line from both private levels of a core: only the L2 copy can be
    // there. Seeded reads and writes from four cores over eight times
    // the shared L3's 64 scaled lines, with DMA fills mixed in, must
    // leave every private L3 empty after every step.
    MemorySystem ms(4, cmpHier(), quietBus(), S);
    Rng rng(23);
    std::uint64_t misses = 0, dma_fills = 0;
    for (int i = 0; i < 40'000; ++i) {
        const unsigned cpu = static_cast<unsigned>(rng.below(4));
        const Addr addr = sline(rng.below(512));
        if (rng.below(64) == 0) {
            ms.dmaFill(addr, 8 * KiB, 0); // Eight sampled lines.
            ++dma_fills;
        } else {
            const AccessKind kind = rng.below(4) == 0
                                        ? AccessKind::DataWrite
                                        : AccessKind::DataRead;
            misses += ms.access(cpu, addr, kind, ExecMode::User, 0)
                          .l3Miss();
        }
        for (unsigned c = 0; c < 4; ++c)
            ASSERT_EQ(ms.cpu(c).l3().validLines(), 0u)
                << "core " << c << " step " << i;
    }
    // The stream evicted from the shared L3 many times over, filled
    // every core's L2 and hit DMA.
    EXPECT_GT(misses, 10 * 64u);
    EXPECT_GT(dma_fills, 0u);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_GT(ms.cpu(c).l2().validLines(), 0u) << "core " << c;
}

} // namespace
