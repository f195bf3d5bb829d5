/**
 * @file
 * Tests for the sharer/owner coherence directory.
 */

#include <gtest/gtest.h>

#include <bit>

#include "mem/coherence.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::mem;

constexpr Addr line = 0x1000;

TEST(CoherenceDirectory, ReadFillHasNoRemoteEffects)
{
    CoherenceDirectory dir(4);
    const auto out = dir.onFill(0, line, false);
    EXPECT_FALSE(out.remoteDirty);
    EXPECT_EQ(out.invalidateMask, 0u);
    EXPECT_EQ(dir.trackedLines(), 1u);
}

TEST(CoherenceDirectory, SharedReadersAccumulate)
{
    CoherenceDirectory dir(4);
    dir.onFill(0, line, false);
    dir.onFill(1, line, false);
    dir.onFill(2, line, false);
    const SnoopState s = dir.snoop(line);
    EXPECT_TRUE(s.tracked);
    EXPECT_EQ(s.sharers, 0b111u);
    EXPECT_EQ(s.modifiedOwner, -1);
}

TEST(CoherenceDirectory, WriteFillInvalidatesSharers)
{
    CoherenceDirectory dir(4);
    dir.onFill(0, line, false);
    dir.onFill(1, line, false);
    const auto out = dir.onFill(2, line, true);
    EXPECT_EQ(out.invalidateMask, 0b011u);
    EXPECT_FALSE(out.remoteDirty);
    const SnoopState s = dir.snoop(line);
    EXPECT_EQ(s.sharers, 0b100u);
    EXPECT_EQ(s.modifiedOwner, 2);
    EXPECT_EQ(dir.invalidationsSent(), 2u);
}

TEST(CoherenceDirectory, WritesCountEveryRemoteSharerOfAFullMask)
{
    // Sharer masks over all 32 CPUs: the invalidation count of a write
    // fill or write hit is the popcount of the other sharers.
    CoherenceDirectory dir(maxCoherentCpus);
    Rng rng(32);
    std::uint64_t want = 0;
    for (Addr k = 0; k < 2000; ++k) {
        const Addr l = 0x40000 + k * 64;
        const auto mask = static_cast<std::uint32_t>(
            k == 0 ? ~0ull : k == 1 ? 0ull : rng.next());
        for (unsigned c = 0; c < maxCoherentCpus; ++c) {
            if (mask >> c & 1)
                dir.onFill(c, l, false);
        }
        const auto writer = static_cast<unsigned>(k % maxCoherentCpus);
        const std::uint32_t remote = mask & ~(1u << writer);
        want += std::popcount(remote);
        if (k % 2 == 0) {
            EXPECT_EQ(dir.onFill(writer, l, true).invalidateMask, remote);
        } else {
            EXPECT_EQ(dir.onWriteHit(writer, l), remote);
        }
        ASSERT_EQ(dir.invalidationsSent(), want) << "line " << k;
    }
}

TEST(CoherenceDirectory, RemoteDirtyReadIsCoherenceMiss)
{
    CoherenceDirectory dir(4);
    dir.onFill(0, line, true); // CPU 0 owns modified.
    const auto out = dir.onFill(1, line, false);
    EXPECT_TRUE(out.remoteDirty);
    EXPECT_EQ(out.remoteOwner, 0u);
    EXPECT_EQ(dir.coherenceMisses(), 1u);
    // The read downgraded the line to shared.
    EXPECT_EQ(dir.snoop(line).modifiedOwner, -1);
}

TEST(CoherenceDirectory, RemoteDirtyWriteTransfersOwnership)
{
    CoherenceDirectory dir(4);
    dir.onFill(0, line, true);
    const auto out = dir.onFill(1, line, true);
    EXPECT_TRUE(out.remoteDirty);
    EXPECT_EQ(out.remoteOwner, 0u);
    EXPECT_EQ(out.invalidateMask, 0b001u);
    EXPECT_EQ(dir.snoop(line).modifiedOwner, 1);
}

TEST(CoherenceDirectory, OwnFillIsNotCoherenceMiss)
{
    CoherenceDirectory dir(4);
    dir.onFill(0, line, true);
    const auto out = dir.onFill(0, line, true);
    EXPECT_FALSE(out.remoteDirty);
    EXPECT_EQ(dir.coherenceMisses(), 0u);
}

TEST(CoherenceDirectory, WriteHitUpgradesAndInvalidates)
{
    CoherenceDirectory dir(4);
    dir.onFill(0, line, false);
    dir.onFill(1, line, false);
    const std::uint32_t mask = dir.onWriteHit(0, line);
    EXPECT_EQ(mask, 0b010u);
    EXPECT_EQ(dir.snoop(line).modifiedOwner, 0);
}

TEST(CoherenceDirectory, EvictionRemovesSharer)
{
    CoherenceDirectory dir(4);
    dir.onFill(0, line, false);
    dir.onFill(1, line, false);
    dir.onEviction(0, line);
    EXPECT_EQ(dir.snoop(line).sharers, 0b010u);
    dir.onEviction(1, line);
    // Last sharer gone: entry reclaimed.
    EXPECT_FALSE(dir.snoop(line).tracked);
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(CoherenceDirectory, EvictionOfModifiedOwnerClearsOwnership)
{
    CoherenceDirectory dir(4);
    dir.onFill(0, line, true);
    dir.onEviction(0, line);
    EXPECT_FALSE(dir.snoop(line).tracked);
    // Subsequent read fill is an ordinary miss.
    EXPECT_FALSE(dir.onFill(1, line, false).remoteDirty);
}

TEST(CoherenceDirectory, DmaFillDropsTheLine)
{
    CoherenceDirectory dir(4);
    dir.onFill(0, line, true);
    dir.onDmaFill(line);
    EXPECT_FALSE(dir.snoop(line).tracked);
}

TEST(CoherenceDirectory, EvictionOfUntrackedLineIsNoop)
{
    CoherenceDirectory dir(4);
    dir.onEviction(3, 0xdead000);
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(CoherenceDirectory, StatsReset)
{
    CoherenceDirectory dir(2);
    dir.onFill(0, line, true);
    dir.onFill(1, line, true);
    EXPECT_GT(dir.coherenceMisses() + dir.invalidationsSent(), 0u);
    dir.resetStats();
    EXPECT_EQ(dir.coherenceMisses(), 0u);
    EXPECT_EQ(dir.invalidationsSent(), 0u);
    // State survives a stats reset.
    EXPECT_TRUE(dir.snoop(line).tracked);
}

} // namespace
