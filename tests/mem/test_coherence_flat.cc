/**
 * @file
 * Tests for the flat open-addressing storage behind the coherence
 * directory: differential churn against a node-based reference model
 * (covering the backward-shift deletion path), steady-state allocation
 * behaviour and reserve().
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/coherence.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::mem;

/**
 * Executable spec of the directory semantics over std::unordered_map —
 * the storage the flat table replaced. Every transition mirrors
 * CoherenceDirectory's documented behaviour; the differential tests
 * below drive both through identical operation streams and require
 * identical observables.
 */
class ReferenceDirectory
{
  public:
    CoherenceOutcome
    onFill(unsigned cpu, Addr line, bool is_write)
    {
        CoherenceOutcome out;
        Entry &e = lines_[line];
        const std::uint32_t self = 1u << cpu;
        if (e.owner >= 0 && static_cast<unsigned>(e.owner) != cpu) {
            out.remoteDirty = true;
            out.remoteOwner = static_cast<unsigned>(e.owner);
            ++coherenceMisses_;
        }
        if (is_write) {
            const std::uint32_t remote = e.sharers & ~self;
            out.invalidateMask = remote;
            invalidations_ += std::popcount(remote);
            e.sharers = self;
            e.owner = static_cast<int>(cpu);
        } else {
            if (out.remoteDirty)
                e.owner = -1;
            e.sharers |= self;
        }
        return out;
    }

    std::uint32_t
    onWriteHit(unsigned cpu, Addr line)
    {
        Entry &e = lines_[line];
        const std::uint32_t self = 1u << cpu;
        const std::uint32_t remote = e.sharers & ~self;
        invalidations_ += std::popcount(remote);
        e.sharers = self;
        e.owner = static_cast<int>(cpu);
        return remote;
    }

    SnoopState
    snoop(Addr line) const
    {
        auto it = lines_.find(line);
        if (it == lines_.end())
            return SnoopState{};
        return SnoopState{true, it->second.sharers,
                          static_cast<std::int16_t>(it->second.owner)};
    }

    void
    onEviction(unsigned cpu, Addr line)
    {
        auto it = lines_.find(line);
        if (it == lines_.end())
            return;
        Entry &e = it->second;
        e.sharers &= ~(1u << cpu);
        if (e.owner >= 0 && static_cast<unsigned>(e.owner) == cpu)
            e.owner = -1;
        if (e.sharers == 0 && e.owner < 0)
            lines_.erase(it);
    }

    void onDmaFill(Addr line) { lines_.erase(line); }

    std::size_t trackedLines() const { return lines_.size(); }
    std::uint64_t coherenceMisses() const { return coherenceMisses_; }
    std::uint64_t invalidationsSent() const { return invalidations_; }

    /** Keys currently tracked (for exhaustive state comparison). */
    std::vector<Addr>
    keys() const
    {
        std::vector<Addr> out;
        out.reserve(lines_.size());
        for (const auto &kv : lines_)
            out.push_back(kv.first);
        return out;
    }

  private:
    struct Entry
    {
        std::uint32_t sharers = 0;
        int owner = -1;
    };

    std::unordered_map<Addr, Entry> lines_;
    std::uint64_t coherenceMisses_ = 0;
    std::uint64_t invalidations_ = 0;
};

void
expectSameSnoop(const CoherenceDirectory &flat,
                const ReferenceDirectory &ref, Addr line)
{
    const SnoopState a = flat.snoop(line);
    const SnoopState b = ref.snoop(line);
    ASSERT_EQ(a.tracked, b.tracked) << "line " << line;
    ASSERT_EQ(a.sharers, b.sharers) << "line " << line;
    ASSERT_EQ(a.modifiedOwner, b.modifiedOwner) << "line " << line;
}

/** Full observable-state comparison: counters plus every tracked line. */
void
expectSameState(const CoherenceDirectory &flat,
                const ReferenceDirectory &ref)
{
    ASSERT_EQ(flat.trackedLines(), ref.trackedLines());
    ASSERT_EQ(flat.coherenceMisses(), ref.coherenceMisses());
    ASSERT_EQ(flat.invalidationsSent(), ref.invalidationsSent());
    for (const Addr line : ref.keys())
        expectSameSnoop(flat, ref, line);
}

/**
 * Randomized churn over both implementations: per-op outcome equality,
 * periodic and final full-state equality. The footprint is small
 * relative to the op count so lines are repeatedly created, mutated
 * and destroyed — the mix is deliberately deletion-heavy (evictions,
 * DMA fills) to exercise backward-shift deletion inside long probe
 * chains.
 */
TEST(CoherenceFlatTable, DifferentialChurnMatchesReferenceModel)
{
    CoherenceDirectory flat(4);
    ReferenceDirectory ref;
    Rng rng(97);
    constexpr std::uint64_t footprint = 4096;
    constexpr int ops = 200'000;
    for (int i = 0; i < ops; ++i) {
        const Addr line = rng.below(footprint) * 64;
        const unsigned cpu = static_cast<unsigned>(rng.below(4));
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2: {
            const auto a = flat.onFill(cpu, line, false);
            const auto b = ref.onFill(cpu, line, false);
            ASSERT_EQ(a.remoteDirty, b.remoteDirty);
            ASSERT_EQ(a.invalidateMask, b.invalidateMask);
            if (a.remoteDirty) {
                ASSERT_EQ(a.remoteOwner, b.remoteOwner);
            }
            break;
          }
          case 3:
          case 4: {
            const auto a = flat.onFill(cpu, line, true);
            const auto b = ref.onFill(cpu, line, true);
            ASSERT_EQ(a.remoteDirty, b.remoteDirty);
            ASSERT_EQ(a.invalidateMask, b.invalidateMask);
            break;
          }
          case 5:
            ASSERT_EQ(flat.onWriteHit(cpu, line),
                      ref.onWriteHit(cpu, line));
            break;
          case 6:
          case 7:
          case 8:
            flat.onEviction(cpu, line);
            ref.onEviction(cpu, line);
            break;
          default:
            flat.onDmaFill(line);
            ref.onDmaFill(line);
            break;
        }
        if (i % 20'000 == 0)
            expectSameState(flat, ref);
    }
    expectSameState(flat, ref);
}

/**
 * Dense sequential insertion then interleaved deletion: adjacent keys
 * hash to adjacent slots under Fibonacci hashing, so deleting every
 * other one forces backward shifts through occupied runs.
 */
TEST(CoherenceFlatTable, InterleavedDeletionKeepsProbeChainsIntact)
{
    CoherenceDirectory flat(2);
    ReferenceDirectory ref;
    constexpr std::uint64_t n = 2048;
    for (std::uint64_t k = 0; k < n; ++k) {
        flat.onFill(0, k * 64, (k & 3) == 0);
        ref.onFill(0, k * 64, (k & 3) == 0);
    }
    for (std::uint64_t k = 0; k < n; k += 2) {
        flat.onDmaFill(k * 64);
        ref.onDmaFill(k * 64);
    }
    expectSameState(flat, ref);
    for (std::uint64_t k = 0; k < n; ++k)
        expectSameSnoop(flat, ref, k * 64);
}

TEST(CoherenceFlatTable, SteadyStateChurnDoesNotAllocate)
{
    CoherenceDirectory dir(4);
    Rng rng(7);
    constexpr std::uint64_t footprint = 1024;
    // Warm up: reach the high-water population once.
    for (std::uint64_t k = 0; k < footprint; ++k)
        dir.onFill(static_cast<unsigned>(k & 3), k * 64, false);
    const std::uint64_t allocs = dir.tableAllocations();
    ASSERT_GT(allocs, 0u);
    // Steady state: heavy create/mutate/destroy churn that never
    // exceeds the high-water mark must perform zero heap allocations.
    for (int i = 0; i < 100'000; ++i) {
        const Addr line = rng.below(footprint) * 64;
        const unsigned cpu = static_cast<unsigned>(rng.below(4));
        switch (rng.below(4)) {
          case 0:
            dir.onFill(cpu, line, true);
            break;
          case 1:
            dir.onWriteHit(cpu, line);
            break;
          case 2:
            dir.onEviction(cpu, line);
            break;
          default:
            dir.onDmaFill(line);
            break;
        }
    }
    EXPECT_EQ(dir.tableAllocations(), allocs);
}

TEST(CoherenceFlatTable, ReservePreallocatesTheWarmupPopulation)
{
    CoherenceDirectory dir(2);
    dir.reserve(20'000);
    EXPECT_GE(dir.capacity(), 20'000u);
    const std::uint64_t allocs = dir.tableAllocations();
    for (std::uint64_t k = 0; k < 20'000; ++k)
        dir.onFill(0, k * 64, false);
    EXPECT_EQ(dir.trackedLines(), 20'000u);
    // Filling up to the reserved population never rehashes.
    EXPECT_EQ(dir.tableAllocations(), allocs);
}

TEST(CoherenceFlatTable, GrowthPreservesAllEntries)
{
    CoherenceDirectory dir(4);
    constexpr std::uint64_t n = 100'000; // Far past minCapacity.
    for (std::uint64_t k = 0; k < n; ++k)
        dir.onFill(static_cast<unsigned>(k & 3), k * 64, (k & 7) == 0);
    EXPECT_EQ(dir.trackedLines(), n);
    for (std::uint64_t k = 0; k < n; ++k) {
        const SnoopState s = dir.snoop(k * 64);
        ASSERT_TRUE(s.tracked) << "line " << k * 64;
        ASSERT_EQ(s.sharers, 1u << (k & 3));
    }
}

} // namespace
