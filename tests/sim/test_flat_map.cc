/**
 * @file
 * Tests for the flat open-addressing table: basic map semantics, the
 * index-based access used by the hot paths, reserve/allocation
 * accounting, and a differential churn test against std::unordered_map
 * covering the insert/erase mixes that exercise backward-shift
 * deletion.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "sim/flat_map.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using sim::FlatMap;

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, std::uint32_t> m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(7), nullptr);

    m.findOrInsert(7) = 42;
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 42u);
    EXPECT_EQ(m.size(), 1u);

    EXPECT_TRUE(m.erase(7));
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_FALSE(m.erase(7));
}

TEST(FlatMap, FindOrInsertValueInitializes)
{
    FlatMap<std::uint64_t, std::uint32_t> m;
    m.findOrInsert(1) = 99;
    m.erase(1);
    // A re-inserted key must not see the stale value.
    EXPECT_EQ(m.findOrInsert(1), 0u);
}

TEST(FlatMap, FindOrInsertReportsInsertion)
{
    FlatMap<std::uint64_t, std::uint32_t> m;
    bool inserted = false;
    m.findOrInsert(5, inserted) = 10;
    EXPECT_TRUE(inserted);
    EXPECT_EQ(m.findOrInsert(5, inserted), 10u);
    EXPECT_FALSE(inserted);
}

TEST(FlatMap, IndexAccessors)
{
    FlatMap<std::uint64_t, std::uint32_t> m;
    m.findOrInsert(11) = 1;
    const std::size_t i = m.findIndex(11);
    ASSERT_NE(i, (FlatMap<std::uint64_t, std::uint32_t>::npos));
    EXPECT_EQ(m.keyAt(i), 11u);
    EXPECT_EQ(m.valueAt(i), 1u);
    EXPECT_EQ(m.findIndex(12),
              (FlatMap<std::uint64_t, std::uint32_t>::npos));
    m.eraseAt(i);
    EXPECT_EQ(m.find(11), nullptr);
}

TEST(FlatMap, ReservePreventsRehash)
{
    FlatMap<std::uint64_t, std::uint32_t> m;
    m.reserve(100'000);
    const std::uint64_t allocs = m.allocations();
    for (std::uint64_t k = 0; k < 100'000; ++k)
        m.findOrInsert(k) = static_cast<std::uint32_t>(k);
    EXPECT_EQ(m.size(), 100'000u);
    EXPECT_EQ(m.allocations(), allocs);
}

/**
 * reserve() must size the table exactly as the insert-time 7/8 load
 * check demands: reserving capacity×7/8 entries lands on the exact
 * boundary (no rehash on the last insert, no over-doubling), and one
 * entry past the boundary must round up to the next power of two.
 * Regression for a reserve() that applied the load-factor check
 * before rounding up to a power of two, under-sizing the table and
 * paying one full rehash mid-warm-up.
 */
TEST(FlatMap, ReserveBoundaryIsExact)
{
    // 7/8 of 2048 = 1792: the largest population a 2048-slot table
    // admits. Reserving it must yield exactly 2048 slots...
    {
        FlatMap<std::uint64_t, std::uint32_t> m;
        m.reserve(1792);
        EXPECT_EQ(m.capacity(), 2048u);
        const std::uint64_t allocs = m.allocations();
        for (std::uint64_t k = 0; k < 1792; ++k)
            m.findOrInsert(k) = static_cast<std::uint32_t>(k);
        // ...and filling to the boundary must not rehash.
        EXPECT_EQ(m.size(), 1792u);
        EXPECT_EQ(m.capacity(), 2048u);
        EXPECT_EQ(m.allocations(), allocs);
    }
    // One entry past the boundary needs the next power of two.
    {
        FlatMap<std::uint64_t, std::uint32_t> m;
        m.reserve(1793);
        EXPECT_EQ(m.capacity(), 4096u);
        const std::uint64_t allocs = m.allocations();
        for (std::uint64_t k = 0; k < 1793; ++k)
            m.findOrInsert(k) = static_cast<std::uint32_t>(k);
        EXPECT_EQ(m.allocations(), allocs);
    }
    // reserve() never shrinks and reserve(0) keeps the minimum.
    {
        FlatMap<std::uint64_t, std::uint32_t> m;
        EXPECT_EQ(m.capacity(), 1024u);
        m.reserve(0);
        EXPECT_EQ(m.capacity(), 1024u);
        m.reserve(4000);
        EXPECT_EQ(m.capacity(), 8192u);
        m.reserve(100);
        EXPECT_EQ(m.capacity(), 8192u);
    }
}

TEST(FlatMap, GrowthAdvancesAllocationCounter)
{
    FlatMap<std::uint64_t, std::uint32_t> m; // 1024 slots minimum.
    const std::uint64_t allocs = m.allocations();
    for (std::uint64_t k = 0; k < 2000; ++k)
        m.findOrInsert(k) = 0;
    EXPECT_GT(m.allocations(), allocs);
    for (std::uint64_t k = 0; k < 2000; ++k)
        EXPECT_NE(m.find(k), nullptr) << k;
}

/**
 * Differential churn against std::unordered_map: one deterministic
 * stream of inserts, updates, erases and lookups over a bounded key
 * domain (forcing collisions, probe runs and backward-shift
 * deletions), checking lookups continuously and full contents at the
 * end.
 */
TEST(FlatMap, DifferentialChurnAgainstUnorderedMap)
{
    FlatMap<std::uint64_t, std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(2026);
    constexpr std::uint64_t domain = 4096; // ~4x the minimum capacity.

    for (int op = 0; op < 400'000; ++op) {
        const std::uint64_t k = rng.below(domain);
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2:
          case 3: { // Insert or update.
            const std::uint64_t v = rng.below(1u << 30);
            flat.findOrInsert(k) = v;
            ref[k] = v;
            break;
          }
          case 4:
          case 5:
          case 6: { // Erase (also via eraseAt to cover both paths).
            if (op & 1) {
                EXPECT_EQ(flat.erase(k), ref.erase(k) > 0);
            } else {
                const std::size_t i = flat.findIndex(k);
                const bool present = ref.erase(k) > 0;
                EXPECT_EQ(i != decltype(flat)::npos, present);
                if (i != decltype(flat)::npos)
                    flat.eraseAt(i);
            }
            break;
          }
          default: { // Lookup.
            const std::uint64_t *v = flat.find(k);
            const auto it = ref.find(k);
            ASSERT_EQ(v != nullptr, it != ref.end());
            if (v) {
                EXPECT_EQ(*v, it->second);
            }
            break;
          }
        }
        EXPECT_EQ(flat.size(), ref.size());
    }

    // Final full-content sweep.
    for (std::uint64_t k = 0; k < domain; ++k) {
        const std::uint64_t *v = flat.find(k);
        const auto it = ref.find(k);
        ASSERT_EQ(v != nullptr, it != ref.end()) << k;
        if (v) {
            EXPECT_EQ(*v, it->second) << k;
        }
    }
}

/** Erase-heavy adjacent keys: the worst case for backward-shift. */
TEST(FlatMap, DenseEraseReinsert)
{
    FlatMap<std::uint64_t, std::uint32_t> m;
    constexpr std::uint64_t n = 800; // Near the 7/8 load bound of 1024.
    for (std::uint64_t k = 0; k < n; ++k)
        m.findOrInsert(k) = static_cast<std::uint32_t>(k * 3);
    // Erase every other key, then verify the survivors are intact
    // (backward-shift must close the probe runs without losing keys).
    for (std::uint64_t k = 0; k < n; k += 2)
        EXPECT_TRUE(m.erase(k));
    for (std::uint64_t k = 0; k < n; ++k) {
        if (k & 1) {
            ASSERT_NE(m.find(k), nullptr) << k;
            EXPECT_EQ(*m.find(k), k * 3);
        } else {
            EXPECT_EQ(m.find(k), nullptr) << k;
        }
    }
    // Reinsert into the shifted table.
    for (std::uint64_t k = 0; k < n; k += 2)
        m.findOrInsert(k) = static_cast<std::uint32_t>(k * 3);
    for (std::uint64_t k = 0; k < n; ++k)
        EXPECT_EQ(*m.find(k), k * 3) << k;
    EXPECT_EQ(m.size(), n);
}

} // namespace
