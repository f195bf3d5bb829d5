/**
 * @file
 * FlatMap: the flat open-addressing hash table behind the simulator's
 * hot-path key→value stores whose population has no fixed bound: the
 * coherence directories, the first-touch page homes, the lock-resource
 * table and the schema row state. It started life inside the
 * coherence directory (mem/coherence.cc) and was extracted once the
 * db layer needed the same storage discipline. The buffer cache's
 * resident-block index, whose population the frame count bounds,
 * chains through its frame headers instead (db/buffer_cache.hh).
 *
 * Design (unchanged from the directory's original table, so the port
 * is bit-identical):
 *  - one contiguous slot array, power-of-two capacity, Fibonacci
 *    hashing (`key * 0x9e3779b97f4a7c15 >> shift`) with linear
 *    probing at a load factor kept below 7/8;
 *  - backward-shift deletion — followers of the probe chain are
 *    pulled one hole closer to their ideal slot, so there are no
 *    tombstones and probe chains never rot under churn;
 *  - zero steady-state heap allocations: growth only happens while
 *    the population reaches a new high-water mark, observable via
 *    allocations() (the perf-test hook the coherence directory
 *    exposed as tableAllocations()).
 *
 * Each slot's liveness is a one-byte flag in a parallel array rather
 * than a field of the slot, which keeps a slot at exactly
 * sizeof(Key) + sizeof(Mapped) (the directory's 16-byte packed-slot
 * property) and makes the probe scan read a dense byte vector.
 *
 * Keys must be unsigned integers that fit in 64 bits; values must be
 * trivially copyable (slots are relocated by assignment during
 * backward shifts and rehashes).
 */

#ifndef ODBSIM_SIM_FLAT_MAP_HH
#define ODBSIM_SIM_FLAT_MAP_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace odbsim::sim
{

template <typename Key, typename Mapped>
class FlatMap
{
  public:
    static_assert(std::is_integral_v<Key> && sizeof(Key) <= 8,
                  "FlatMap keys are hashed as 64-bit integers");
    static_assert(std::is_trivially_copyable_v<Mapped>,
                  "FlatMap relocates values by assignment");

    /** One stored entry; exposed for sizing static_asserts. */
    struct Slot
    {
        Key key{};
        Mapped value{};
    };

    /** Sentinel index for "not found". */
    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

    /**
     * @param min_capacity Starting slot count (power of two). The
     *        default matches the coherence directory's original table.
     *        A table whose population is known up front (a directory's
     *        resident-line bound) reserve()s it once; one without a
     *        bound starts here and doubles at each high-water mark.
     */
    explicit FlatMap(std::size_t min_capacity = 1024)
        : minCapacity_(min_capacity)
    {
        odbsim_assert(std::has_single_bit(min_capacity),
                      "flat-map capacity must be a power of two");
        rehash(min_capacity);
    }

    /** Index of @p key's slot, or npos. Never mutates. */
    std::size_t
    findIndex(Key key) const
    {
        std::size_t i = indexOf(key);
        while (live_[i]) {
            if (slots_[i].key == key)
                return i;
            i = (i + 1) & mask_;
        }
        return npos;
    }

    /** Value lookup; nullptr when absent. @{ */
    Mapped *
    find(Key key)
    {
        const std::size_t i = findIndex(key);
        return i == npos ? nullptr : &slots_[i].value;
    }
    const Mapped *
    find(Key key) const
    {
        const std::size_t i = findIndex(key);
        return i == npos ? nullptr : &slots_[i].value;
    }
    /** @} */

    /** Entry access by index (valid until the next mutation). @{ */
    Mapped &valueAt(std::size_t i) { return slots_[i].value; }
    const Mapped &valueAt(std::size_t i) const { return slots_[i].value; }
    Key keyAt(std::size_t i) const { return slots_[i].key; }
    /** @} */

    /**
     * Find @p key, inserting a default-constructed value if absent.
     * The reference is valid until the next mutation.
     */
    Mapped &
    findOrInsert(Key key)
    {
        bool inserted;
        return findOrInsert(key, inserted);
    }

    /** As above; @p inserted reports whether the entry is new. */
    Mapped &
    findOrInsert(Key key, bool &inserted)
    {
        // Keep the load factor below 7/8 so probe chains stay short
        // and an empty slot always terminates the scan. Growth only
        // triggers while the population reaches a new high-water mark.
        if ((size_ + 1) * 8 > slots_.size() * 7)
            rehash(slots_.size() * 2);

        std::size_t i = indexOf(key);
        while (live_[i]) {
            if (slots_[i].key == key) {
                inserted = false;
                return slots_[i].value;
            }
            i = (i + 1) & mask_;
        }
        slots_[i].key = key;
        slots_[i].value = Mapped{};
        live_[i] = 1;
        ++size_;
        inserted = true;
        return slots_[i].value;
    }

    /** Erase the live entry at index @p i (from findIndex). */
    void
    eraseAt(std::size_t i)
    {
        --size_;
        // Backward-shift deletion: pull every displaced follower of
        // the probe chain one hole closer to its ideal slot, leaving
        // no tombstone behind.
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask_;
            if (!live_[j])
                break;
            const std::size_t ideal = indexOf(slots_[j].key);
            if (((j - ideal) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        live_[i] = 0;
    }

    /** Erase @p key if present; @return whether an entry was erased. */
    bool
    erase(Key key)
    {
        const std::size_t i = findIndex(key);
        if (i == npos)
            return false;
        eraseAt(i);
        return true;
    }

    /**
     * Pre-size the table for @p entries so the warm-up phase does not
     * rehash. Never shrinks.
     */
    void
    reserve(std::size_t entries)
    {
        // Smallest power-of-two capacity whose 7/8 load threshold
        // admits `entries` live elements, mirroring the insert-time
        // check exactly: reserving capacity×7/8 elements must neither
        // rehash on the last insert nor round up to the next power of
        // two here.
        std::size_t cap = minCapacity_;
        if (entries > 0)
            cap = std::max(cap, std::bit_ceil((entries * 8 + 6) / 7));
        if (cap > slots_.size())
            rehash(cap);
    }

    /** Live entries. */
    std::size_t size() const { return size_; }

    /** @name Allocation observability (perf-test hook) @{ */
    /** Slots in the table (always a power of two). */
    std::size_t capacity() const { return slots_.size(); }
    /**
     * Growth events (construction, reserve() and load-driven
     * rehashes). Steady-state operation — any churn whose population
     * stays at or below the high-water mark — must not advance this.
     */
    std::uint64_t allocations() const { return allocations_; }
    /** @} */

  private:
    std::size_t
    indexOf(Key key) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >>
            shift_);
    }

    void
    rehash(std::size_t new_capacity)
    {
        odbsim_assert(std::has_single_bit(new_capacity),
                      "flat-map capacity must be a power of two");
        std::vector<Slot> old_slots = std::move(slots_);
        std::vector<std::uint8_t> old_live = std::move(live_);
        slots_.assign(new_capacity, Slot{});
        live_.assign(new_capacity, std::uint8_t{0});
        mask_ = new_capacity - 1;
        shift_ =
            64 - static_cast<unsigned>(std::countr_zero(new_capacity));
        ++allocations_;
        for (std::size_t k = 0; k < old_slots.size(); ++k) {
            if (!old_live[k])
                continue;
            std::size_t i = indexOf(old_slots[k].key);
            while (live_[i])
                i = (i + 1) & mask_;
            slots_[i] = old_slots[k];
            live_[i] = 1;
        }
    }

    std::size_t minCapacity_;
    std::vector<Slot> slots_;
    std::vector<std::uint8_t> live_; ///< 1 where slots_ holds an entry
    std::size_t mask_ = 0;           ///< capacity - 1
    unsigned shift_ = 0;             ///< 64 - log2(capacity), for the hash
    std::size_t size_ = 0;           ///< live slots
    std::uint64_t allocations_ = 0;
};

} // namespace odbsim::sim

#endif // ODBSIM_SIM_FLAT_MAP_HH
