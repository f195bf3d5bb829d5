/**
 * @file
 * Implicit B-tree index: the node structure is computed from the key
 * domain rather than materialized. Given a capacity, keys-per-leaf and
 * fanout, every level's node count and block extent are fixed, and a
 * lookup deterministically yields the root-to-leaf path of block ids.
 *
 * This keeps 800-warehouse schemas (10M+ blocks) in O(1) memory while
 * the buffer cache and CPU caches still see the *real* block addresses
 * an index traversal touches — upper levels are shared and hot, leaves
 * are as cold as their key range.
 */

#ifndef ODBSIM_DB_BTREE_HH
#define ODBSIM_DB_BTREE_HH

#include <cstdint>

#include "db/types.hh"
#include "sim/logging.hh"

namespace odbsim::db
{

/** Maximum supported tree height (root..leaf). */
constexpr unsigned maxBtreeHeight = 5;

/** Root-to-leaf path of block ids. */
struct IndexPath
{
    BlockId node[maxBtreeHeight] = {};
    unsigned height = 0;
    /** Key slot within the leaf. */
    std::uint32_t leafSlot = 0;

    BlockId leaf() const { return node[height - 1]; }
};

/**
 * A computed (non-materialized) B-tree over the key domain
 * [0, capacity).
 */
class ImplicitBTree
{
  public:
    /**
     * @param base First block id of the index extent.
     * @param capacity Maximum number of keys.
     * @param keys_per_leaf Leaf occupancy.
     * @param fanout Internal-node fanout.
     */
    ImplicitBTree(BlockId base, std::uint64_t capacity,
                  std::uint32_t keys_per_leaf, std::uint32_t fanout);

    /** Blocks consumed by the whole index extent. */
    std::uint64_t blocksUsed() const { return totalBlocks_; }

    /** Levels including the leaf level. */
    unsigned height() const { return height_; }

    std::uint64_t capacity() const { return capacity_; }

    /** Compute the root-to-leaf path for @p key (< capacity). */
    IndexPath lookup(std::uint64_t key) const;

    /** The leaf holding @p key (< capacity): lookup(key).leaf()
     *  without the upper levels. */
    BlockId
    leafOf(std::uint64_t key) const
    {
        odbsim_assert(key < capacity_, "btree key ", key,
                      " out of range (capacity ", capacity_, ")");
        return levelBase_[0] + key / keysPerLeaf_;
    }

    /** Nodes at @p level (0 = leaves). */
    std::uint64_t levelNodes(unsigned level) const
    {
        return levelNodes_[level];
    }

    /** First block of @p level's extent (0 = leaves). */
    BlockId levelBase(unsigned level) const { return levelBase_[level]; }

  private:
    BlockId base_;
    std::uint64_t capacity_;
    std::uint32_t keysPerLeaf_;
    std::uint32_t fanout_;
    unsigned height_ = 0;
    /** Node count per level; level 0 = leaves. */
    std::uint64_t levelNodes_[maxBtreeHeight] = {};
    /** First block of each level's extent (level 0 = leaves). */
    BlockId levelBase_[maxBtreeHeight] = {};
    std::uint64_t totalBlocks_ = 0;
};

} // namespace odbsim::db

#endif // ODBSIM_DB_BTREE_HH
