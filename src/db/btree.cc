#include "db/btree.hh"

#include "sim/logging.hh"

namespace odbsim::db
{

ImplicitBTree::ImplicitBTree(BlockId base, std::uint64_t capacity,
                             std::uint32_t keys_per_leaf,
                             std::uint32_t fanout)
    : base_(base), capacity_(capacity), keysPerLeaf_(keys_per_leaf),
      fanout_(fanout)
{
    odbsim_assert(capacity >= 1, "btree capacity must be positive");
    odbsim_assert(keys_per_leaf >= 1 && fanout >= 2,
                  "bad btree parameters");

    std::uint64_t nodes = (capacity + keys_per_leaf - 1) / keys_per_leaf;
    unsigned lvl = 0;
    levelNodes_[lvl++] = nodes;
    while (nodes > 1) {
        odbsim_assert(lvl < maxBtreeHeight, "btree too tall; capacity ",
                      capacity);
        nodes = (nodes + fanout - 1) / fanout;
        levelNodes_[lvl++] = nodes;
    }
    height_ = lvl;

    // Lay levels out top-down so the (hot) root/internals share a
    // compact extent prefix: root first, leaves last.
    BlockId cursor = base_;
    for (unsigned l = height_; l-- > 0;) {
        levelBase_[l] = cursor;
        cursor += levelNodes_[l];
    }
    totalBlocks_ = cursor - base_;
}

IndexPath
ImplicitBTree::lookup(std::uint64_t key) const
{
    IndexPath path;
    path.height = height_;
    path.node[height_ - 1] = leafOf(key);
    path.leafSlot = static_cast<std::uint32_t>(key % keysPerLeaf_);

    // Walk up from the leaf (level 0) to the root: each parent's index
    // is its child's divided by the fanout, so level l holds the leaf
    // index divided by fanout^l.
    std::uint64_t node_idx = path.node[height_ - 1] - levelBase_[0];
    for (unsigned l = 1; l < height_; ++l) {
        node_idx /= fanout_;
        path.node[height_ - 1 - l] = levelBase_[l] + node_idx;
    }
    return path;
}

} // namespace odbsim::db
