/**
 * @file
 * Island-aware process placement policies for multi-socket topologies
 * (the deployment axis of *OLTP on Hardware Islands*; see
 * docs/TOPOLOGY.md).
 *
 * A placement decides which logical CPUs a database server process may
 * run on, and — for Island — which warehouse partition its
 * transactions favour. The policy itself is interpreted by the
 * workload layer (odb::OdbWorkload::start); this header only carries
 * the configuration so os, core and odb share one vocabulary.
 */

#ifndef ODBSIM_OS_PLACEMENT_HH
#define ODBSIM_OS_PLACEMENT_HH

#include <cstdint>

namespace odbsim::os
{

/** How server processes are placed on the socket topology. */
enum class PlacementPolicy : std::uint8_t
{
    /**
     * Shared-everything, the legacy behaviour: one instance spans the
     * machine; processes float freely over every CPU and draw
     * warehouses uniformly.
     */
    None,
    /**
     * Hardware islands: the sockets are split into S/islandSockets
     * groups, server processes are pinned to one group each, and
     * their transactions favour that group's warehouse partition
     * (islandSockets == 1 is shared-nothing).
     */
    Island,
};

/** Placement configuration carried from core config to the workload. */
struct PlacementConfig
{
    /** Policy to apply (None = legacy, bit-identical behaviour). */
    PlacementPolicy policy = PlacementPolicy::None;
    /** Sockets per island (Island only). */
    unsigned islandSockets = 1;
    /**
     * Probability that an Island-partitioned transaction draws its
     * warehouse from the whole database instead of its own partition
     * — the distributed-transaction fraction that makes shared-nothing
     * imperfect in practice.
     */
    double crossIslandFraction = 0.15;
    /**
     * Extra instructions charged at commit when an Island-partitioned
     * transaction actually touched a warehouse outside its partition:
     * the software cost of distributed coordination (2PC messaging,
     * duplicated logging) that a shared-everything deployment never
     * pays. This is the counterweight to the hardware remote-access
     * penalty — it is what makes the deployment sweep's ordering
     * invert as the hop penalty approaches zero (docs/TOPOLOGY.md).
     */
    std::uint64_t crossIslandCoordInstr = 400000;
};

} // namespace odbsim::os

#endif // ODBSIM_OS_PLACEMENT_HH
