/**
 * @file
 * Multi-socket "hardware islands" machine topology.
 *
 * The 2003 study's machines are single-bus SMPs: every CPU reaches
 * every line at the same cost. Modern multi-socket boxes are not —
 * each socket owns a slice of physical memory behind its own bus, and
 * accesses to another socket's slice cross a point-to-point
 * interconnect that adds per-hop latency and has bounded bandwidth
 * (the effect the *OLTP on Hardware Islands* deployments exploit).
 *
 * TopologyConfig describes that machine shape. The default
 * sockets == 1 is the single-bus machine: the memory system runs the
 * same per-socket code with one socket, every miss is local, and the
 * other knobs are never read (the contract in docs/TOPOLOGY.md that
 * keeps the golden study CSVs byte-stable).
 */

#ifndef ODBSIM_MEM_TOPOLOGY_HH
#define ODBSIM_MEM_TOPOLOGY_HH

#include "sim/types.hh"

namespace odbsim::mem
{

/** Static shape of the socket/interconnect topology. */
struct TopologyConfig
{
    /**
     * Socket count S. Each socket has its own front-side bus and
     * coherence directory, and the physical CPUs split evenly across
     * sockets (ceil(P/S) per socket, earlier sockets first). 1
     * (default) = the single-bus machine, where every knob below is
     * ignored.
     */
    unsigned sockets = 1;
    /**
     * Extra latency, in CPU cycles, added to an L3 miss for every
     * interconnect hop between the requesting socket and the socket
     * that services it (the home memory, or the dirty line's owner).
     * This is the remote-access penalty of the deployment sweep.
     */
    double hopLatencyCycles = 300.0;
    /**
     * Interconnect occupancy of one 64 B line transfer, in CPU
     * cycles. Together with the M/G/1 queue of the link model this
     * bounds cross-socket bandwidth.
     */
    double linkOccupancyCycles = 40.0;
    /** Interconnect occupancy of one KB of remote DMA traffic. */
    double linkDmaOccupancyCyclesPerKb = 160.0;
    /**
     * log2 of the granularity at which untouched memory interleaves
     * across sockets (the fallback when no first-touch home is
     * recorded): home = (addr >> pageShift) mod sockets.
     */
    unsigned pageShift = 12;
};

/**
 * Interconnect hop count between two sockets: direct links up to four
 * sockets (every commodity 2S/4S box is fully connected), a ring with
 * minimum-distance routing beyond.
 */
constexpr unsigned
socketHops(unsigned from, unsigned to, unsigned sockets)
{
    if (from == to)
        return 0;
    if (sockets <= 4)
        return 1;
    const unsigned d = from > to ? from - to : to - from;
    return d < sockets - d ? d : sockets - d;
}

} // namespace odbsim::mem

#endif // ODBSIM_MEM_TOPOLOGY_HH
