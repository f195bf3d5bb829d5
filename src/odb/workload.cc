#include "odb/workload.hh"

#include <algorithm>
#include <memory>

#include "odb/recovery.hh"
#include "odb/server_process.hh"
#include "sim/logging.hh"

namespace odbsim::odb
{

OdbWorkload::OdbWorkload(db::Database &database, const WorkloadConfig &cfg)
    : db_(database), cfg_(cfg), planner_(database, cfg.mix),
      rng_(cfg.seed)
{
    odbsim_assert(cfg.clients >= 1, "workload needs at least one client");
}

void
OdbWorkload::start()
{
    odbsim_assert(!started_, "workload already started");
    started_ = true;
    const unsigned w_cnt = db_.schema().warehouses();
    os::System &sys = db_.sys();
    const os::PlacementConfig &pl = cfg_.placement;
    const unsigned sockets = sys.numSockets();

    // Island deployment geometry: k sockets per island, warehouses
    // split into equal contiguous ranges, one per island.
    unsigned island_k = 1, num_islands = 1;
    if (pl.policy == os::PlacementPolicy::Island) {
        island_k = std::clamp(pl.islandSockets, 1u, sockets);
        num_islands = sockets / island_k;
        odbsim_assert(num_islands * island_k == sockets,
                      "islandSockets must divide the socket count");
    }

    odbsim_assert(pl.policy != os::PlacementPolicy::Island ||
                      w_cnt >= num_islands,
                  "fewer warehouses than islands");

    homes_.clear();
    servers_.clear();
    servers_.reserve(cfg_.clients);
    for (unsigned i = 0; i < cfg_.clients; ++i) {
        // The home warehouse only seeds the server; every transaction
        // picks its warehouse uniformly (see ServerProcess::next), so
        // the working set spans the whole database as W scales. Under
        // Island placement clients round-robin over the islands (so
        // the islands stay load-balanced for any client count), the
        // home moves inside the island's partition, and draws favour
        // that range instead.
        std::uint32_t home = i % w_cnt;
        std::uint32_t w_lo = 0, w_hi = 0;
        unsigned island = 0;
        if (pl.policy == os::PlacementPolicy::Island) {
            island = i % num_islands;
            w_lo = static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(island) * w_cnt /
                num_islands);
            w_hi = static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(island + 1) * w_cnt /
                num_islands);
            home = w_lo + (i / num_islands) % (w_hi - w_lo);
        }
        homes_.push_back(home);
        auto sp = std::make_unique<ServerProcess>(
            db_, *this, planner_, home, rng_.fork());
        // Shared-everything (None) floats over every CPU and draws
        // globally.
        if (pl.policy == os::PlacementPolicy::Island) {
            sp->setCpuAffinity(
                sys.socketAffinityMask(island * island_k, island_k));
            sp->setPartition(w_lo, w_hi, pl.crossIslandFraction,
                             pl.crossIslandCoordInstr);
        }
        servers_.push_back(sp.get());
        sys.spawn(std::move(sp));
    }

    // Crash orchestration: one absolute-tick event kills the instance
    // and spawns the recovery process. Nothing is scheduled (and the
    // commit timeline stays unallocated) when the knob is off.
    sim::FaultPlan &faults = sys.faults();
    if (faults.crashEnabled()) {
        trackTimeline_ = true;
        sys.eq().schedule(ticksFromMs(faults.config().crashAtMs),
                          [this] { beginCrash(); });
    }
}

void
OdbWorkload::beginCrash()
{
    os::System &sys = db_.sys();
    sim::FaultPlan &faults = sys.faults();
    ++faults.stats().crashes;
    faults.stats().crashTick = sys.now();
    // Every server dies: running/ready ones park at their next
    // dispatch; blocked ones park when the pending I/O or lock wake
    // dispatches them (crashed holders release their locks during
    // rollback, so waiter chains unwind rather than deadlock).
    for (ServerProcess *s : servers_)
        s->requestCrash();
    sys.spawn(std::make_unique<RecoveryProcess>(db_, *this));
}

void
OdbWorkload::parkCrashed(ServerProcess *p)
{
    parked_.push_back(p);
}

void
OdbWorkload::recoveryComplete()
{
    os::System &sys = db_.sys();
    sys.faults().stats().recoveryEndTick = sys.now();
    // Clear the flag on every server first: a server still waiting
    // out a long disk read when recovery finishes simply resumes
    // instead of parking after the instance is already back up.
    for (ServerProcess *s : servers_)
        s->clearCrash();
    for (ServerProcess *s : parked_)
        sys.wakeProcess(s, sys.kernelCosts().ioCompleteInstr);
    parked_.clear();
}

std::uint64_t
OdbWorkload::commitsBetween(Tick a, Tick b) const
{
    std::uint64_t n = 0;
    const std::size_t lo =
        static_cast<std::size_t>(a / timelineBucketTicks);
    const std::size_t hi = std::min(
        timeline_.size(),
        static_cast<std::size_t>(b / timelineBucketTicks));
    for (std::size_t i = lo; i < hi; ++i)
        n += timeline_[i];
    return n;
}

void
OdbWorkload::recordCommit(db::TxnType type, Tick latency, Tick now)
{
    const unsigned i = static_cast<unsigned>(type);
    ++counts_[i];
    const double ms = secondsFromTicks(latency) * 1e3;
    latency_[i].add(ms);
    latencyHist_.add(ms);
    if (trackTimeline_) {
        const auto b =
            static_cast<std::size_t>(now / timelineBucketTicks);
        if (timeline_.size() <= b)
            timeline_.resize(b + 1, 0);
        ++timeline_[b];
    }
}

std::uint64_t
OdbWorkload::committed() const
{
    std::uint64_t n = 0;
    for (const auto c : counts_)
        n += c;
    return n;
}

double
OdbWorkload::tps(Tick window) const
{
    if (window == 0)
        return 0.0;
    return static_cast<double>(committed()) / secondsFromTicks(window);
}

void
OdbWorkload::resetStats()
{
    for (auto &c : counts_)
        c = 0;
    for (auto &l : latency_)
        l.reset();
    latencyHist_.reset();
}

} // namespace odbsim::odb
