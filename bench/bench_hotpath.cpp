/**
 * @file
 * Hot-path perf baseline: measures the simulation kernel's hottest
 * operations — event scheduling, tag-store accesses, coherence
 * directory churn, the batched memory-access path, the database
 * replay structures (buffer cache, lock manager), end-to-end
 * plan-and-replay throughput, and one reference study grid point —
 * and emits BENCH_hotpath.json, the baseline future perf PRs are
 * judged against.
 *
 * Four microbenchmarks also run against embedded copies of the
 * pre-overhaul implementations (the shared_ptr/std::function event
 * queue, and the std::unordered_map coherence directory, buffer-cache
 * index and lock table with its per-resource std::deque), so the
 * reported speedups are reproducible from this binary alone, on any
 * host, without checking out the old revisions. Each churn bench is
 * driven by one deterministic operation stream through both
 * implementations and cross-checks their observable counters, so the
 * perf comparisons double as differential tests.
 *
 * Usage: bench_hotpath [--out FILE]   (default: BENCH_hotpath.json)
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/experiment.hh"
#include "db/buffer_cache.hh"
#include "db/database.hh"
#include "db/lock_manager.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "odb/workload.hh"
#include "os/system.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "support/bench_common.hh"

#ifndef ODBSIM_GIT_REV
#define ODBSIM_GIT_REV "unknown"
#endif
#ifndef ODBSIM_BUILD_TYPE
#define ODBSIM_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace odbsim;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * The event queue as it was before the slab/small-buffer overhaul:
 * every schedule() heap-allocates a shared_ptr control block and
 * (for capturing lambdas) a std::function target, and the
 * priority_queue entry carries both. Kept verbatim as the perf
 * reference for speedup_vs_legacy.
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Tick curTick() const { return curTick_; }

    void
    schedule(Tick when, Callback cb)
    {
        auto slot = std::make_shared<Slot>();
        queue_.push(Entry{when, nextSeq_++, std::move(cb), slot});
    }

    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(curTick_ + delay, std::move(cb));
    }

    bool
    step()
    {
        while (!queue_.empty()) {
            Entry entry = std::move(const_cast<Entry &>(queue_.top()));
            queue_.pop();
            if (entry.slot->cancelled)
                continue;
            curTick_ = entry.when;
            entry.slot->fired = true;
            entry.cb();
            return true;
        }
        return false;
    }

  private:
    struct Slot
    {
        bool cancelled = false;
        bool fired = false;
    };
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
        std::shared_ptr<Slot> slot;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/**
 * The coherence directory as it was before the flat-table overhaul:
 * a std::unordered_map from line address to {sharers, owner}, paying
 * a node allocation per tracked line and a pointer chase per probe.
 * Kept verbatim as the perf reference for the directory speedup gate.
 */
class LegacyCoherenceDirectory
{
  public:
    explicit LegacyCoherenceDirectory(unsigned num_cpus)
        : numCpus_(num_cpus)
    {}

    mem::CoherenceOutcome
    onFill(unsigned cpu, Addr line_addr, bool is_write)
    {
        mem::CoherenceOutcome out;
        Entry &e = lines_[line_addr];
        const std::uint32_t self = 1u << cpu;
        if (e.modifiedOwner >= 0 &&
            static_cast<unsigned>(e.modifiedOwner) != cpu) {
            out.remoteDirty = true;
            out.remoteOwner = static_cast<unsigned>(e.modifiedOwner);
            ++coherenceMisses_;
        }
        if (is_write) {
            const std::uint32_t remote = e.sharers & ~self;
            out.invalidateMask = remote;
            invalidations_ += std::popcount(remote);
            e.sharers = self;
            e.modifiedOwner = static_cast<std::int8_t>(cpu);
        } else {
            if (out.remoteDirty)
                e.modifiedOwner = -1;
            e.sharers |= self;
        }
        return out;
    }

    std::uint32_t
    onWriteHit(unsigned cpu, Addr line_addr)
    {
        Entry &e = lines_[line_addr];
        const std::uint32_t self = 1u << cpu;
        const std::uint32_t remote = e.sharers & ~self;
        invalidations_ += std::popcount(remote);
        e.sharers = self;
        e.modifiedOwner = static_cast<std::int8_t>(cpu);
        return remote;
    }

    mem::SnoopState
    snoop(Addr line_addr) const
    {
        auto it = lines_.find(line_addr);
        if (it == lines_.end())
            return mem::SnoopState{};
        return mem::SnoopState{true, it->second.sharers,
                               it->second.modifiedOwner};
    }

    void
    onEviction(unsigned cpu, Addr line_addr)
    {
        auto it = lines_.find(line_addr);
        if (it == lines_.end())
            return;
        Entry &e = it->second;
        e.sharers &= ~(1u << cpu);
        if (e.modifiedOwner >= 0 &&
            static_cast<unsigned>(e.modifiedOwner) == cpu) {
            e.modifiedOwner = -1;
        }
        if (e.sharers == 0 && e.modifiedOwner < 0)
            lines_.erase(it);
    }

    void onDmaFill(Addr line_addr) { lines_.erase(line_addr); }

    std::size_t trackedLines() const { return lines_.size(); }
    std::uint64_t coherenceMisses() const { return coherenceMisses_; }
    std::uint64_t invalidationsSent() const { return invalidations_; }

  private:
    struct Entry
    {
        std::uint32_t sharers = 0;
        std::int8_t modifiedOwner = -1;
    };

    unsigned numCpus_;
    std::unordered_map<Addr, Entry> lines_;
    std::uint64_t coherenceMisses_ = 0;
    std::uint64_t invalidations_ = 0;
};

/**
 * The buffer cache as it was before the flat-table overhaul: the same
 * frame pool and intrusive LRU, but the resident-block index is a
 * std::unordered_map (a node allocation per resident block, a pointer
 * chase per probe) and metaAddr() folds the hashed block id onto the
 * frame count with a 64-bit hardware divide. Kept verbatim as the
 * perf reference for the buffer-cache speedup gate.
 */
class LegacyBufferCache
{
  public:
    explicit LegacyBufferCache(std::uint64_t frames)
    {
        frames_.resize(frames + 1);
        sentinel_ = static_cast<std::uint32_t>(frames);
        frames_[sentinel_].prev = sentinel_;
        frames_[sentinel_].next = sentinel_;
        map_.reserve(frames);
    }

    std::uint64_t numFrames() const { return frames_.size() - 1; }
    std::uint64_t residentBlocks() const { return map_.size(); }

    db::BufferLookup
    lookup(db::BlockId b)
    {
        ++gets_;
        auto it = map_.find(b);
        if (it == map_.end()) {
            ++misses_;
            return db::BufferLookup{false, 0};
        }
        const std::uint32_t f = it->second;
        unlink(f);
        pushFront(f);
        return db::BufferLookup{true, f};
    }

    db::BufferVictim
    allocate(db::BlockId b)
    {
        db::BufferVictim out;
        std::uint32_t f;
        if (nextFree_ < sentinel_) {
            f = static_cast<std::uint32_t>(nextFree_++);
        } else {
            f = frames_[sentinel_].prev;
            while (f != sentinel_ && frames_[f].ioPending)
                f = frames_[f].prev;
            Frame &victim = frames_[f];
            out.hadBlock = true;
            out.evictedBlock = victim.block;
            out.wasDirty = victim.dirty;
            if (victim.dirty)
                ++dirtyEvictions_;
            map_.erase(victim.block);
            unlink(f);
        }
        Frame &fr = frames_[f];
        fr.block = b;
        fr.dirty = false;
        fr.ioPending = true;
        map_[b] = f;
        pushFront(f);
        out.frame = f;
        return out;
    }

    void fillComplete(std::uint64_t frame)
    {
        frames_[frame].ioPending = false;
    }
    void markDirty(std::uint64_t frame) { frames_[frame].dirty = true; }
    bool isDirty(std::uint64_t frame) const
    {
        return frames_[frame].dirty;
    }

    void
    prefill(db::BlockId b, bool dirty = false)
    {
        if (map_.find(b) != map_.end())
            return;
        if (nextFree_ >= sentinel_)
            return;
        const std::uint32_t f = static_cast<std::uint32_t>(nextFree_++);
        Frame &fr = frames_[f];
        fr.block = b;
        fr.dirty = dirty;
        fr.ioPending = false;
        map_[b] = f;
        pushFront(f);
    }

    void
    markClean(db::BlockId b)
    {
        auto it = map_.find(b);
        if (it != map_.end())
            frames_[it->second].dirty = false;
    }

    Addr
    metaAddr(db::BlockId b) const
    {
        const std::uint64_t bucket =
            (b * 0x9e3779b97f4a7c15ULL) % numFrames();
        return mem::addrmap::frameMetaAddr(bucket);
    }

    std::uint64_t gets() const { return gets_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_; }

  private:
    struct Frame
    {
        db::BlockId block = db::invalidBlock;
        bool dirty = false;
        bool ioPending = false;
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
    };

    void
    unlink(std::uint32_t f)
    {
        Frame &fr = frames_[f];
        frames_[fr.prev].next = fr.next;
        frames_[fr.next].prev = fr.prev;
    }

    void
    pushFront(std::uint32_t f)
    {
        Frame &fr = frames_[f];
        fr.next = frames_[sentinel_].next;
        fr.prev = sentinel_;
        frames_[fr.next].prev = f;
        frames_[sentinel_].next = f;
    }

    std::vector<Frame> frames_;
    std::unordered_map<db::BlockId, std::uint32_t> map_;
    std::uint32_t sentinel_;
    std::uint64_t nextFree_ = 0;
    std::uint64_t gets_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyEvictions_ = 0;
};

/**
 * The lock manager as it was before the flat-table overhaul: a
 * std::unordered_map from lock key to a resource whose FIFO wait
 * queue is a per-resource std::deque — a node allocation per locked
 * row and a deque-segment allocation per first waiter. Kept verbatim
 * as the perf reference for the lock-manager speedup gate.
 */
class LegacyLockManager
{
  public:
    bool
    acquire(os::Process *p, db::LockKey key)
    {
        ++acquires_;
        Resource &res = table_[key];
        if (res.holder == nullptr) {
            res.holder = p;
            return true;
        }
        if (res.holder == p)
            return true;
        ++conflicts_;
        res.waiters.push_back(p);
        return false;
    }

    void
    release(os::Process *p, db::LockKey key, os::System &sys)
    {
        auto it = table_.find(key);
        odbsim_assert(it != table_.end(), "releasing unknown lock ", key);
        Resource &res = it->second;
        odbsim_assert(res.holder == p, "releasing foreign lock ", key);
        if (res.waiters.empty()) {
            table_.erase(it);
            return;
        }
        res.holder = res.waiters.front();
        res.waiters.pop_front();
        sys.wakeProcess(res.holder, 2500);
    }

    std::size_t heldCount() const { return table_.size(); }
    std::uint64_t acquires() const { return acquires_; }
    std::uint64_t conflicts() const { return conflicts_; }

  private:
    struct Resource
    {
        os::Process *holder = nullptr;
        std::deque<os::Process *> waiters;
    };

    std::unordered_map<db::LockKey, Resource> table_;
    std::uint64_t acquires_ = 0;
    std::uint64_t conflicts_ = 0;
};

/**
 * A process that exists only as a lock-owner identity for the lock
 * churn bench; it is never spawned, so next() is never called, and
 * Scheduler::wake on it just latches wakePending_.
 */
class ParkedProcess : public os::Process
{
  public:
    using os::Process::Process;

    os::NextAction
    next(os::System &) override
    {
        os::NextAction a;
        a.after = os::NextAction::After::Block;
        return a;
    }
};

/** Capture shape of a typical kernel event (disk completion). */
struct FakeRequest
{
    void *owner = nullptr;
    std::uint64_t bytes = 8192;
    std::uint64_t queuedAt = 0;
    std::uint64_t flags = 0;
};

/**
 * Schedule/fire churn with a rolling pending population, as the
 * simulator does in steady state. Returns events per second.
 */
template <typename Queue>
double
eventChurnRate(std::uint64_t events)
{
    Queue eq;
    Rng rng(5);
    std::uint64_t sink = 0;
    for (int i = 0; i < 256; ++i) {
        FakeRequest req{&eq, 8192, eq.curTick(), 0};
        eq.schedule(rng.below(1000), [req, &sink] {
            sink += req.bytes;
        });
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < events; ++i) {
        FakeRequest req{&eq, 8192, eq.curTick(), 0};
        eq.scheduleAfter(rng.below(1000) + 1, [req, &sink] {
            sink += req.bytes;
        });
        eq.step();
    }
    const double secs = secondsSince(t0);
    if (sink == 0) // defeat dead-code elimination
        std::fprintf(stderr, "unreachable\n");
    return static_cast<double>(events) / secs;
}

/** L2-shaped tag-store churn. Returns accesses per second. */
double
cacheAccessRate(std::uint64_t accesses)
{
    mem::SetAssocCache cache("bench",
                             mem::CacheGeometry{512 * KiB, 8, 64});
    Rng rng(1);
    // Footprint ~4x the cache so the scan exercises hits, misses and
    // dirty evictions together.
    const std::uint64_t footprint = 4 * 512 * KiB / 64;
    std::uint64_t hits = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const Addr addr = rng.below(footprint) * 64;
        hits += cache.access(addr, (i & 7) == 0).hit;
    }
    const double secs = secondsSince(t0);
    if (hits == 0)
        std::fprintf(stderr, "unreachable\n");
    return static_cast<double>(accesses) / secs;
}

/**
 * MemorySystem-shaped directory churn: fills, write hits, evictions,
 * snoops and DMA invalidations over a bounded line population, with
 * the deletion-heavy cases that exercise the flat table's
 * backward-shift path. The digest accumulates every observable output
 * (outcomes, masks, counters), both to defeat dead-code elimination
 * and so the caller can cross-check the two implementations ran
 * identically. Returns ops per second.
 */
template <typename Dir>
double
directoryChurnRate(std::uint64_t ops, std::uint64_t &digest)
{
    Dir dir(4);
    Rng rng(11);
    constexpr std::uint64_t footprint = 1u << 15; // 32 Ki lines
    std::uint64_t sum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        const Addr line = rng.below(footprint) * 64;
        const unsigned cpu = static_cast<unsigned>(rng.below(4));
        switch (rng.below(16)) {
          case 0:
          case 1:
          case 2:
          case 3:
          case 4:
          case 5: {
            const auto out = dir.onFill(cpu, line, false);
            sum += out.remoteDirty + out.invalidateMask;
            break;
          }
          case 6:
          case 7:
          case 8: {
            const auto out = dir.onFill(cpu, line, true);
            sum += out.remoteDirty + out.invalidateMask;
            break;
          }
          case 9:
          case 10:
            sum += dir.onWriteHit(cpu, line);
            break;
          case 11:
          case 12:
          case 13:
            dir.onEviction(cpu, line);
            break;
          case 14: {
            const auto s = dir.snoop(line);
            sum += s.tracked + s.sharers;
            break;
          }
          default:
            dir.onDmaFill(line);
            break;
        }
    }
    const double secs = secondsSince(t0);
    digest = sum + dir.trackedLines() + dir.coherenceMisses() * 3 +
             dir.invalidationsSent() * 7;
    return static_cast<double>(ops) / secs;
}

/**
 * End-to-end batched access path: epochs of references through a
 * 4-CPU MemorySystem (L2/L3 tag stores, directory, bus accounting),
 * the shape CpuCore::execute drives per WorkItem. Returns accesses
 * per second.
 */
double
accessPathRate(std::uint64_t accesses)
{
    constexpr std::uint32_t sampleFactor = 16;
    mem::MemorySystem ms(4, mem::HierarchyConfig{}, mem::BusConfig{},
                         sampleFactor);
    Rng rng(23);
    // Sampled-line footprint ~4x the scaled L3 so the epoch stream
    // exercises L2 hits, L3 hits/misses and evictions together.
    constexpr std::uint64_t stride = 64 * sampleFactor;
    constexpr std::uint64_t lines = 4 * 1024;
    constexpr std::uint64_t epochLen = 64;
    std::uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t done = 0; done < accesses;) {
        const unsigned cpu = static_cast<unsigned>(rng.below(4));
        auto epoch =
            ms.beginEpoch(cpu, mem::ExecMode::User, Tick{0});
        for (std::uint64_t i = 0; i < epochLen; ++i) {
            const Addr addr = rng.below(lines) * stride;
            const auto kind = (i & 7) == 0 ? mem::AccessKind::DataWrite
                                           : mem::AccessKind::DataRead;
            sink += static_cast<std::uint64_t>(
                epoch.access(addr, kind).servicedBy);
        }
        done += epochLen;
    }
    const double secs = secondsSince(t0);
    if (sink == 0)
        std::fprintf(stderr, "unreachable\n");
    return static_cast<double>(accesses) / secs;
}

/**
 * Buffer-cache churn at the studied configuration's frame count
 * (358,400 frames, the 2.8 GB SGA): the cache is prefilled to full
 * with a steady-state dirty population, then a deterministic stream
 * of the replay hot path's operations — lookup with allocate +
 * fillComplete on miss, first-modification markDirty, DBWR markClean,
 * and the metaAddr descriptor fold — runs over a footprint twice the
 * frame count, so probes, evictions (erase + insert) and the divide
 * are all exercised together. The digest accumulates every observable
 * output so the caller can cross-check the two implementations ran
 * identically. Returns ops per second.
 */
template <typename Cache>
double
bufferChurnRate(std::uint64_t ops, std::uint64_t &digest)
{
    constexpr std::uint64_t frames = 358'400;
    Cache bc(frames);
    for (std::uint64_t b = 0; b < frames; ++b)
        bc.prefill(b, (b & 3) == 0);
    Rng rng(31);
    constexpr std::uint64_t footprint = 2 * frames;
    std::uint64_t sum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        const db::BlockId b = rng.below(footprint);
        switch (rng.below(8)) {
          default: {
            // The replayTouch path: probe, allocate on miss, and the
            // per-touch descriptor reference.
            sum += bc.metaAddr(b);
            const db::BufferLookup hit = bc.lookup(b);
            if (hit.hit) {
                sum += hit.frame;
            } else {
                const db::BufferVictim v = bc.allocate(b);
                sum += v.frame + v.evictedBlock * 3 + v.wasDirty;
                bc.fillComplete(v.frame);
            }
            break;
          }
          case 5: {
            // First modification since the last write-back.
            const db::BufferLookup hit = bc.lookup(b);
            if (hit.hit && !bc.isDirty(hit.frame)) {
                bc.markDirty(hit.frame);
                ++sum;
            }
            break;
          }
          case 6:
            bc.markClean(b); // DBWR finished a write-back.
            break;
          case 7:
            sum += bc.metaAddr(b);
            break;
        }
    }
    const double secs = secondsSince(t0);
    digest = sum + bc.gets() + bc.misses() * 3 +
             bc.dirtyEvictions() * 7 + bc.residentBlocks();
    return static_cast<double>(ops) / secs;
}

/**
 * Lock-table churn with the contention shape replay produces: each
 * round, process A acquires a run of eight keys, B contends on the
 * first four and C on the first two (FIFO depth two), then the
 * releases cascade the hand-off + wake path before the resources
 * retire. One round is 28 lock operations covering every manager
 * path: grant, conflict enqueue, FIFO hand-off, waiter retire and
 * resource erase. The digest accumulates grant results, mid-round
 * heldCount samples and the final counters for the cross-check.
 * Returns lock operations per second.
 */
template <typename Locks>
double
lockChurnRate(std::uint64_t rounds, os::System &sys, os::Process *a,
              os::Process *b, os::Process *c, std::uint64_t &digest)
{
    Locks lm;
    Rng rng(47);
    std::uint64_t sum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
        const db::LockKey base = rng.below(1u << 20) * 8;
        for (unsigned j = 0; j < 8; ++j)
            sum += lm.acquire(a, base + j);
        for (unsigned j = 0; j < 4; ++j)
            sum += lm.acquire(b, base + j);
        for (unsigned j = 0; j < 2; ++j)
            sum += lm.acquire(c, base + j);
        sum += lm.heldCount() * 5;
        for (unsigned j = 0; j < 8; ++j)
            lm.release(a, base + j, sys);
        for (unsigned j = 0; j < 4; ++j)
            lm.release(b, base + j, sys);
        for (unsigned j = 0; j < 2; ++j)
            lm.release(c, base + j, sys);
        sum += lm.heldCount();
    }
    const double secs = secondsSince(t0);
    digest = sum + lm.acquires() * 3 + lm.conflicts() * 7 +
             lm.heldCount();
    return static_cast<double>(rounds * 28) / secs;
}

/**
 * End-to-end plan-and-replay throughput: a miniature ODB deployment
 * (2 CPUs, 2 warehouses with reduced cardinalities, 8 clients) runs a
 * warm-up then a measured window under the discrete-event clock, and
 * the figure is committed transactions per *host* second — the speed
 * at which the simulator plans traces and replays them through the
 * buffer cache, lock manager and log. No legacy comparison (the rig
 * spans the whole engine); the figure exists so perf PRs see whole-
 * path regressions that the microbenches miss.
 */
double
planReplayRate(double &sim_tps)
{
    os::SystemConfig scfg;
    scfg.numCpus = 2;
    scfg.core.samplePeriod = 16;
    scfg.disks.dataDisks = 4;
    scfg.disks.logDisks = 1;
    scfg.seed = 99;
    os::System sys(scfg);

    db::DatabaseConfig dcfg;
    dcfg.schema.warehouses = 2;
    dcfg.schema.customersPerDistrict = 300;
    dcfg.schema.itemCount = 2000;
    dcfg.schema.stockPerWarehouse = 2000;
    dcfg.schema.initialOrdersPerDistrict = 100;
    dcfg.schema.ordersPerDistrictCap = 400;
    dcfg.schema.olPerDistrictCap = 4500;
    dcfg.schema.newOrderCap = 200;
    dcfg.schema.historyCap = 1800;
    dcfg.schema.undoBlocks = 256;
    dcfg.sgaFrames = 4096;
    db::Database db(sys, dcfg);

    odb::WorkloadConfig wcfg;
    wcfg.clients = 8;
    wcfg.seed = 7;
    odb::OdbWorkload workload(db, wcfg);

    db.start();
    workload.start();
    db.instantWarm();
    sys.runFor(50 * tickPerMs);
    workload.resetStats();
    db.resetStats();

    constexpr Tick window = 400 * tickPerMs;
    const auto t0 = std::chrono::steady_clock::now();
    sys.runFor(window);
    const double secs = secondsSince(t0);
    sim_tps = workload.tps(window);
    return static_cast<double>(workload.committed()) / secs;
}

/**
 * 100×-density event churn: the same rolling schedule/fire pattern as
 * eventChurnRate, but with ~25,600 pending events (100× the paper-
 * scale pending population) and a mixed delay distribution spanning
 * several wheel levels — short I/O completions, medium scheduler
 * quanta, and occasional long timeout-shaped horizons. The digest
 * hashes the fired event ids *in order*, so comparing the wheel
 * against the heap proves both kinds fire the exact same (when, seq)
 * sequence while one is being measured against the other. Returns
 * events per second.
 */
double
eventChurn100xRate(EventQueueKind kind, std::uint64_t events,
                   std::uint64_t &digest)
{
    EventQueue eq(kind);
    Rng rng(13);
    constexpr int kPending = 25'600;
    std::uint64_t order = 0;
    std::uint64_t next_id = 0;
    auto delay = [&rng]() -> Tick {
        switch (rng.below(16)) {
          case 0:
            return rng.below(2'000'000) + 1; // timeout horizon
          case 1:
          case 2:
            return rng.below(50'000) + 1; // scheduler quantum
          default:
            return rng.below(1'000) + 1; // I/O completion
        }
    };
    for (int i = 0; i < kPending; ++i) {
        const std::uint64_t id = next_id++;
        eq.schedule(eq.curTick() + delay(), [id, &order] {
            order = order * 1099511628211ULL + id;
        });
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < events; ++i) {
        const std::uint64_t id = next_id++;
        eq.scheduleAfter(delay(), [id, &order] {
            order = order * 1099511628211ULL + id;
        });
        eq.step();
    }
    const double secs = secondsSince(t0);
    digest = order;
    return static_cast<double>(events) / secs;
}

/** Best of @p reps runs, to shed scheduler noise. */
double
best(int reps, double (*fn)(std::uint64_t), std::uint64_t n)
{
    double b = 0.0;
    for (int i = 0; i < reps; ++i)
        b = std::max(b, fn(n));
    return b;
}

/** best() for the directory churn, which also yields a digest. */
template <typename Dir>
double
bestDirectory(int reps, std::uint64_t ops, std::uint64_t &digest)
{
    double b = 0.0;
    for (int i = 0; i < reps; ++i)
        b = std::max(b, directoryChurnRate<Dir>(ops, digest));
    return b;
}

/** best() over an arbitrary rate callable (the db benches). */
template <typename Fn>
double
bestOf(int reps, Fn fn)
{
    double b = 0.0;
    for (int i = 0; i < reps; ++i)
        b = std::max(b, fn());
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    const char *out_path = "BENCH_hotpath.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }

    // The legacy-vs-new comparisons take the best of five runs each:
    // the ratio of two best-of maxima is far less sensitive to host
    // interference than any single measurement, which matters on the
    // small shared runners that execute this gate.
    std::fprintf(stderr, "[hotpath] event-scheduling churn...\n");
    constexpr std::uint64_t kEvents = 3'000'000;
    const double ev_rate = best(5, eventChurnRate<EventQueue>, kEvents);
    const double legacy_rate =
        best(5, eventChurnRate<LegacyEventQueue>, kEvents);
    const double speedup = ev_rate / legacy_rate;
    std::fprintf(stderr,
                 "[hotpath]   EventQueue       %.2fM events/s\n"
                 "[hotpath]   LegacyEventQueue %.2fM events/s\n"
                 "[hotpath]   speedup_vs_legacy %.2fx\n",
                 ev_rate / 1e6, legacy_rate / 1e6, speedup);

    std::fprintf(stderr, "[hotpath] tag-store churn...\n");
    constexpr std::uint64_t kAccesses = 20'000'000;
    const double cache_rate = best(3, cacheAccessRate, kAccesses);
    std::fprintf(stderr, "[hotpath]   SetAssocCache    %.2fM acc/s\n",
                 cache_rate / 1e6);

    std::fprintf(stderr, "[hotpath] coherence-directory churn...\n");
    constexpr std::uint64_t kDirOps = 20'000'000;
    std::uint64_t dir_digest = 0, legacy_dir_digest = 0;
    const double dir_rate = bestDirectory<mem::CoherenceDirectory>(
        5, kDirOps, dir_digest);
    const double legacy_dir_rate =
        bestDirectory<LegacyCoherenceDirectory>(5, kDirOps,
                                                legacy_dir_digest);
    const double dir_speedup = dir_rate / legacy_dir_rate;
    std::fprintf(stderr,
                 "[hotpath]   CoherenceDirectory       %.2fM ops/s\n"
                 "[hotpath]   LegacyCoherenceDirectory %.2fM ops/s\n"
                 "[hotpath]   speedup_vs_legacy %.2fx\n",
                 dir_rate / 1e6, legacy_dir_rate / 1e6, dir_speedup);
    if (dir_digest != legacy_dir_digest) {
        std::fprintf(stderr,
                     "[hotpath] FATAL: directory digests diverge "
                     "(flat %llu vs legacy %llu) — the flat table is "
                     "not behaviorally identical\n",
                     static_cast<unsigned long long>(dir_digest),
                     static_cast<unsigned long long>(legacy_dir_digest));
        return 1;
    }

    std::fprintf(stderr, "[hotpath] batched memory-access path...\n");
    constexpr std::uint64_t kPathAccesses = 10'000'000;
    const double path_rate = best(3, accessPathRate, kPathAccesses);
    std::fprintf(stderr, "[hotpath]   MemorySystem     %.2fM acc/s\n",
                 path_rate / 1e6);

    std::fprintf(stderr, "[hotpath] buffer-cache churn...\n");
    constexpr std::uint64_t kBufOps = 10'000'000;
    std::uint64_t buf_digest = 0, legacy_buf_digest = 0;
    const double buf_rate = bestOf(5, [&] {
        return bufferChurnRate<db::BufferCache>(kBufOps, buf_digest);
    });
    const double legacy_buf_rate = bestOf(5, [&] {
        return bufferChurnRate<LegacyBufferCache>(kBufOps,
                                                  legacy_buf_digest);
    });
    const double buf_speedup = buf_rate / legacy_buf_rate;
    std::fprintf(stderr,
                 "[hotpath]   BufferCache       %.2fM ops/s\n"
                 "[hotpath]   LegacyBufferCache %.2fM ops/s\n"
                 "[hotpath]   speedup_vs_legacy %.2fx\n",
                 buf_rate / 1e6, legacy_buf_rate / 1e6, buf_speedup);
    if (buf_digest != legacy_buf_digest) {
        std::fprintf(stderr,
                     "[hotpath] FATAL: buffer-cache digests diverge "
                     "(flat %llu vs legacy %llu) — the flat index is "
                     "not behaviorally identical\n",
                     static_cast<unsigned long long>(buf_digest),
                     static_cast<unsigned long long>(legacy_buf_digest));
        return 1;
    }

    std::fprintf(stderr, "[hotpath] lock-manager churn...\n");
    constexpr std::uint64_t kLockRounds = 500'000;
    std::uint64_t lock_digest = 0, legacy_lock_digest = 0;
    double lock_rate = 0.0, legacy_lock_rate = 0.0;
    {
        // One small machine shared by both runs: the lock manager
        // only needs it for Scheduler::wake on hand-off, and the
        // parked owner identities are never spawned or run.
        os::SystemConfig scfg;
        scfg.numCpus = 1;
        os::System sys(scfg);
        ParkedProcess a("lock-bench-a"), b("lock-bench-b"),
            c("lock-bench-c");
        lock_rate = bestOf(5, [&] {
            return lockChurnRate<db::LockManager>(kLockRounds, sys, &a,
                                                  &b, &c, lock_digest);
        });
        legacy_lock_rate = bestOf(5, [&] {
            return lockChurnRate<LegacyLockManager>(
                kLockRounds, sys, &a, &b, &c, legacy_lock_digest);
        });
    }
    const double lock_speedup = lock_rate / legacy_lock_rate;
    std::fprintf(stderr,
                 "[hotpath]   LockManager       %.2fM ops/s\n"
                 "[hotpath]   LegacyLockManager %.2fM ops/s\n"
                 "[hotpath]   speedup_vs_legacy %.2fx\n",
                 lock_rate / 1e6, legacy_lock_rate / 1e6, lock_speedup);
    if (lock_digest != legacy_lock_digest) {
        std::fprintf(stderr,
                     "[hotpath] FATAL: lock-manager digests diverge "
                     "(flat %llu vs legacy %llu) — the flat table is "
                     "not behaviorally identical\n",
                     static_cast<unsigned long long>(lock_digest),
                     static_cast<unsigned long long>(legacy_lock_digest));
        return 1;
    }

    std::fprintf(stderr,
                 "[hotpath] event churn at 100x density "
                 "(wheel vs heap)...\n");
    constexpr std::uint64_t kEvents100x = 3'000'000;
    std::uint64_t wheel_digest = 0, heap_digest = 0;
    const double wheel_rate = bestOf(5, [&] {
        return eventChurn100xRate(EventQueueKind::wheel, kEvents100x,
                                  wheel_digest);
    });
    const double heap_rate = bestOf(5, [&] {
        return eventChurn100xRate(EventQueueKind::heap, kEvents100x,
                                  heap_digest);
    });
    const double wheel_speedup = wheel_rate / heap_rate;
    std::fprintf(stderr,
                 "[hotpath]   wheel  %.2fM events/s\n"
                 "[hotpath]   heap   %.2fM events/s\n"
                 "[hotpath]   speedup_wheel_vs_heap %.2fx\n",
                 wheel_rate / 1e6, heap_rate / 1e6, wheel_speedup);
    if (wheel_digest != heap_digest) {
        std::fprintf(stderr,
                     "[hotpath] FATAL: wheel/heap fire-order digests "
                     "diverge (wheel %llu vs heap %llu) — the wheel is "
                     "not firing the heap's (when, seq) order\n",
                     static_cast<unsigned long long>(wheel_digest),
                     static_cast<unsigned long long>(heap_digest));
        return 1;
    }

    std::fprintf(stderr, "[hotpath] plan-and-replay throughput...\n");
    double sim_tps = 0.0;
    const double replay_rate =
        bestOf(3, [&] { return planReplayRate(sim_tps); });
    std::fprintf(stderr,
                 "[hotpath]   plan+replay       %.0f txn/s host "
                 "(sim tps %.0f)\n",
                 replay_rate, sim_tps);

    std::fprintf(stderr,
                 "[hotpath] reference grid point (W=10, P=4)...\n");
    core::OltpConfiguration cfg;
    cfg.warehouses = 10;
    cfg.processors = 4;
    const core::RunResult r = core::ExperimentRunner::run(cfg);
    std::fprintf(stderr,
                 "[hotpath]   wall %.3fs  %llu events  %.2fM ev/s  "
                 "(tps %.0f)\n",
                 r.wallSeconds,
                 static_cast<unsigned long long>(r.eventsFired),
                 r.eventsPerSec() / 1e6, r.tps);

    // The 100x-scale grid point: two orders of magnitude beyond the
    // paper's largest measured configuration (W=4096 vs the paper's
    // figure ceiling near 800/10000-client testbeds), with an
    // explicit high client density. The warm-up windows are dialed
    // down (warmupPerWarehouseMs) so the point stays minutes, not
    // hours — this figure tracks the *simulator's* event throughput
    // at scale, not the modeled machine's steady state.
    // ODBSIM_HOTPATH_100X=0 skips it (quick local runs).
    const char *env_100x = std::getenv("ODBSIM_HOTPATH_100X");
    const bool run_100x =
        !(env_100x && std::strcmp(env_100x, "0") == 0);
    core::RunResult big;
    if (run_100x) {
        std::fprintf(stderr, "[hotpath] 100x-scale grid point "
                             "(W=4096, P=4, C=1024)...\n");
        core::OltpConfiguration bigcfg;
        bigcfg.warehouses = 4096;
        bigcfg.processors = 4;
        bigcfg.clients = 1024;
        core::RunKnobs bigknobs;
        bigknobs.warmup = ticksFromMs(100.0);
        bigknobs.measure = ticksFromMs(400.0);
        bigknobs.warmupPerWarehouseMs = 0.1;
        big = core::ExperimentRunner::run(bigcfg, bigknobs);
        std::fprintf(stderr,
                     "[hotpath]   wall %.3fs  %llu events  %.2fM ev/s  "
                     "(tps %.0f)\n",
                     big.wallSeconds,
                     static_cast<unsigned long long>(big.eventsFired),
                     big.eventsPerSec() / 1e6, big.tps);
    } else {
        std::fprintf(stderr, "[hotpath] 100x-scale grid point skipped "
                             "(ODBSIM_HOTPATH_100X=0)\n");
    }

    std::FILE *f = std::fopen(out_path, "w");
    if (!f) {
        std::fprintf(stderr, "[hotpath] cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"hotpath\",\n"
        "  \"event_queue\": {\n"
        "    \"events_per_sec\": %.0f,\n"
        "    \"legacy_events_per_sec\": %.0f,\n"
        "    \"speedup_vs_legacy\": %.3f\n"
        "  },\n"
        "  \"tag_store\": {\n"
        "    \"accesses_per_sec\": %.0f\n"
        "  },\n"
        "  \"directory\": {\n"
        "    \"ops_per_sec\": %.0f,\n"
        "    \"legacy_ops_per_sec\": %.0f,\n"
        "    \"speedup_vs_legacy\": %.3f,\n"
        "    \"digest_cross_check\": \"passed\"\n"
        "  },\n"
        "  \"access_path\": {\n"
        "    \"accesses_per_sec\": %.0f\n"
        "  },\n"
        "  \"buffer_cache\": {\n"
        "    \"ops_per_sec\": %.0f,\n"
        "    \"legacy_ops_per_sec\": %.0f,\n"
        "    \"speedup_vs_legacy\": %.3f,\n"
        "    \"digest_cross_check\": \"passed\"\n"
        "  },\n"
        "  \"lock_manager\": {\n"
        "    \"ops_per_sec\": %.0f,\n"
        "    \"legacy_ops_per_sec\": %.0f,\n"
        "    \"speedup_vs_legacy\": %.3f,\n"
        "    \"digest_cross_check\": \"passed\"\n"
        "  },\n"
        "  \"event_queue_100x\": {\n"
        "    \"pending_events\": 25600,\n"
        "    \"wheel_events_per_sec\": %.0f,\n"
        "    \"heap_events_per_sec\": %.0f,\n"
        "    \"speedup_wheel_vs_heap\": %.3f,\n"
        "    \"digest_cross_check\": \"passed\"\n"
        "  },\n"
        "  \"plan_replay\": {\n"
        "    \"txns_per_host_sec\": %.0f,\n"
        "    \"sim_tps\": %.1f\n"
        "  },\n"
        "  \"grid_point\": {\n"
        "    \"warehouses\": %u,\n"
        "    \"processors\": %u,\n"
        "    \"wall_seconds\": %.3f,\n"
        "    \"events_fired\": %llu,\n"
        "    \"events_per_sec\": %.0f\n"
        "  },\n"
        "  \"grid_point_100x\": {\n"
        "    \"skipped\": %s,\n"
        "    \"warehouses\": %u,\n"
        "    \"processors\": %u,\n"
        "    \"clients\": %u,\n"
        "    \"wall_seconds\": %.3f,\n"
        "    \"events_fired\": %llu,\n"
        "    \"events_per_sec\": %.0f,\n"
        "    \"tps\": %.1f\n"
        "  },\n"
        "  \"provenance\": {\n"
        "    \"compiler\": \"%s\",\n"
        "    \"build_type\": \"%s\",\n"
        "    \"git_rev\": \"%s\"\n"
        "  }\n"
        "}\n",
        ev_rate, legacy_rate, speedup, cache_rate, dir_rate,
        legacy_dir_rate, dir_speedup, path_rate, buf_rate,
        legacy_buf_rate, buf_speedup, lock_rate, legacy_lock_rate,
        lock_speedup, wheel_rate, heap_rate, wheel_speedup,
        replay_rate, sim_tps, r.warehouses, r.processors,
        r.wallSeconds, static_cast<unsigned long long>(r.eventsFired),
        r.eventsPerSec(), run_100x ? "false" : "true", big.warehouses,
        big.processors, big.clients, big.wallSeconds,
        static_cast<unsigned long long>(big.eventsFired),
        big.eventsPerSec(), big.tps, __VERSION__,
        ODBSIM_BUILD_TYPE, ODBSIM_GIT_REV);
    std::fclose(f);
    std::fprintf(stderr, "[hotpath] wrote %s\n", out_path);

    int rc = 0;
    if (speedup < 1.5) {
        std::fprintf(stderr,
                     "[hotpath] WARNING: event-queue speedup %.2fx is "
                     "below the 1.5x gate\n",
                     speedup);
        rc = 2;
    }
    if (dir_speedup < 1.3) {
        std::fprintf(stderr,
                     "[hotpath] WARNING: directory speedup %.2fx is "
                     "below the 1.3x gate\n",
                     dir_speedup);
        rc = 2;
    }
    if (buf_speedup < 1.3) {
        std::fprintf(stderr,
                     "[hotpath] WARNING: buffer-cache speedup %.2fx is "
                     "below the 1.3x gate\n",
                     buf_speedup);
        rc = 2;
    }
    if (lock_speedup < 1.3) {
        std::fprintf(stderr,
                     "[hotpath] WARNING: lock-manager speedup %.2fx is "
                     "below the 1.3x gate\n",
                     lock_speedup);
        rc = 2;
    }
    if (wheel_speedup < 1.5) {
        std::fprintf(stderr,
                     "[hotpath] WARNING: 100x-density wheel-vs-heap "
                     "speedup %.2fx is below the 1.5x gate\n",
                     wheel_speedup);
        rc = 2;
    }
    return rc;
}
