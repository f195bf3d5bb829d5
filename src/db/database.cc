#include "db/database.hh"

#include <unordered_set>
#include <vector>

#include "sim/logging.hh"

namespace odbsim::db
{

Database::Database(os::System &sys, const DatabaseConfig &cfg)
    : sys_(sys), cfg_(cfg), schema_(cfg.schema),
      bufcache_(resolveFrames(cfg, schema_), cfg.shards),
      locks_(cfg.shards), log_(sys, cfg_.costs),
      dbwr_(sys, cfg_.costs, bufcache_, cfg.dbwr)
{
    locks_.bind(&sys);
    dbwr_.bindLog(&log_);
}

std::uint64_t
Database::resolveFrames(const DatabaseConfig &cfg, const Schema &schema)
{
    if (cfg.sgaFrames)
        return cfg.sgaFrames;
    const double frames = cfg.cacheWarehouseEquivalents *
                          schema.readableBlocksPerWarehouse();
    return static_cast<std::uint64_t>(frames);
}

void
Database::start()
{
    log_.start();
    dbwr_.start();
}

void
Database::instantWarm(const std::vector<std::uint32_t> &active_warehouses)
{
    // Collect hottest-first, then prefill coldest-first so the LRU
    // order in the cache matches hotness (hottest prefilled last ends
    // up at MRU).
    std::vector<BlockId> hot;
    hot.reserve(bufcache_.numFrames());
    std::unordered_set<BlockId> seen;
    seen.reserve(bufcache_.numFrames());
    const std::uint64_t budget =
        bufcache_.numFrames() - bufcache_.residentBlocks();
    schema_.enumerateWarm(
        [&](BlockId b) {
            if (seen.insert(b).second)
                hot.push_back(b);
            return hot.size() < budget;
        },
        active_warehouses.empty() ? nullptr : &active_warehouses);
    for (auto it = hot.rbegin(); it != hot.rend(); ++it) {
        const bool dirty =
            Schema::mix(*it, 0xd1d1, 0) % 1000 <
            static_cast<std::uint64_t>(cfg_.warmDirtyFraction * 1000.0);
        bufcache_.prefill(*it, dirty);
    }
    bufcache_.resetStats();
}

void
Database::resetStats()
{
    bufcache_.resetStats();
    locks_.resetStats();
    log_.resetStats();
    dbwr_.resetStats();
}

} // namespace odbsim::db
