#include "db/database.hh"

namespace odbsim::db
{

Database::Database(os::System &sys, const DatabaseConfig &cfg)
    : sys_(sys), cfg_(cfg), schema_(cfg.schema),
      bufcache_(resolveFrames(cfg, schema_)), log_(sys, cfg_.costs),
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
Database::instantWarm()
{
    const auto dirty_below =
        static_cast<std::uint64_t>(cfg_.warmDirtyFraction * 1000.0);
    bufcache_.warmFill(
        [&](const Schema::WarmSink &sink) { schema_.enumerateWarm(sink); },
        [dirty_below](BlockId b) {
            return Schema::mix(b, 0xd1d1, 0) % 1000 < dirty_below;
        });
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
