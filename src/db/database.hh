/**
 * @file
 * Database: the facade bundling schema, buffer cache, lock manager,
 * redo log and background writers into one engine instance bound to a
 * simulated System.
 */

#ifndef ODBSIM_DB_DATABASE_HH
#define ODBSIM_DB_DATABASE_HH

#include <cstdint>
#include <memory>

#include "db/buffer_cache.hh"
#include "db/cost_model.hh"
#include "db/db_writer.hh"
#include "db/lock_manager.hh"
#include "db/redo_log.hh"
#include "db/schema.hh"
#include "os/system.hh"

namespace odbsim::db
{

/** Engine configuration. */
struct DatabaseConfig
{
    SchemaConfig schema;
    /**
     * Buffer-cache frames; 0 selects automatic sizing that reproduces
     * the paper's working-set-to-cache ratio (a 2.8 GB cache against
     * ~100 MB/warehouse ⇒ the cache covers ~28.7 warehouses of
     * read-hot blocks).
     */
    std::uint64_t sgaFrames = 0;
    /** Warehouse-equivalents the cache covers under automatic sizing. */
    double cacheWarehouseEquivalents = 28.7;
    /**
     * Fraction of warm-filled blocks marked dirty, reproducing the
     * steady-state dirty population a long-running instance carries
     * (evicting them yields the write-back traffic of Figure 7).
     */
    double warmDirtyFraction = 0.20;
    DbCostModel costs;
    DbWriterConfig dbwr;
};

/**
 * One database engine instance.
 */
class Database
{
  public:
    Database(os::System &sys, const DatabaseConfig &cfg);

    /** Spawn the background processes (LGWR, DBWR). */
    void start();

    /**
     * Instantly populate the buffer cache in hotness order —
     * substitute for the paper's 20-minute warm-up run. One pass of
     * BufferCache::warmFill() over Schema::enumerateWarm()'s stream;
     * the cache must be empty.
     */
    void instantWarm();

    os::System &sys() { return sys_; }
    Schema &schema() { return schema_; }
    const Schema &schema() const { return schema_; }
    BufferCache &bufferCache() { return bufcache_; }
    const BufferCache &bufferCache() const { return bufcache_; }
    LockManager &locks() { return locks_; }
    LogManager &log() { return log_; }
    DbWriter &dbwr() { return dbwr_; }
    const DbCostModel &costs() const { return cfg_.costs; }
    const DatabaseConfig &config() const { return cfg_; }

    void resetStats();

  private:
    static std::uint64_t resolveFrames(const DatabaseConfig &cfg,
                                       const Schema &schema);

    os::System &sys_;
    DatabaseConfig cfg_;
    Schema schema_;
    BufferCache bufcache_;
    LockManager locks_;
    LogManager log_;
    DbWriter dbwr_;
};

} // namespace odbsim::db

#endif // ODBSIM_DB_DATABASE_HH
