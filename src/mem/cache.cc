#include "mem/cache.hh"

#include "sim/logging.hh"

namespace odbsim::mem
{

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry &geom)
    : name_(std::move(name))
{
    odbsim_assert(geom.sizeBytes > 0 && geom.assoc > 0 &&
                      geom.lineBytes > 0,
                  "bad cache geometry for ", name_);
    odbsim_assert(geom.assoc <= maxAssoc, name_, " has ", geom.assoc,
                  " ways; a tag store holds at most ", maxAssoc);
    odbsim_assert(std::has_single_bit(geom.lineBytes),
                  "line size must be a power of two for ", name_);
    odbsim_assert(geom.sizeBytes % (geom.assoc * geom.lineBytes) == 0,
                  "cache size must be a multiple of assoc * line for ",
                  name_);
    const std::uint64_t num_sets = geom.numSets();
    odbsim_assert(std::has_single_bit(num_sets),
                  "number of sets must be a power of two for ", name_);
    lineShift_ = static_cast<unsigned>(std::countr_zero(geom.lineBytes));
    tagShift_ =
        lineShift_ + static_cast<unsigned>(std::countr_zero(num_sets));
    setMask_ = num_sets - 1;
    // A stride of 16 for every set would double the tags and the
    // compares of the 8-way sets most presets use.
    strideShift_ = geom.assoc <= 8 ? 3 : 4;
    allWays_ = (std::uint32_t{1} << geom.assoc) - 1;
    lruShift_ = 4 * (geom.assoc - 1);
    tags_.resize(num_sets << strideShift_);
    sets_.resize(num_sets);
}

void
SetAssocCache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
    writebacks_ = 0;
}

} // namespace odbsim::mem
