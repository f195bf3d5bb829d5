#include "mem/coherence.hh"

#include "sim/logging.hh"

namespace odbsim::mem
{

CoherenceDirectory::CoherenceDirectory(unsigned num_cpus)
{
    odbsim_assert(num_cpus >= 1 && num_cpus <= maxCoherentCpus,
                  "unsupported CPU count ", num_cpus);
}

void
CoherenceDirectory::reserve(std::size_t lines)
{
    table_.reserve(lines);
}

SnoopState
CoherenceDirectory::snoop(Addr line_addr) const
{
    const LineState *s = table_.find(line_addr);
    if (!s)
        return SnoopState{};
    return SnoopState{true, s->sharers, s->modifiedOwner};
}

void
CoherenceDirectory::onDmaFill(Addr line_addr)
{
    table_.erase(line_addr);
}

} // namespace odbsim::mem
