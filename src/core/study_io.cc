#include "core/study_io.hh"

#include <ostream>

namespace odbsim::core
{

namespace
{

constexpr const char *csvHeader =
    "processors,warehouses,clients,measureSeconds,txns,tps,ironLawTps,"
    "cpuUtil,osCycleShare,osInstrShare,ipx,ipxUser,ipxOs,cpi,cpiUser,"
    "cpiOs,mpi,mpiUser,mpiOs,rdKb,wrKb,logKb,readsPerTxn,ctxPerTxn,"
    "bufferHit,diskUtil,diskLatMs,busUtil,ioqCycles,cohShare,bInst,"
    "bBranch,bTlb,bTc,bL2,bL3,bOther";

} // namespace

void
saveStudyCsv(const StudyResult &study, std::ostream &out)
{
    out << csvHeader << "\n";
    out.precision(12);
    for (const auto &series : study.series) {
        for (const auto &r : series.points) {
            out << r.processors << ',' << r.warehouses << ','
                << r.clients << ',' << r.measureSeconds << ','
                << r.txnsCommitted << ',' << r.tps << ','
                << r.ironLawTps << ',' << r.cpuUtil << ','
                << r.osCycleShare << ',' << r.osInstrShare << ','
                << r.ipx << ',' << r.ipxUser << ',' << r.ipxOs << ','
                << r.cpi << ',' << r.cpiUser << ',' << r.cpiOs << ','
                << r.mpi << ',' << r.mpiUser << ',' << r.mpiOs << ','
                << r.diskReadKbPerTxn << ',' << r.diskWriteKbPerTxn
                << ',' << r.logKbPerTxn << ',' << r.diskReadsPerTxn
                << ',' << r.ctxPerTxn << ',' << r.bufferHitRatio << ','
                << r.avgDiskUtil << ',' << r.diskReadLatencyMs << ','
                << r.busUtil << ',' << r.ioqCycles << ','
                << r.coherenceShareOfL3 << ',' << r.breakdown.inst
                << ',' << r.breakdown.branch << ',' << r.breakdown.tlb
                << ',' << r.breakdown.tc << ',' << r.breakdown.l2 << ','
                << r.breakdown.l3 << ',' << r.breakdown.other << "\n";
        }
    }
}

} // namespace odbsim::core
