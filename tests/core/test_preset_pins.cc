/**
 * @file
 * Pinned results of the machines the benchmark does not run. perfbench
 * pins only the Xeon Quad MP on one socket; the grid points below take
 * the other paths through the memory model: the Itanium2's 12-way L3,
 * the CMP's shared 16-way L3, SMT siblings sharing one cache
 * hierarchy, a two-socket Xeon whose misses resolve against
 * per-socket directories and cross the interconnect, and the Itanium2
 * and the CMP on one processor, whose directory sees no second CPU.
 * Each point's study-CSV row, the events it fired and its remote-miss
 * and link figures must match the text below, recorded from an
 * earlier build of the simulator. A change that means to alter the
 * simulated model re-records it; any other change must leave it as it
 * is.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/study_io.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::core;

/** W=10, seed 42, 20 ms of warm-up and 40 ms measured (simulated). */
RunKnobs
pinKnobs()
{
    RunKnobs k;
    k.warmup = ticksFromMs(20.0);
    k.warmupPerWarehouseMs = 0.0;
    k.measure = ticksFromMs(40.0);
    k.seed = 42;
    return k;
}

/** The point's saveStudyCsv row, then eventsFired, remoteMissShare and
 *  linkUtil. */
std::string
pinText(const RunResult &r)
{
    StudyResult study;
    study.series.resize(1);
    study.series[0].processors = r.processors;
    study.series[0].points.push_back(r);
    std::ostringstream csv;
    saveStudyCsv(study, csv);
    const std::string text = csv.str();
    const std::size_t row = text.find('\n') + 1;
    std::ostringstream out;
    out.precision(12);
    out << text.substr(row, text.size() - row - 1) << ';' << r.eventsFired
        << ';' << r.remoteMissShare << ';' << r.linkUtil;
    return out.str();
}

struct Pin
{
    const char *label;
    MachineKind machine;
    unsigned processors;
    unsigned sockets;
    const char *expected;
};

TEST(PresetPins, ResultsMatchTheRecordedText)
{
    const Pin pins[] = {
        {"itanium2 P=4", MachineKind::Itanium2Quad, 4, 1,
         "4,10,10,0.04,45,1125,1130.3900358,0.496861998969"
         ",0.109973720352,0.0588506432778,898847.911111"
         ",845950.133333,52897.7777778,2.93408369898,2.77470475873"
         ",5.48289843969,0.00616097307378,0.00567325271287"
         ",0.0139606788775,8.53333333333,0,5.49223090278"
         ",1.06666666667,3.55555555556,0.980633802817,0.120647481173"
         ",3.8257178336,0.170604146614,103.236928412,0.232166934189"
         ",0.5,0.08,0.07,0.159999382914,0.110335017497,1.85591260478"
         ",0.157836693792;5853;0;0"},
        {"cmp P=4", MachineKind::CmpQuad, 4, 1,
         "4,10,10,0.04,44,1100,1097.54465125,0.520383735431"
         ",0.0999934023614,0.05843051037,910638.818182,857429.727273"
         ",53209.0909091,3.33223277285,3.18514088813,5.70252236901"
         ",0.00720932468286,0.00676991605037,0.0142901076371,10,0"
         ",5.51114169034,1.25,3.5,0.979739010989,0.162578597684"
         ",3.02311178635,0.250545234755,120.106112871"
         ",0.0781544256121,0.5,0.08,0.07,0.159999568734"
         ",0.0950829023422,2.29333025129,0.13382005049;6488;0;0"},
        {"xeon-ht P=2", MachineKind::XeonQuadMpHt, 2, 1,
         "4,10,10,0.04,40,1000,1009.89968471,0.870806171206"
         ",0.0855816153207,0.0490125141401,960877.05,913782.05,47095"
         ",5.74321949968,5.52237077337,10.0283368553"
         ",0.00975900090443,0.00928317644235,0.018991400361,7.8,0"
         ",5.77666015625,0.975,3.2,0.98286326312,0.110355104851"
         ",2.79552593651,0.279321988345,122.380875855,0.026660410357"
         ",0.5,0.08,0.07,0.159995495782,0.067598242668,3.12659725723"
         ",1.739028504;5600;0;0"},
        {"xeon P=4 sockets=2", MachineKind::XeonQuadMp, 4, 2,
         "4,10,10,0.04,38,950,955.037952173,0.812461612069"
         ",0.0880788112614,0.0471795830862,996807.184211"
         ",949778.236842,47028.9473684,5.46199168265,5.22753906161"
         ",10.1969051665,0.00953951053143,0.0090383425516"
         ",0.0196609031392,8.21052631579,0,5.63677014803"
         ",1.02631578947,3.10526315789,0.983600713012,0.110355104851"
         ",2.87572921695,0.151882178431,111.215988396"
         ",0.0784626284095,0.5,0.08,0.07,0.160005605265"
         ",0.0536888924277,2.94976917779"
         ",1.64852800717;5603;0.524087849805;0.131209454631"},
        {"itanium2 P=1", MachineKind::Itanium2Quad, 1, 1,
         "1,10,8,0.04,27,675,675.269756787,0.995418385025"
         ",0.0754785316947,0.0362730311593,844214.592593"
         ",813592.37037,30622.2222222,2.61918854383,2.51263699844"
         ",5.45012366492,0.00521194497064,0.00488223377309"
         ",0.0139719400097,5.03703703704,0,5.31756365741"
         ",0.62962962963,2.11111111111,0.986982248521"
         ",0.0541813347656,4.19397591753,0.0643238451096"
         ",98.2745891912,0,0.5,0.08,0.07,0.160001446008"
         ",0.117354048212,1.56358349119,0.128249558416;3166;0;0"},
        {"cmp P=1", MachineKind::CmpQuad, 1, 1,
         "1,10,8,0.04,23,575,575.281834415,1.00052957485"
         ",0.0709373748179,0.0361551883435,881826.652174"
         ",849944.043478,31882.6086957,3.1556296783,3.04175273609"
         ",6.19142356968,0.00699575530299,0.00664596180833"
         ",0.0163207418519,6.26086956522,0,5.28388247283"
         ",0.782608695652,2.34782608696,0.987127371274"
         ",0.0512641072083,2.79544890967,0.104883965191"
         ",107.740187952,0,0.5,0.08,0.07,0.159999897446"
         ",0.0910678836465,2.1388835412,0.115678356002;2914;0;0"},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.label);
        OltpConfiguration cfg;
        cfg.warehouses = 10;
        cfg.processors = pin.processors;
        cfg.machine = pin.machine;
        cfg.topology.sockets = pin.sockets;
        EXPECT_EQ(pinText(ExperimentRunner::run(cfg, pinKnobs())),
                  pin.expected);
    }
}

} // namespace
