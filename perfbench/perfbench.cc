/**
 * @file
 * odbsim_perfbench: measures what odbsim's users pay in host time for
 * one grid point or one full study, stage by stage.
 *
 * Runs one workload as a closed loop of back-to-back iterations from a
 * single process until the time budget is spent, and prints one JSON
 * object per line on stdout: provenance, the rows of the library's own
 * run (the reference), one record per grid point and one per
 * iteration. run.py turns these into the benchmark's metrics and
 * checks every row against the pinned digests.
 *
 * Grid points run through the stages of
 * core::ExperimentRunner::runWithPreset, rebuilt here from each
 * layer's public calls so that every stage can be timed from outside.
 * The rows they produce must equal the library's bit for bit.
 *
 * Usage:
 *   odbsim_perfbench
 *       --workload <cached_point|scale_100x|scale_100x_1p|xeon_study>
 *       --seed <n> --seconds <s> --trace <0|1> [--reference-only]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cpi_breakdown.hh"
#include "analysis/iron_law.hh"
#include "core/client_table.hh"
#include "core/experiment.hh"
#include "core/machine.hh"
#include "core/scaling_study.hh"
#include "core/study_io.hh"
#include "db/database.hh"
#include "odb/workload.hh"
#include "os/system.hh"
#include "perfmon/events.hh"

namespace
{

using namespace odbsim;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Measure-window slices of a traced grid point. */
constexpr unsigned traceSlices = 30;

/** Reported set-up passes over xeon_study's widest series. */
constexpr unsigned studySetupPasses = 5;

/**
 * The closed loop's time budget: at least two iterations (so traced
 * and untraced runs both occur), then another only while it is
 * expected to end within the budget.
 */
class Budget
{
  public:
    explicit Budget(double seconds) : seconds_(seconds) {}

    bool
    another(unsigned iter)
    {
        const double elapsed = since(start_);
        const double last = elapsed - lastStart_;
        lastStart_ = elapsed;
        return iter < 2 || elapsed + last <= seconds_;
    }

  private:
    Clock::time_point start_ = Clock::now();
    double seconds_;
    double lastStart_ = 0.0;
};

/**
 * Moves the calling thread round the CPUs the process may use. On a
 * shared host a neighbour's load slows one core at a time, for minutes;
 * a loop that takes the cores in turn still finds a free one, so its
 * fastest iteration stays steady from run to run.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
            }
        }
    }

    /** Pin the calling thread to the next CPU in turn. */
    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[next_++ % cpus_.size()], &set);
        sched_setaffinity(0, sizeof set, &set);
    }

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** One JSON object printed on one line, built field by field. */
class JsonLine
{
  public:
    explicit JsonLine(const char *type) { str("type", type); }

    JsonLine &
    num(const char *k, double v)
    {
        key(k);
        body_ += number(v);
        return *this;
    }

    JsonLine &
    str(const char *k, const std::string &v)
    {
        key(k);
        body_ += quoted(v);
        return *this;
    }

    JsonLine &
    nums(const char *k, const std::vector<double> &v)
    {
        key(k);
        body_ += '[';
        for (std::size_t i = 0; i < v.size(); ++i)
            body_ += sep(i) + number(v[i]);
        body_ += ']';
        return *this;
    }

    JsonLine &
    strs(const char *k, const std::vector<std::string> &v)
    {
        key(k);
        body_ += '[';
        for (std::size_t i = 0; i < v.size(); ++i)
            body_ += sep(i) + quoted(v[i]);
        body_ += ']';
        return *this;
    }

    void print() const { std::printf("{%s}\n", body_.c_str()); }

  private:
    void
    key(const char *k)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += quoted(k);
        body_ += ':';
    }

    static std::string
    sep(std::size_t i)
    {
        return i ? "," : "";
    }

    static std::string
    number(double v)
    {
        // Python's json module reads these non-standard tokens.
        if (std::isnan(v))
            return "NaN";
        if (std::isinf(v))
            return v > 0 ? "Infinity" : "-Infinity";
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

    static std::string
    quoted(const std::string &s)
    {
        std::string out = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                out += c;
        }
        return out + '"';
    }

    std::string body_;
};

/** What one workload measures. */
struct Workload
{
    core::OltpConfiguration cfg; ///< The grid point (point workloads).
    core::RunKnobs knobs;
    bool study = false;
};

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    w.knobs.seed = seed;
    if (name == "cached_point")
        return true; // W=10 P=4, Table-1 clients, default knobs
    if (name == "scale_100x" || name == "scale_100x_1p") {
        // bench_hotpath's 100x point: windows dialled down so the
        // point stays about half a second of host time. The 1p twin
        // keeps 256 clients per CPU on one CPU.
        const bool one = name == "scale_100x_1p";
        w.cfg.warehouses = 4096;
        w.cfg.processors = one ? 1 : 4;
        w.cfg.clients = one ? 256 : 1024;
        w.knobs.warmup = ticksFromMs(100.0);
        w.knobs.measure = ticksFromMs(400.0);
        w.knobs.warmupPerWarehouseMs = 0.1;
        return true;
    }
    if (name == "xeon_study") {
        w.study = true;
        return true;
    }
    return false;
}

/** Host spans (seconds) and layer counts of one grid point. */
struct PointTrace
{
    double systemCtor = 0, databaseCtor = 0, workloadStart = 0,
           instantWarm = 0;
    double warmup = 0, measure = 0, extract = 0, breakdown = 0,
           wall = 0;
    double eventsRun = 0, eventsWindow = 0, instrRun = 0;
    std::vector<double> sliceMs, pending, sliceNsPerKinstr;
    double l2Refs = 0, l3Misses = 0, coherenceMisses = 0;
    double bufferGets = 0, bufferMisses = 0, lockAcquires = 0,
           lockConflicts = 0, logBytes = 0, dbwrBlocks = 0;
    double diskReads = 0, diskWrites = 0, ctxSwitches = 0;

    double
    setup() const
    {
        return systemCtor + databaseCtor + workloadStart + instantWarm;
    }
};

/**
 * One grid point through the stages of runWithPreset (default fault
 * plan, event queue, shard and host-thread knobs). @p slices > 0 runs
 * the measure window as that many equal simulated slices and records
 * host time, pending events and retired instructions at each edge.
 * With @p setup_only the point stops after the instant warm-up and
 * the returned result is empty.
 */
core::RunResult
runPoint(const core::OltpConfiguration &cfg, const core::RunKnobs &knobs,
         unsigned slices, PointTrace &t, bool setup_only = false)
{
    const auto start = Clock::now();
    auto t0 = start;
    const core::MachinePreset preset = core::makeMachine(
        cfg.machine, cfg.processors, knobs.samplePeriod, knobs.seed);
    os::System sys(preset.sys);
    t.systemCtor = since(t0);

    t0 = Clock::now();
    db::DatabaseConfig dbcfg;
    dbcfg.schema.warehouses = cfg.warehouses;
    dbcfg.schema.seed = knobs.seed;
    dbcfg.cacheWarehouseEquivalents = preset.cacheWarehouseEquivalents;
    db::Database database(sys, dbcfg);
    database.start();
    t.databaseCtor = since(t0);

    t0 = Clock::now();
    odb::WorkloadConfig wcfg;
    wcfg.clients = cfg.clients ? cfg.clients
                               : core::paperClients(cfg.warehouses,
                                                    preset.sys.numCpus);
    wcfg.seed = knobs.seed * 7919 + cfg.warehouses;
    odb::OdbWorkload workload(database, wcfg);
    workload.start();
    t.workloadStart = since(t0);

    t0 = Clock::now();
    database.instantWarm();
    t.instantWarm = since(t0);
    if (setup_only)
        return {};

    const std::uint64_t events0 = sys.eq().eventsFired();
    t0 = Clock::now();
    sys.runFor(knobs.warmup +
               ticksFromMs(static_cast<double>(cfg.warehouses) *
                           knobs.warmupPerWarehouseMs));
    t.warmup = since(t0);
    const double warm_instr =
        perfmon::SystemCounters::read(sys).instructions.total();
    const std::uint64_t warm_events = sys.eq().eventsFired();

    sys.beginMeasurement();
    workload.resetStats();
    database.resetStats();
    t0 = Clock::now();
    if (slices == 0) {
        sys.runFor(knobs.measure);
    } else {
        const Tick begin = sys.now();
        double prev_instr = 0.0;
        for (unsigned k = 1; k <= slices; ++k) {
            const auto s0 = Clock::now();
            sys.runUntil(begin + knobs.measure * k / slices);
            const double ms = since(s0) * 1e3;
            const double instr =
                perfmon::SystemCounters::read(sys).instructions.total();
            t.sliceMs.push_back(ms);
            t.pending.push_back(static_cast<double>(sys.eq().size()));
            if (instr > prev_instr)
                t.sliceNsPerKinstr.push_back(ms * 1e6 /
                                             ((instr - prev_instr) / 1e3));
            prev_instr = instr;
        }
    }
    t.measure = since(t0);

    // Metric extraction, field for field as runWithPreset does it.
    t0 = Clock::now();
    core::RunResult r;
    r.warehouses = cfg.warehouses;
    r.processors = preset.sys.numCpus;
    r.clients = wcfg.clients;

    const Tick window = sys.measurementWindow();
    r.measureSeconds = secondsFromTicks(window);
    r.txnsCommitted = workload.committed();
    r.tps = workload.tps(window);

    r.counters = perfmon::SystemCounters::read(sys);
    r.counters.busUtilization =
        sys.memsys().bus().utilizationStat().mean();
    r.counters.ioqCycles = sys.memsys().bus().ioqStat().mean();

    r.cpuUtil = sys.avgCpuUtilization();
    const auto &c = r.counters;
    r.osCycleShare =
        c.cycles.total() > 0.0 ? c.cycles.os / c.cycles.total() : 0.0;
    r.osInstrShare = c.instructions.total() > 0.0
                         ? c.instructions.os / c.instructions.total()
                         : 0.0;
    const double txns = static_cast<double>(r.txnsCommitted);
    if (txns > 0.0) {
        r.ipx = c.instructions.total() / txns;
        r.ipxUser = c.instructions.user / txns;
        r.ipxOs = c.instructions.os / txns;
    }
    r.cpi = c.cpi();
    r.cpiUser = c.cpiUser();
    r.cpiOs = c.cpiOs();
    r.mpi = c.mpi();
    r.mpiUser = c.mpiUser();
    r.mpiOs = c.mpiOs();
    r.ironLawTps = analysis::ironLawTpsAtUtilization(
        preset.sys.numCpus, preset.sys.core.freqHz, r.ipx, r.cpi,
        r.cpuUtil);

    const auto &disks = sys.disks();
    if (txns > 0.0) {
        r.diskReadKbPerTxn =
            static_cast<double>(disks.dataBytesRead()) / 1024.0 / txns;
        r.diskWriteKbPerTxn =
            static_cast<double>(disks.dataBytesWritten()) / 1024.0 /
            txns;
        r.logKbPerTxn =
            static_cast<double>(disks.logBytesWritten()) / 1024.0 / txns;
        r.diskReadsPerTxn = static_cast<double>(disks.dataReads()) / txns;
        r.ctxPerTxn =
            static_cast<double>(sys.sched().contextSwitches()) / txns;
    }
    r.bufferHitRatio = database.bufferCache().hitRatio();
    r.avgDiskUtil = disks.avgDataUtilization(window);
    r.diskReadLatencyMs = disks.avgReadLatencyMs();
    r.busUtil = r.counters.busUtilization;
    r.ioqCycles = r.counters.ioqCycles;
    r.coherenceShareOfL3 =
        c.l3Misses.total() > 0.0
            ? c.coherenceMisses.total() / c.l3Misses.total()
            : 0.0;

    const auto b0 = Clock::now();
    r.breakdown =
        analysis::computeCpiBreakdown(r.counters, knobs.ioq1pCycles);
    t.breakdown = since(b0);
    t.extract = since(t0);

    r.eventsFired = sys.eq().eventsFired();
    r.wallSeconds = since(start);
    t.wall = r.wallSeconds;

    // Layer counts over the measure window (outside every span).
    t.eventsRun = static_cast<double>(r.eventsFired - events0);
    t.eventsWindow = static_cast<double>(r.eventsFired - warm_events);
    t.instrRun = warm_instr + c.instructions.total();
    for (unsigned i = 0; i < sys.memsys().numCpus(); ++i)
        t.l2Refs += static_cast<double>(
            sys.memsys().cpu(i).totalCounters().l2Accesses());
    t.l3Misses = c.l3Misses.total();
    t.coherenceMisses = c.coherenceMisses.total();
    t.bufferGets = static_cast<double>(database.bufferCache().gets());
    t.bufferMisses = static_cast<double>(database.bufferCache().misses());
    t.lockAcquires = static_cast<double>(database.locks().acquires());
    t.lockConflicts = static_cast<double>(database.locks().conflicts());
    t.logBytes = static_cast<double>(database.log().bytesFlushed());
    t.dbwrBlocks = static_cast<double>(database.dbwr().blocksWritten());
    t.diskReads = static_cast<double>(disks.dataReads());
    t.diskWrites = static_cast<double>(disks.totalWrites());
    t.ctxSwitches = static_cast<double>(sys.sched().contextSwitches());
    return r;
}

/**
 * Every field saveStudyCsv writes, one row per grid point in grid
 * order, each followed by the point's event count.
 */
std::vector<std::string>
rowTexts(const core::StudyResult &study)
{
    std::ostringstream csv;
    core::saveStudyCsv(study, csv);
    std::istringstream lines(csv.str());
    std::string line;
    std::getline(lines, line); // header
    std::vector<std::string> rows;
    for (const auto &series : study.series) {
        for (const auto &r : series.points) {
            std::getline(lines, line);
            rows.push_back(line + ",events=" +
                           std::to_string(r.eventsFired));
        }
    }
    return rows;
}

core::StudyResult
singlePoint(const core::RunResult &r)
{
    core::StudyResult s;
    s.series.push_back({r.processors, {r}});
    return s;
}

void
printPoint(unsigned iter, bool traced, const core::RunResult &r,
           const PointTrace &t)
{
    JsonLine("point")
        .num("iter", iter)
        .num("traced", traced)
        .num("warehouses", r.warehouses)
        .num("system_ctor_s", t.systemCtor)
        .num("database_ctor_s", t.databaseCtor)
        .num("workload_start_s", t.workloadStart)
        .num("instant_warm_s", t.instantWarm)
        .num("setup_s", t.setup())
        .num("warmup_s", t.warmup)
        .num("measure_s", t.measure)
        .num("extract_s", t.extract)
        .num("breakdown_s", t.breakdown)
        .num("wall_s", t.wall)
        .num("events_run", t.eventsRun)
        .num("events_window", t.eventsWindow)
        .num("instr_run", t.instrRun)
        .num("instr_window", r.counters.instructions.total())
        .num("txns", static_cast<double>(r.txnsCommitted))
        .nums("slice_ms", t.sliceMs)
        .nums("pending", t.pending)
        .nums("slice_ns_per_kinstr", t.sliceNsPerKinstr)
        .num("l2_refs", t.l2Refs)
        .num("l3_misses", t.l3Misses)
        .num("coherence_misses", t.coherenceMisses)
        .num("bus_util", r.busUtil)
        .num("ioq_cycles", r.ioqCycles)
        .num("buffer_gets", t.bufferGets)
        .num("buffer_misses", t.bufferMisses)
        .num("lock_acquires", t.lockAcquires)
        .num("lock_conflicts", t.lockConflicts)
        .num("log_bytes", t.logBytes)
        .num("dbwr_blocks", t.dbwrBlocks)
        .num("disk_reads", t.diskReads)
        .num("disk_writes", t.diskWrites)
        .num("ctx_switches", t.ctxSwitches)
        .print();
}

/** Closed loop of one grid point, each pair of iterations on the next
 *  CPU; in trace mode the first of each pair is sliced, so a traced
 *  iteration and its untraced twin share a core. */
void
pointLoop(const Workload &w, double seconds, bool trace,
          bool reference_only)
{
    const core::RunResult ref = core::ExperimentRunner::run(w.cfg, w.knobs);
    JsonLine("reference").strs("rows", rowTexts(singlePoint(ref))).print();
    if (reference_only)
        return;

    CpuRotation cpus;
    Budget budget(seconds);
    for (unsigned i = 0; budget.another(i); ++i) {
        if (i % 2 == 0)
            cpus.next();
        const bool traced = trace && i % 2 == 0;
        PointTrace t;
        const auto it0 = Clock::now();
        const core::RunResult r =
            runPoint(w.cfg, w.knobs, traced ? traceSlices : 0, t);
        const double done = since(it0);
        const auto rows = rowTexts(singlePoint(r));
        const double wall = since(it0);
        printPoint(i, traced, r, t);
        JsonLine("iter")
            .num("iter", i)
            .num("traced", traced)
            .num("pool", traced)
            .num("jobs", 1)
            .num("wall_s", wall)
            .nums("completions", {done})
            .nums("point_walls", {r.wallSeconds})
            .strs("rows", rows)
            .print();
    }
}

/** One sweep through core::ScalingStudy::run plus the pivot fits. */
void
runStudy(const core::RunKnobs &knobs, unsigned jobs, unsigned iter,
         bool timestamps)
{
    core::StudyConfig sc;
    sc.knobs = knobs;
    sc.jobs = jobs;
    std::vector<double> completions;
    const auto t0 = Clock::now();
    if (timestamps) {
        // onPoint calls are serialized by the study.
        sc.onPoint = [&](const core::RunResult &) {
            completions.push_back(since(t0));
        };
    }
    const core::StudyResult study = core::ScalingStudy::run(sc);
    const auto f0 = Clock::now();
    std::vector<double> pivots;
    for (const auto &s : study.series)
        pivots.push_back(s.cpiFit().pivotX);
    for (const auto &s : study.series)
        pivots.push_back(s.mpiFit().pivotX);
    const double fit = since(f0);
    const double wall = since(t0);

    std::vector<double> walls;
    double events = 0.0, instr = 0.0;
    for (const auto &s : study.series) {
        for (const auto &r : s.points) {
            walls.push_back(r.wallSeconds);
            events += static_cast<double>(r.eventsFired);
            instr += r.counters.instructions.total();
        }
    }
    JsonLine("iter")
        .num("iter", iter)
        .num("traced", 0)
        .num("pool", timestamps)
        .num("jobs", jobs)
        .num("wall_s", wall)
        .num("fit_s", fit)
        .nums("completions", completions)
        .nums("point_walls", walls)
        .num("events_sum", events)
        .num("instr_window_sum", instr)
        .nums("pivots", pivots)
        .strs("rows", rowTexts(study))
        .print();
}

/**
 * The same sweep with every grid point run staged and sliced on
 * @p jobs threads, longest (W×P) first like the study's own pool.
 */
void
runStudyTraced(const core::RunKnobs &knobs, unsigned jobs, unsigned iter)
{
    const core::StudyConfig grid;
    std::vector<core::OltpConfiguration> points;
    for (const unsigned p : grid.processors) {
        for (const unsigned wh : grid.warehouses) {
            core::OltpConfiguration cfg;
            cfg.warehouses = wh;
            cfg.processors = p;
            cfg.machine = grid.machine;
            points.push_back(cfg);
        }
    }
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return points[a].warehouses * points[a].processors >
                                points[b].warehouses * points[b].processors;
                     });

    std::vector<core::RunResult> results(points.size());
    std::vector<PointTrace> traces(points.size());
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    {
        auto worker = [&] {
            for (std::size_t i; (i = next++) < order.size();) {
                const std::size_t k = order[i];
                results[k] =
                    runPoint(points[k], knobs, traceSlices, traces[k]);
            }
        };
        std::vector<std::jthread> pool;
        for (unsigned j = 1; j < jobs; ++j)
            pool.emplace_back(worker);
        worker();
    }
    const double wall = since(t0);

    core::StudyResult study;
    std::size_t k = 0;
    for (const unsigned p : grid.processors) {
        core::StudySeries s{p, {}};
        for (std::size_t n = 0; n < grid.warehouses.size(); ++n, ++k)
            s.points.push_back(results[k]);
        study.series.push_back(std::move(s));
    }
    for (std::size_t i = 0; i < points.size(); ++i)
        printPoint(iter, true, results[i], traces[i]);
    JsonLine("iter")
        .num("iter", iter)
        .num("traced", 1)
        .num("pool", 0)
        .num("jobs", jobs)
        .num("wall_s", wall)
        .strs("rows", rowTexts(study))
        .print();
}

/** Closed loop of full sweeps at one worker per host thread; in trace
 *  mode sweeps alternate between the study and its staged twin. */
void
studyLoop(const Workload &w, double seconds, bool trace, unsigned jobs,
          bool reference_only)
{
    if (reference_only) {
        runStudy(w.knobs, jobs, 0, false);
        return;
    }
    if (!trace) {
        // The sweep's set-up cost: one pass sets up every warehouse
        // count of its widest processor series. The first pass pays
        // the process's first-touch page faults and is not reported.
        const core::StudyConfig grid;
        for (unsigned i = 0; i <= studySetupPasses; ++i) {
            double setup = 0.0;
            for (const unsigned wh : grid.warehouses) {
                core::OltpConfiguration cfg;
                cfg.warehouses = wh;
                cfg.processors = grid.processors.back();
                cfg.machine = grid.machine;
                PointTrace t;
                runPoint(cfg, w.knobs, 0, t, true);
                setup += t.setup();
            }
            if (i > 0)
                JsonLine("setup").num("setup_s", setup).print();
        }
    }
    Budget budget(seconds);
    for (unsigned i = 0; budget.another(i); ++i) {
        if (trace && i % 2 == 1)
            runStudyTraced(w.knobs, jobs, i);
        else
            runStudy(w.knobs, jobs, i, trace);
        std::fflush(stdout);
    }
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "odbsim_perfbench: %s\nusage: odbsim_perfbench "
                 "--workload <cached_point|scale_100x|scale_100x_1p|xeon_study> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--reference-only]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false, reference_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--reference-only") {
            reference_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            name = val;
        } else if (arg == "--seed") {
            seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(val.c_str(), &end);
        } else if (arg == "--trace") {
            trace = val == "1";
            if (val != "0" && val != "1")
                return usage("--trace takes 0 or 1");
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
        if (end && (*end != '\0' || val.empty() || val[0] == '-'))
            return usage(("bad number for " + arg).c_str());
    }
    Workload w;
    if (!makeWorkload(name, seed, w))
        return usage(("unknown workload '" + name + "'").c_str());
    if (!(seconds >= 0.0 && seconds <= 600.0))
        return usage("--seconds must be within [0, 600]");

    const std::string build_type = ODBSIM_PERFBENCH_BUILD_TYPE;
    if (build_type != "Release") {
        std::fprintf(stderr,
                     "odbsim_perfbench: refusing to time a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     build_type.c_str());
        return 3;
    }
    const unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    JsonLine("provenance")
        .num("nproc", jobs)
        .str("cpu", cpuModel())
#if defined(__clang__)
        .str("compiler", "clang " __clang_version__)
#else
        .str("compiler", "gcc " __VERSION__)
#endif
        .str("build_type", build_type)
        .print();

    if (w.study)
        studyLoop(w, seconds, trace, jobs, reference_only);
    else
        pointLoop(w, seconds, trace, reference_only);
    JsonLine("done").num("peak_rss_mb", peakRssMb()).print();
    return 0;
}
