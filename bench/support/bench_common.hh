/**
 * @file
 * Shared infrastructure for the reproduction benches: each bench
 * regenerates one table or figure of the paper. The full W x P
 * characterization study is expensive, so its results are cached in a
 * CSV in the --csv-dir directory and shared by every bench binary
 * (delete the file, or set ODBSIM_NO_CACHE=1, to force remeasurement).
 */

#ifndef ODBSIM_BENCH_SUPPORT_BENCH_COMMON_HH
#define ODBSIM_BENCH_SUPPORT_BENCH_COMMON_HH

#include <functional>
#include <string>

#include "core/scaling_study.hh"

namespace odbsim::bench
{

/** The W grid used by the paper-figure benches. */
std::vector<unsigned> figureWarehouseGrid();

/**
 * Parse the shared bench command line — the single home of the
 * CLI/env parsing every bench main shares:
 *
 *  - `--jobs N` / `-j N` (env `ODBSIM_JOBS`): worker count used to
 *    measure study grid points (0 = one worker per hardware thread,
 *    1 = serial; default);
 *  - `--profile` (env `ODBSIM_PROFILE`): print per-grid-point wall
 *    time and events fired as points complete (and a study total),
 *    plus write a `*_profile.csv` sidecar next to the study cache;
 *  - `--csv-dir DIR` (env `ODBSIM_CSV_DIR`): directory for every CSV
 *    a bench writes (study caches, their profile sidecars, the
 *    islands and faults sweeps). Defaults to the directory holding
 *    the bench binary — the build tree — so stray CSVs never land in
 *    the source tree or whatever directory the bench was invoked from.
 *
 * Flags win over the environment. A missing, malformed or
 * out-of-range value, from either, stops the bench with a one-line
 * message and exit code 2. Unknown arguments are ignored so
 * bench-specific flags can coexist. Results are seed-deterministic
 * regardless of the job count (profiling only observes, never
 * perturbs, the simulation).
 */
void parseArgs(int argc, char **argv);

/** The worker count selected by parseArgs()/ODBSIM_JOBS (default 1). */
unsigned studyJobs();

/** True if --profile / ODBSIM_PROFILE=1 requested per-point timing. */
bool profileEnabled();

/** CSV directory selected by --csv-dir/ODBSIM_CSV_DIR (default: the
 *  directory holding the bench binary). */
const std::string &csvDir();

/**
 * Obtain the full characterization study for @p machine, from the CSV
 * cache when present, measuring (and caching) otherwise.
 */
core::StudyResult sharedStudy(core::MachineKind machine);

/** Serialize a study to CSV. */
void saveStudy(const core::StudyResult &study, const std::string &path);

/** Load a study from CSV; returns false if absent/invalid. */
bool loadStudy(const std::string &path, core::StudyResult &out);

/** Print the standard bench banner. */
void banner(const char *artifact, const char *caption);

/**
 * Print one metric as a W-by-P table (the shape of the paper's
 * line-chart figures).
 */
void printMetricByW(const core::StudyResult &study, const char *metric,
                    const std::function<double(const core::RunResult &)>
                        &get,
                    int decimals = 2);

/** Print the paper's qualitative expectation for this artifact. */
void paperNote(const char *note);

} // namespace odbsim::bench

#endif // ODBSIM_BENCH_SUPPORT_BENCH_COMMON_HH
