/**
 * @file
 * CSV persistence for study results, so expensive characterization
 * sweeps can be archived, diffed and shared between tools.
 */

#ifndef ODBSIM_CORE_STUDY_IO_HH
#define ODBSIM_CORE_STUDY_IO_HH

#include <iosfwd>
#include <string>

#include "core/scaling_study.hh"

namespace odbsim::core
{

/** Serialize a study as CSV (one row per measured configuration). */
void saveStudyCsv(const StudyResult &study, std::ostream &out);
bool saveStudyCsv(const StudyResult &study, const std::string &path);

/**
 * Serialize the host-side profile of a study (per-point wall time,
 * events fired, events/sec) as CSV.
 *
 * Deliberately a separate sidecar, never part of saveStudyCsv: wall
 * time is nondeterministic, and the golden study CSVs must regenerate
 * bit-identically across hosts and runs.
 */
void saveStudyProfileCsv(const StudyResult &study, std::ostream &out);
bool saveStudyProfileCsv(const StudyResult &study,
                         const std::string &path);

/**
 * Parse a study from CSV written by saveStudyCsv.
 * @return false on missing file or malformed content.
 */
bool loadStudyCsv(std::istream &in, StudyResult &out);
bool loadStudyCsv(const std::string &path, StudyResult &out);

} // namespace odbsim::core

#endif // ODBSIM_CORE_STUDY_IO_HH
