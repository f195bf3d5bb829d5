/**
 * @file
 * CSV output for study results, so characterization sweeps can be
 * archived and diffed byte for byte across builds and job counts.
 */

#ifndef ODBSIM_CORE_STUDY_IO_HH
#define ODBSIM_CORE_STUDY_IO_HH

#include <iosfwd>

#include "core/scaling_study.hh"

namespace odbsim::core
{

/**
 * Serialize a study as CSV: a header, then one row per measured
 * configuration in grid order, floating-point values at 12
 * significant digits. Host-side timing (wallSeconds, eventsFired) is
 * left out, so the file regenerates byte for byte.
 */
void saveStudyCsv(const StudyResult &study, std::ostream &out);

} // namespace odbsim::core

#endif // ODBSIM_CORE_STUDY_IO_HH
