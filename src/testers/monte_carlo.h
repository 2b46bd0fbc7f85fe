// Sample vocabulary shared by all independence testers.
//
// Each tester estimates the literal quantity in its definition from N
// independent executions: fresh input draw, fresh protocol randomness,
// fresh adversary instance, all derived from (seed, repetition index) so a
// whole experiment replays exactly.  The executions themselves run on the
// exec::Runner engine (exec/runner.h); this header names its types in the
// testers' terms and adds the small sample-set helpers.
#pragma once

#include <vector>

#include "exec/runner.h"

namespace simulcast::testers {

/// Everything needed to run one (protocol, adversary, corruption) triple.
using RunSpec = exec::RunSpec;

/// One execution's observables.
using Sample = exec::Sample;

/// Fraction of samples with consistent honest outputs (should be ~1 for a
/// correct parallel-broadcast protocol under any adversary).  Throws
/// UsageError on an empty sample set: 0/0 is not "always inconsistent".
[[nodiscard]] double consistency_rate(const std::vector<Sample>& samples);

/// Sorted honest coordinate list for a sample width and corruption set.
[[nodiscard]] std::vector<std::size_t> honest_indices(std::size_t n,
                                                      const std::vector<sim::PartyId>& corrupted);

}  // namespace simulcast::testers
