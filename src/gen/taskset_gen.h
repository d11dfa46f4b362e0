#pragma once

/// \file taskset_gen.h
/// Per-task utilisations for random task-set generation: UUniFast (Bini &
/// Buttazzo), the standard sampler of the real-time literature.  The
/// task-set generator itself (DAG structure, periods, deadlines) is
/// taskset::generate_task_set in taskset/gen.h.

#include <vector>

#include "util/rng.h"

namespace hedra::gen {

/// UUniFast: `n` utilisations, each in (0, total), summing to `total`.
/// The classic unbiased sampler over the utilisation simplex.
[[nodiscard]] std::vector<double> uunifast(int n, double total, Rng& rng);

}  // namespace hedra::gen
