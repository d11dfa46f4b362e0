#pragma once

/// \file batch_kernels.h
/// Vectorized analysis kernels over flat arrays.
///
/// The K-device platform bound is, per DAG, two data-parallel reductions
/// over flat arrays — per-device volume sums over `wcet`/`device`, and a
/// longest-path relaxation over the CSR in topological order — followed by
/// per-m rational arithmetic.  The volume reduction has an explicit AVX2
/// path (masked 4×int64 accumulation per device class) selected once at
/// runtime via CPU-feature dispatch; `batch_kernel_backend()` names the
/// active backend and the scalar reference implementation stays callable
/// so tests can pin SIMD == scalar on every input.
/// analysis::platform_quantities (platform_rta.h) is the kernel's one
/// caller on the bound path, and `analyze_platform_batch` applies that
/// producer and platform_bound to every DAG of an arena batch.

#include <span>
#include <vector>

#include "analysis/platform_rta.h"
#include "graph/flat_batch.h"
#include "util/fraction.h"

namespace hedra::analysis {

/// The volume-kernel backend selected at process start: "avx2" or "scalar".
[[nodiscard]] const char* batch_kernel_backend() noexcept;

/// Adds Σ wcet[i] over nodes placed on device d into out[d], for every
/// d <= out.size()-1.  `wcets` and `devices` are one DAG's (or any
/// contiguous) attribute slice; entries of `out` are accumulated into, not
/// overwritten.  Dispatches to the AVX2 path when available.
void accumulate_device_volumes(std::span<const graph::Time> wcets,
                               std::span<const graph::DeviceId> devices,
                               std::span<graph::Time> out);

/// Scalar reference implementation of the same kernel (the dispatch target
/// on non-AVX2 hosts; exposed so tests can compare backends).
void accumulate_device_volumes_scalar(std::span<const graph::Time> wcets,
                                      std::span<const graph::DeviceId> devices,
                                      std::span<graph::Time> out);

/// The K-device chain bound for every (DAG, core-count) pair of a batch.
struct PlatformBatchAnalysis {
  std::vector<PlatformQuantities> quantities;  ///< one per DAG
  std::vector<Frac> bounds;                    ///< DAG-major, cores minor
  std::size_t num_cores = 0;

  [[nodiscard]] const Frac& bound(std::size_t dag, std::size_t mi) const {
    return bounds[dag * num_cores + mi];
  }
};

/// platform_bound(platform_quantities(batch.view(i)), batch.view(i),
/// cores[mi], device_units, device_speedup) for every DAG i and core count
/// cores[mi]; empty spans default to one unit at unit speed per class (the
/// paper's single-unit platform).
[[nodiscard]] PlatformBatchAnalysis analyze_platform_batch(
    const graph::FlatDagBatch& batch, std::span<const int> cores,
    std::span<const int> device_units = {},
    std::span<const Frac> device_speedup = {});

}  // namespace hedra::analysis
