#include "analysis/batch_kernels.h"

#include <cstdint>
#include <cstring>

#include "util/error.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HEDRA_BATCH_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace hedra::analysis {

namespace {

using graph::DeviceId;
using graph::Time;

void volumes_scalar(const Time* wcet, const DeviceId* device, std::size_t n,
                    Time* out, std::size_t num_devices) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d = device[i];
    if (d < num_devices) out[d] += wcet[i];
  }
}

#if HEDRA_BATCH_KERNELS_X86
/// One masked-accumulation sweep per device class: widen 4 u16 device ids to
/// 4 i64 lanes, compare against the broadcast class id and AND the compare
/// mask (all-ones per matching lane) into the 4 wcet lanes before adding.
/// A DAG's wcets fit int64 sums by construction (vol(G) does), so the lane
/// adds cannot wrap.
__attribute__((target("avx2"))) void volumes_avx2(const Time* wcet,
                                                  const DeviceId* device,
                                                  std::size_t n, Time* out,
                                                  std::size_t num_devices) {
  for (std::size_t d = 0; d < num_devices; ++d) {
    const __m256i target = _mm256_set1_epi64x(static_cast<long long>(d));
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      std::uint64_t packed = 0;  // 4 contiguous u16 device ids
      std::memcpy(&packed, device + i, sizeof(packed));
      const __m256i dev64 =
          _mm256_cvtepu16_epi64(_mm_cvtsi64_si128(static_cast<long long>(packed)));
      const __m256i mask = _mm256_cmpeq_epi64(dev64, target);
      const __m256i w =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wcet + i));
      acc = _mm256_add_epi64(acc, _mm256_and_si256(w, mask));
    }
    alignas(32) Time lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    Time sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) {
      if (device[i] == d) sum += wcet[i];
    }
    out[d] += sum;
  }
}
#endif

using VolumesFn = void (*)(const Time*, const DeviceId*, std::size_t, Time*,
                           std::size_t);

struct Backend {
  VolumesFn fn;
  const char* name;
};

Backend resolve_backend() noexcept {
#if HEDRA_BATCH_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return {&volumes_avx2, "avx2"};
#endif
  return {&volumes_scalar, "scalar"};
}

const Backend kBackend = resolve_backend();

}  // namespace

const char* batch_kernel_backend() noexcept { return kBackend.name; }

void accumulate_device_volumes(std::span<const Time> wcets,
                               std::span<const DeviceId> devices,
                               std::span<Time> out) {
  HEDRA_REQUIRE(wcets.size() == devices.size(),
                "wcet/device spans must have equal length");
  kBackend.fn(wcets.data(), devices.data(), wcets.size(), out.data(),
              out.size());
}

void accumulate_device_volumes_scalar(std::span<const Time> wcets,
                                      std::span<const DeviceId> devices,
                                      std::span<Time> out) {
  HEDRA_REQUIRE(wcets.size() == devices.size(),
                "wcet/device spans must have equal length");
  volumes_scalar(wcets.data(), devices.data(), wcets.size(), out.data(),
                 out.size());
}

PlatformBatchAnalysis analyze_platform_batch(
    const graph::FlatDagBatch& batch, std::span<const int> cores,
    std::span<const int> device_units, std::span<const Frac> device_speedup) {
  PlatformBatchAnalysis out;
  out.num_cores = cores.size();
  out.quantities.reserve(batch.size());
  out.bounds.reserve(batch.size() * cores.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const graph::FlatView view = batch.view(i);
    const PlatformQuantities& q =
        out.quantities.emplace_back(platform_quantities(view));
    for (const int m : cores) {
      out.bounds.push_back(
          platform_bound(q, view, m, device_units, device_speedup));
    }
  }
  return out;
}

}  // namespace hedra::analysis
