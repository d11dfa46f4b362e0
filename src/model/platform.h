#pragma once

/// \file platform.h
/// First-class description of the heterogeneous execution platform.
///
/// The paper's system model (§2) fixes the platform implicitly: m identical
/// host cores plus ONE accelerator device.  The multi-device extension makes
/// the platform explicit — m identical host cores plus K *named* accelerator
/// device classes (GPU, FPGA, DSP, ...).  Each class d provides n_d >= 1
/// identical execution units (the paper's accelerator is the special case
/// n_d = 1, which every API here defaults to).  Device ids follow the graph
/// convention: device 0 is the host pool and device d ∈ [1, K] is the d-th
/// accelerator class (see graph::DeviceId).
///
/// A Platform is pure data; compatibility with a concrete DAG (every node
/// placed on an existing device) is checked by check_supports.
/// The spec syntax is "m:name1,name2,..." with an optional "*units" suffix
/// per class — "4:gpu*2,dsp" is 4 host cores, a 2-unit GPU class and a
/// single-unit DSP — so every pre-multiplicity spec round-trips unchanged.
/// Each class may additionally carry a "@speedup" factor ("4:gpu*2@3.0,
/// dsp@1.5"): device d runs nominal WCETs speedup_d times faster than the
/// reference device the WCETs were measured on.  The default 1.0 is omitted
/// on output, so every pre-speedup spec still round-trips byte-identically.

#include <string>
#include <vector>

#include "graph/dag.h"
#include "util/fraction.h"

namespace hedra::model {

/// m identical host cores + K named accelerator device classes with n_d
/// execution units each.
struct Platform {
  int cores = 2;                          ///< m
  std::vector<std::string> device_names;  ///< index i names device id i + 1
  /// Execution units per device class, aligned with device_names.  An empty
  /// vector — the pre-multiplicity representation — means one unit per
  /// class; validate() also accepts exactly one entry per class.
  std::vector<int> device_units;
  /// WCET scaling per device class, aligned with device_names: device d
  /// executes a nominal WCET of C in C/speedup_d ticks (heterogeneous WCET
  /// scaling; GPU-vs-DSP asymmetry).  Empty — the pre-speedup
  /// representation — means 1 (no scaling) everywhere; validate() also
  /// accepts exactly one strictly positive entry per class.  Exact
  /// rationals, so "@1.5" scales by exactly 3/2.
  std::vector<Frac> device_speedup;

  /// Number of accelerator device classes, K.
  [[nodiscard]] int num_devices() const noexcept {
    return static_cast<int>(device_names.size());
  }

  /// Name of accelerator device d ∈ [1, K]; throws on out-of-range ids.
  [[nodiscard]] const std::string& device_name(graph::DeviceId device) const;

  /// Execution units n_d of accelerator device d ∈ [1, K]; throws on
  /// out-of-range ids.  Entries missing from device_units — including the
  /// whole empty vector — count as 1.
  [[nodiscard]] int units_of(graph::DeviceId device) const;

  /// True iff some device class has more than one execution unit.
  [[nodiscard]] bool has_multi_units() const noexcept;

  /// WCET speedup of accelerator device d ∈ [1, K]; throws on out-of-range
  /// ids.  Entries missing from device_speedup — including the whole empty
  /// vector — count as 1.
  [[nodiscard]] Frac speedup_of(graph::DeviceId device) const;

  /// True iff some device class has a speedup factor different from 1.
  [[nodiscard]] bool has_speedups() const noexcept;

  /// m cores + K accelerators named "acc1".."accK", `units` execution units
  /// each (default 1, the pre-multiplicity shape).
  [[nodiscard]] static Platform symmetric(int cores, int num_devices,
                                          int units = 1);

  /// Parses "m" or "m:name1,name2,..." where every name may carry a
  /// "*units" multiplicity suffix and/or a "@speedup" factor (e.g.
  /// "4:gpu*2@3.0,dsp@1.5" = 4 host cores, a 2-unit 3×-speed "gpu" class
  /// and a 1-unit 1.5×-speed "dsp" class; "*units" must precede "@").
  /// Throws hedra::Error — always naming the offending spec — on malformed
  /// input: missing or non-numeric core count, empty or duplicate device
  /// names, names containing spec metacharacters, missing or non-positive
  /// unit counts, malformed or non-positive speedups, and device counts
  /// beyond kMaxParsedDevices.  Inverse of spec().
  [[nodiscard]] static Platform parse(const std::string& text);

  /// Device-count cap for parse(): DeviceId is narrow and every analysis
  /// is linear-or-worse in K, so a spec listing thousands of devices is
  /// hostile input, not a real platform.
  static constexpr std::size_t kMaxParsedDevices = 1024;

  /// Machine-readable "m:name1,name2*units@speedup,..." (just "m" when
  /// K = 0; "*units" only where n_d > 1 and "@speedup" only where
  /// speedup ≠ 1, so single-unit unit-speed platforms round-trip to the
  /// historical syntax).
  [[nodiscard]] std::string spec() const;

  /// Human-readable, e.g. "4 host cores + accelerators gpu(d1 x2), dsp(d2)".
  [[nodiscard]] std::string describe() const;

  /// Throws hedra::Error if cores < 1, any device name is empty, duplicated
  /// or contains spec metacharacters (':', ',', '*', '@', whitespace),
  /// device_units is neither empty nor one positive entry per class, or
  /// device_speedup is neither empty nor one strictly positive entry per
  /// class.
  void validate() const;
};

/// Human-readable placement violations of `dag` on `platform` (nodes placed
/// on devices the platform does not provide); empty means compatible.
[[nodiscard]] std::vector<std::string> check_supports(const Platform& platform,
                                                      const graph::Dag& dag);

/// Smallest platform accommodating `dag`: m host cores plus one single-unit
/// device class per accelerator id in [1, max_device], named "acc<d>".
[[nodiscard]] Platform platform_for(const graph::Dag& dag, int cores);

}  // namespace hedra::model
