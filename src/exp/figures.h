#pragma once

/// \file figures.h
/// The eight figure programs as declared Figures (see exp/figure.h), each
/// run by `bench/<program>.cpp` through exp::run_figure.

#include "exp/figure.h"

namespace hedra::exp {

[[nodiscard]] Figure fig6_figure();   ///< fig6_transform_impact
[[nodiscard]] Figure fig7_figure();   ///< fig7_accuracy_vs_ilp
[[nodiscard]] Figure fig8_figure();   ///< fig8_scenarios
[[nodiscard]] Figure fig9_figure();   ///< fig9_hom_vs_het
[[nodiscard]] Figure fig10_figure();  ///< fig10_multi_device
[[nodiscard]] Figure fig11_figure();  ///< fig11_units
[[nodiscard]] Figure fig12_figure();  ///< fig12_taskset
[[nodiscard]] Figure ablation_figure();  ///< ablation_policies

}  // namespace hedra::exp
