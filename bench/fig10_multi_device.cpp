/// \file fig10_multi_device.cpp
/// Figure 10 (extension): the multi-device sweep the Platform model unlocks.
/// For K = 1..max accelerator device classes and a grid of total offloaded
/// ratios, compares the generalised K-device chain bound R_plat against the
/// simulated makespan of every work-conserving ready-queue policy, per core
/// count m.  Soundness (no policy above the bound, exact rationals) and
/// tightness (mean slack vs the worst policy) are reported per (K, m).

#include "exp/figures.h"

int main(int argc, char** argv) {
  return hedra::exp::run_figure(hedra::exp::fig10_figure(), argc, argv);
}
