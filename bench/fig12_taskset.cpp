/// \file fig12_taskset.cpp
/// Figure 12 (extension): taskset-level schedulability under
/// shared-accelerator contention.  Sweeps normalised utilisation × K
/// accelerator classes × n_d units × m host cores; per cell, random
/// sporadic task sets are admitted by the federated contention test
/// (taskset/contention_rta) and every admitted set is executed on the
/// taskset simulator with shared per-device unit pools — observed per-job
/// response times are checked against the admitted bounds in exact rational
/// arithmetic (violations must be zero across the grid).

#include "exp/figures.h"

int main(int argc, char** argv) {
  return hedra::exp::run_figure(hedra::exp::fig12_figure(), argc, argv);
}
