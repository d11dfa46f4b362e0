/// \file fig6_transform_impact.cpp
/// Reproduces Figure 6 (§5.2): percentage change of the average simulated
/// execution time of the original task τ with respect to the transformed
/// task τ', under the GOMP-style work-conserving breadth-first scheduler,
/// for m = 2/4/8/16 and C_off/vol from 1% to 70%.
///
/// Paper shape to compare against: the transformation *hurts* for small
/// offloads (τ faster by ~3% at m=2 ... ~15% at m=16 when C_off = 1% of
/// vol), crossovers near 11/8/6/4.5% of vol for m = 2/4/8/16, then the
/// transformation wins (τ slower by ~24% at m=2 around C_off = 28%).

#include "exp/figures.h"

int main(int argc, char** argv) {
  return hedra::exp::run_figure(hedra::exp::fig6_figure(), argc, argv);
}
