/// \file fig9_hom_vs_het.cpp
/// Reproduces Figure 9 and the §5.4 in-text maxima: percentage change of
/// R_hom(τ) with respect to R_het(τ') across C_off/vol and m.
///
/// Paper shape: R_hom is better only below C_off ≈ 1.6/3.4/4.6/5% of vol
/// (sync-point penalty); beyond that R_het wins, peaking at ~70/55/40/30%
/// when C_off = R_hom(G_par), with maximum observed differences of
/// 95.0/82.5/65.3/47.7% for m = 2/4/8/16.

#include "exp/figures.h"

int main(int argc, char** argv) {
  return hedra::exp::run_figure(hedra::exp::fig9_figure(), argc, argv);
}
