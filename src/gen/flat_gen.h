#pragma once

/// \file flat_gen.h
/// The §5.1 generator: the only implementation of random heterogeneous DAG
/// generation in the library.  Three entry points —
///
///   1. plain hierarchical structure          (generate_hierarchical_flat)
///   2. single-offload §5.1 pipeline: one random internal v_off, C_off
///      solved against a target share of vol(G)   (generate_offload_flat)
///   3. K-device pipeline: offloads_per_device random internal nodes per
///      class, the offloaded total split by mix weight and speedup
///                                            (generate_multi_device_flat)
///
/// — each emits CSR straight into a `graph::FlatDagBatch` arena; a `Dag` is
/// only built on demand (`materialize`).  The fork–join recursion writes
/// into a reusable `StagedDag` scratch, so rejection-sampling attempts cost
/// no allocations at steady state.
///
/// Determinism contract (regression-pinned in tests/gen/flat_gen_test.cpp):
/// the draw order — including rejected attempts — is fixed, and equals the
/// per-DAG `Dag` pipeline kept as the test reference in
/// tests/common/legacy_gen.h: for any seed `view(i)` equals
/// `FlatDag(dag_i)` array for array, and `materialize(i)` equals `dag_i`
/// field for field.  A golden batch hash pins the stream itself.

#include "gen/params.h"
#include "graph/flat_batch.h"
#include "util/rng.h"

namespace hedra::gen {

/// Runs the rejection-sampled fork–join recursion once and leaves the
/// accepted attempt in `staged` (host-only nodes, edges in recursion
/// order).  In the style of Melani et al. [12], a node expands, with
/// probability p_par and while below max_depth, into a parallel sub-DAG —
/// a fork node, k ∈ [2, n_par] recursively expanded branches, and a join
/// node — and otherwise into a terminal node; WCETs are uniform integers in
/// [wcet_min, wcet_max].  The result has a single source and a single sink,
/// is acyclic and transitive-edge-free by construction, and its longest
/// path has at most 2·max_depth + 1 nodes.  Throws hedra::Error if `params`
/// is invalid or the node window is not hit within max_attempts tries.
void generate_hierarchical_staged(const HierarchicalParams& params, Rng& rng,
                                  graph::StagedDag& staged);

/// Appends one plain hierarchical (host-only) DAG to `batch`.
void generate_hierarchical_flat(const HierarchicalParams& params, Rng& rng,
                                graph::FlatDagBatch& batch);

/// Appends one §5.1 heterogeneous DAG: hierarchical structure, one random
/// internal v_off (device 1), C_off set to `coff_ratio` of vol(G).
void generate_offload_flat(const HierarchicalParams& params, double coff_ratio,
                           Rng& rng, graph::FlatDagBatch& batch);

/// Appends one K-device DAG: params.num_devices >= 1 classes with
/// params.offloads_per_device nodes each, the offloaded volume set to
/// `coff_ratio` of vol(G) and split by params.device_mix and
/// params.device_speedup.
void generate_multi_device_flat(const HierarchicalParams& params,
                                double coff_ratio, Rng& rng,
                                graph::FlatDagBatch& batch);

}  // namespace hedra::gen
