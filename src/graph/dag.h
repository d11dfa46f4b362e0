#pragma once

/// \file dag.h
/// The DAG task-graph representation from the paper's system model (§2),
/// generalised to a heterogeneous platform.
///
/// A parallel real-time task is `τ = <G, T, D>` with `G = (V, E)`.  Nodes
/// carry a worst-case execution time (WCET) and a *device* placement: device
/// 0 is the pool of m identical host cores; device d >= 1 names one of the
/// platform's accelerator classes (GPU, FPGA, DSP, ...), each with a single
/// execution unit (see model/platform.h).  The paper's model is the special
/// case of exactly one node on device 1 — its `NodeKind` vocabulary (host /
/// offload / sync) is preserved as a *derived view*: a node is `kOffload`
/// iff its device is not the host, and `kSync` marks the zero-WCET
/// synchronisation nodes inserted by the transformation of §3.4 (always
/// host-side).
///
/// The class stores adjacency in insertion order and supports the edge
/// removals/insertions Algorithm 1 performs.  Structural rules that are
/// global properties (acyclicity, single source/sink, absence of transitive
/// edges) are checked by graph/validate.h rather than on every mutation.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.h"

namespace hedra::graph {

/// Dense node identifier; nodes are never deleted, so ids are stable.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Integer time in abstract WCET ticks (the paper uses unit-less integers
/// drawn from [1, 100]).
using Time = std::int64_t;

/// Execution-device identifier: 0 is the host-core pool, d >= 1 one of the
/// platform's accelerator device classes.
using DeviceId = std::uint16_t;

/// The host-core pool.
inline constexpr DeviceId kHostDevice = 0;

/// Where a node executes — the paper's three-way vocabulary, derived from
/// the node's device placement and sync flag.
enum class NodeKind : std::uint8_t {
  kHost,     ///< sequential job on one of the m identical host cores
  kOffload,  ///< workload offloaded to an accelerator device (v_off)
  kSync,     ///< zero-WCET synchronisation point (v_sync, dummy source/sink)
};

[[nodiscard]] const char* to_string(NodeKind kind) noexcept;

/// One vertex of the task graph.
struct Node {
  Time wcet = 0;
  DeviceId device = kHostDevice;  ///< 0 = host pool; d >= 1 = accelerator d
  bool sync = false;              ///< zero-WCET synchronisation point
  std::string label;              ///< display name; defaults to "v<i>"

  /// The paper's three-way classification, derived from (device, sync).
  [[nodiscard]] NodeKind kind() const noexcept {
    if (sync) return NodeKind::kSync;
    return device == kHostDevice ? NodeKind::kHost : NodeKind::kOffload;
  }
};

/// A directed graph with WCET-annotated, device-placed nodes.
///
/// Invariants enforced on mutation: no self-loops, no duplicate edges,
/// non-negative WCETs, sync nodes have zero WCET and stay on the host.
class Dag {
 public:
  Dag() = default;

  /// Adds a node and returns its id.  `label` defaults to "v<id+1>"
  /// (matching the paper's v1..vn convention) or "vOff"/"vSync" by kind.
  /// `NodeKind::kOffload` places the node on device 1 (the paper's single
  /// accelerator); use add_node_on for other devices.
  NodeId add_node(Time wcet, NodeKind kind = NodeKind::kHost,
                  std::string label = "");

  /// Adds a node on an explicit device (0 = host).  The default label is
  /// "v<id+1>" on the host, "vOff" on device 1 and "vOff<d>" on device
  /// d >= 2.
  NodeId add_node_on(Time wcet, DeviceId device, std::string label = "");

  /// Adds a verbatim copy of `node` (device placement included) and returns
  /// its id.  Used by subgraph extraction and graph rewriting so device
  /// annotations survive structural copies.
  NodeId add_node(const Node& node);

  /// Adds edge (from, to).  Throws on self-loop, duplicate, or bad id.
  void add_edge(NodeId from, NodeId to);

  /// Removes edge (from, to).  Throws if the edge does not exist.
  void remove_edge(NodeId from, NodeId to);

  [[nodiscard]] bool has_edge(NodeId from, NodeId to) const;

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  [[nodiscard]] const Node& node(NodeId id) const {
    check_id(id);
    return nodes_[id];
  }
  [[nodiscard]] Time wcet(NodeId id) const { return node(id).wcet; }
  [[nodiscard]] NodeKind kind(NodeId id) const { return node(id).kind(); }
  [[nodiscard]] DeviceId device(NodeId id) const { return node(id).device; }
  [[nodiscard]] const std::string& label(NodeId id) const {
    return node(id).label;
  }

  /// Reassigns a node's WCET (used when sweeping C_off).  Sync nodes must
  /// stay at zero.
  void set_wcet(NodeId id, Time wcet);

  /// Moves a node to another device (0 = host).  Sync nodes must stay on
  /// the host.
  void set_device(NodeId id, DeviceId device);

  [[nodiscard]] const std::vector<NodeId>& successors(NodeId id) const {
    check_id(id);
    return succ_[id];
  }
  [[nodiscard]] const std::vector<NodeId>& predecessors(NodeId id) const {
    check_id(id);
    return pred_[id];
  }

  [[nodiscard]] std::size_t in_degree(NodeId id) const {
    return predecessors(id).size();
  }
  [[nodiscard]] std::size_t out_degree(NodeId id) const {
    return successors(id).size();
  }

  /// Nodes with no incoming / outgoing edges, ascending by id.
  [[nodiscard]] std::vector<NodeId> sources() const;
  [[nodiscard]] std::vector<NodeId> sinks() const;

  /// All edges as (from, to) pairs, grouped by source id ascending.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// All nodes placed on an accelerator (device != 0), ascending.  The
  /// paper's model has exactly one; the multi-offload and multi-device
  /// extensions allow several.
  [[nodiscard]] std::vector<NodeId> offload_nodes() const;

  /// The unique offloaded node, or nullopt if there is none.  Throws if the
  /// graph has more than one (callers expecting the paper's model should not
  /// silently pick one).
  [[nodiscard]] std::optional<NodeId> offload_node() const;

  /// Largest device id present (0 for a homogeneous DAG).  The simulator
  /// provisions one execution unit per device id in [1, max_device()].
  [[nodiscard]] DeviceId max_device() const noexcept;

  /// Sum of all WCETs — vol(G) in the paper, accelerator workload included.
  [[nodiscard]] Time volume() const noexcept;

 private:
  void check_id(NodeId id) const {
    HEDRA_REQUIRE(id < nodes_.size(), "node id out of range");
  }

  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> succ_;
  std::vector<std::vector<NodeId>> pred_;
  std::size_t num_edges_ = 0;
};

}  // namespace hedra::graph
