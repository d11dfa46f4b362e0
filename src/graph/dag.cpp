#include "graph/dag.h"

#include <algorithm>

namespace hedra::graph {

const char* to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kHost:
      return "host";
    case NodeKind::kOffload:
      return "offload";
    case NodeKind::kSync:
      return "sync";
  }
  return "?";
}

NodeId Dag::add_node(Time wcet, NodeKind kind, std::string label) {
  Node node;
  node.wcet = wcet;
  node.device = kind == NodeKind::kOffload ? DeviceId{1} : kHostDevice;
  node.sync = kind == NodeKind::kSync;
  node.label = std::move(label);
  return add_node(node);
}

NodeId Dag::add_node_on(Time wcet, DeviceId device, std::string label) {
  Node node;
  node.wcet = wcet;
  node.device = device;
  node.label = std::move(label);
  return add_node(node);
}

NodeId Dag::add_node(const Node& node) {
  HEDRA_REQUIRE(node.wcet >= 0, "node WCET must be non-negative");
  HEDRA_REQUIRE(!node.sync || node.wcet == 0,
                "sync nodes must have zero WCET");
  HEDRA_REQUIRE(!node.sync || node.device == kHostDevice,
                "sync nodes must stay on the host");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node stored = node;
  if (stored.label.empty()) {
    switch (stored.kind()) {
      case NodeKind::kHost:
        stored.label = "v" + std::to_string(id + 1);
        break;
      case NodeKind::kOffload:
        stored.label = stored.device == 1
                           ? "vOff"
                           : "vOff" + std::to_string(stored.device);
        break;
      case NodeKind::kSync:
        stored.label = "vSync";
        break;
    }
  }
  nodes_.push_back(std::move(stored));
  succ_.emplace_back();
  pred_.emplace_back();
  return id;
}

void Dag::add_edge(NodeId from, NodeId to) {
  check_id(from);
  check_id(to);
  HEDRA_REQUIRE(from != to, "self-loop edges are not allowed");
  HEDRA_REQUIRE(!has_edge(from, to), "duplicate edge");
  succ_[from].push_back(to);
  pred_[to].push_back(from);
  ++num_edges_;
}

void Dag::remove_edge(NodeId from, NodeId to) {
  check_id(from);
  check_id(to);
  auto& out = succ_[from];
  const auto out_it = std::find(out.begin(), out.end(), to);
  HEDRA_REQUIRE(out_it != out.end(), "edge to remove does not exist");
  out.erase(out_it);
  auto& in = pred_[to];
  const auto in_it = std::find(in.begin(), in.end(), from);
  HEDRA_ASSERT(in_it != in.end());
  in.erase(in_it);
  --num_edges_;
}

bool Dag::has_edge(NodeId from, NodeId to) const {
  check_id(from);
  check_id(to);
  const auto& out = succ_[from];
  return std::find(out.begin(), out.end(), to) != out.end();
}

void Dag::set_wcet(NodeId id, Time wcet) {
  check_id(id);
  HEDRA_REQUIRE(wcet >= 0, "node WCET must be non-negative");
  HEDRA_REQUIRE(!nodes_[id].sync || wcet == 0,
                "sync nodes must have zero WCET");
  nodes_[id].wcet = wcet;
}

void Dag::set_device(NodeId id, DeviceId device) {
  check_id(id);
  HEDRA_REQUIRE(!nodes_[id].sync || device == kHostDevice,
                "sync nodes must stay on the host");
  nodes_[id].device = device;
}

std::vector<NodeId> Dag::sources() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (pred_[id].empty()) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Dag::sinks() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (succ_[id].empty()) out.push_back(id);
  }
  return out;
}

std::vector<std::pair<NodeId, NodeId>> Dag::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_edges_);
  for (NodeId from = 0; from < nodes_.size(); ++from) {
    for (const NodeId to : succ_[from]) out.emplace_back(from, to);
  }
  return out;
}

std::vector<NodeId> Dag::offload_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].device != kHostDevice) out.push_back(id);
  }
  return out;
}

std::optional<NodeId> Dag::offload_node() const {
  const auto all = offload_nodes();
  if (all.empty()) return std::nullopt;
  HEDRA_REQUIRE(all.size() == 1,
                "graph has multiple offload nodes; use offload_nodes()");
  return all.front();
}

DeviceId Dag::max_device() const noexcept {
  DeviceId max = kHostDevice;
  for (const auto& n : nodes_) max = std::max(max, n.device);
  return max;
}

Time Dag::volume() const noexcept {
  Time total = 0;
  for (const auto& n : nodes_) total += n.wcet;
  return total;
}

}  // namespace hedra::graph
