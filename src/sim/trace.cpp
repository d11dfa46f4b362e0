#include "sim/trace.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace hedra::sim {

ScheduleTrace::ScheduleTrace(const Dag* dag, int cores,
                             std::vector<int> device_units)
    : dag_(dag), cores_(cores), device_units_(std::move(device_units)) {
  HEDRA_REQUIRE(dag_ != nullptr, "trace requires a DAG");
  HEDRA_REQUIRE(cores_ >= 1, "trace requires at least one core");
  for (const int units : device_units_) {
    HEDRA_REQUIRE(units >= 1, "every accelerator device needs >= 1 unit");
  }
}

void ScheduleTrace::add(const Interval& interval) {
  HEDRA_REQUIRE(interval.node < dag_->num_nodes(), "interval node id invalid");
  HEDRA_REQUIRE(interval.finish >= interval.start,
                "interval must not end before it starts");
  HEDRA_REQUIRE(
      is_accelerator_unit(interval.unit) || interval.unit == kInstantUnit ||
          (interval.unit >= 0 && interval.unit < cores_),
      "interval unit out of range");
  intervals_.push_back(interval);
}

Time ScheduleTrace::makespan() const noexcept {
  Time latest = 0;
  for (const auto& iv : intervals_) latest = std::max(latest, iv.finish);
  return latest;
}

const Interval& ScheduleTrace::interval_of(NodeId node) const {
  for (const auto& iv : intervals_) {
    if (iv.node == node) return iv;
  }
  throw Error("node " + dag_->label(node) + " has no interval in the trace");
}

std::string ScheduleTrace::to_text() const {
  std::ostringstream os;
  for (const auto& iv : intervals_) {
    os << iv.node << ' ' << iv.unit << ' ' << iv.start << ' ' << iv.finish
       << '\n';
  }
  return os.str();
}

std::vector<std::string> ScheduleTrace::validate() const {
  std::vector<Time> durations(dag_->num_nodes());
  for (NodeId v = 0; v < dag_->num_nodes(); ++v) {
    durations[v] = dag_->wcet(v);
  }
  return validate_with_durations(durations);
}

std::vector<std::string> ScheduleTrace::validate_with_durations(
    const std::vector<Time>& expected_durations) const {
  HEDRA_REQUIRE(expected_durations.size() == dag_->num_nodes(),
                "expected-durations size mismatch");
  std::vector<std::string> issues;
  const auto say = [&](const std::string& text) { issues.push_back(text); };

  // Exactly one interval per node, with the right duration and placement.
  std::vector<int> seen(dag_->num_nodes(), 0);
  for (const auto& iv : intervals_) {
    ++seen[iv.node];
    const Time duration = iv.finish - iv.start;
    if (duration != expected_durations[iv.node]) {
      say("node " + dag_->label(iv.node) + " ran for " +
          std::to_string(duration) + " ticks, expected " +
          std::to_string(expected_durations[iv.node]));
    }
    const auto kind = dag_->kind(iv.node);
    if (kind == graph::NodeKind::kOffload) {
      const graph::DeviceId device = dag_->device(iv.node);
      const bool on_device = is_accelerator_unit(iv.unit) &&
                             device_of_unit(iv.unit) == device &&
                             unit_index_of(iv.unit) < units_of(device);
      if (!on_device) {
        say("offload node " + dag_->label(iv.node) +
            " ran off its device (device " + std::to_string(device) +
            " with " + std::to_string(units_of(device)) + " unit(s), unit " +
            std::to_string(iv.unit) + ")");
      }
    }
    if (kind == graph::NodeKind::kHost && dag_->wcet(iv.node) > 0 &&
        !(iv.unit >= 0 && iv.unit < cores_)) {
      say("host node " + dag_->label(iv.node) + " ran off the host cores");
    }
  }
  for (NodeId v = 0; v < dag_->num_nodes(); ++v) {
    if (seen[v] != 1) {
      say("node " + dag_->label(v) + " executed " + std::to_string(seen[v]) +
          " times");
    }
  }
  if (!issues.empty()) return issues;  // placement broken; stop here

  // Precedence.
  for (NodeId v = 0; v < dag_->num_nodes(); ++v) {
    const Time start = start_of(v);
    for (const NodeId p : dag_->predecessors(v)) {
      if (finish_of(p) > start) {
        say("node " + dag_->label(v) + " started at " + std::to_string(start) +
            " before predecessor " + dag_->label(p) + " finished at " +
            std::to_string(finish_of(p)));
      }
    }
  }

  // Per-unit capacity: sort each unit's intervals and check adjacency.
  std::map<int, std::vector<Interval>> by_unit;
  for (const auto& iv : intervals_) {
    if (iv.unit != kInstantUnit) by_unit[iv.unit].push_back(iv);
  }
  for (auto& [unit, list] : by_unit) {
    std::sort(list.begin(), list.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i].start < list[i - 1].finish) {
        std::ostringstream os;
        os << "unit " << unit << ": " << dag_->label(list[i].node) << " ["
           << list[i].start << ", " << list[i].finish << ") overlaps "
           << dag_->label(list[i - 1].node) << " [" << list[i - 1].start
           << ", " << list[i - 1].finish << ")";
        say(os.str());
      }
    }
  }
  return issues;
}

}  // namespace hedra::sim
