#include "taskset/taskset.h"

#include <set>
#include <sstream>
#include <string_view>

#include "graph/dag_io.h"
#include "util/strings.h"

namespace hedra::taskset {

namespace {

void check_name(const DagTask& task) {
  HEDRA_REQUIRE(!task.name().empty(), "task names must be non-empty");
  HEDRA_REQUIRE(task.name().find_first_of(" \t\r\n") == std::string::npos,
                "task name '" + task.name() + "' contains whitespace");
}

void check_fits(const Platform& platform, const DagTask& task) {
  // Arena-backed fast path: the view's max device decides support without
  // materialising.  On violation fall through to the Dag-based check so
  // the message (which names the offending node) stays identical.
  const auto num_devices =
      static_cast<graph::DeviceId>(platform.num_devices());
  if (task.has_flat_view() && task.flat_view().max_device() <= num_devices) {
    return;
  }
  const auto issues = model::check_supports(platform, task.dag());
  HEDRA_REQUIRE(issues.empty(), "task '" + task.name() +
                                    "' does not fit the platform: " +
                                    issues.front());
}

}  // namespace

void TaskSet::validate() const {
  platform_.validate();
  // One ordered set of the names seen so far: the first failed insert is
  // the first index whose name repeats an earlier one.
  std::set<std::string_view> names;
  for (const DagTask& task : tasks_) {
    check_name(task);
    const bool first_use = names.insert(task.name()).second;
    HEDRA_REQUIRE(first_use, "duplicate task name '" + task.name() + "'");
    check_fits(platform_, task);
  }
}

void TaskSet::validate_task(const DagTask& task) const {
  check_name(task);
  check_fits(platform_, task);
}

TaskSet TaskSet::with_appended(DagTask task) const {
  std::vector<DagTask> tasks;
  tasks.reserve(tasks_.size() + 1);
  tasks.insert(tasks.end(), tasks_.begin(), tasks_.end());
  tasks.push_back(std::move(task));
  return TaskSet(platform_, std::move(tasks));
}

TaskSet TaskSet::without(std::size_t index) const {
  HEDRA_REQUIRE(index < tasks_.size(), "task index out of range");
  std::vector<DagTask> tasks;
  tasks.reserve(tasks_.size() - 1);
  const auto cut = tasks_.begin() + static_cast<std::ptrdiff_t>(index);
  tasks.insert(tasks.end(), tasks_.begin(), cut);
  tasks.insert(tasks.end(), cut + 1, tasks_.end());
  return TaskSet(platform_, std::move(tasks));
}

std::string TaskSet::to_text() const {
  validate();
  std::ostringstream os;
  os << "platform " << platform_.spec() << "\n";
  for (const DagTask& task : tasks_) {
    os << "task " << task.name() << " period " << task.period()
       << " deadline " << task.deadline() << "\n"
       << graph::write_dag_text(task.dag()) << "endtask\n";
  }
  return os.str();
}

TaskSet TaskSet::from_text(const std::string& text) {
  const auto lines = split(text, '\n');
  auto fail = [&](std::size_t line, const std::string& reason) -> void {
    throw Error("taskset line " + std::to_string(line + 1) + ": " + reason);
  };

  TaskSet set;
  std::set<std::string> names;  // task names parsed so far
  bool have_platform = false;
  std::size_t i = 0;
  while (i < lines.size()) {
    const std::string_view line = trim(lines[i]);
    if (line.empty() || line[0] == '#') {
      ++i;
      continue;
    }
    // Directives are matched by their EXACT first token, so a misspelling
    // like "tasks" or "platformX" is an unknown directive, not a silently
    // accepted near-miss.
    const std::string_view directive = line.substr(0, line.find_first_of(" \t"));
    if (directive == "platform") {
      if (have_platform) fail(i, "duplicate platform directive");
      const std::string spec(trim(line.substr(directive.size())));
      set.platform_ = Platform::parse(spec);
      have_platform = true;
      ++i;
      continue;
    }
    if (directive == "task") {
      if (!have_platform) fail(i, "the platform directive must come first");
      if (set.tasks_.size() >= kMaxParsedTasks) {
        fail(i, "task count exceeds the parser cap of " +
                    std::to_string(kMaxParsedTasks));
      }
      // "task <name> period <T> deadline <D>"
      std::istringstream header{std::string(line)};
      std::string keyword, name, period_kw, deadline_kw, trailing;
      graph::Time period = 0;
      graph::Time deadline = 0;
      header >> keyword >> name >> period_kw >> period >> deadline_kw >>
          deadline;
      // `>>` stops at the first non-digit, so "deadline 40O" would silently
      // read 40; any leftover token is a malformed header.
      if (header.fail() || period_kw != "period" ||
          deadline_kw != "deadline" || (header >> trailing)) {
        fail(i, "expected 'task <name> period <T> deadline <D>', got '" +
                    std::string(line) + "'");
      }
      const std::size_t header_line = i;
      ++i;
      std::string dag_text;
      bool closed = false;
      while (i < lines.size()) {
        const std::string_view body = trim(lines[i]);
        if (body == "endtask") {
          closed = true;
          ++i;
          break;
        }
        dag_text += lines[i];
        dag_text += '\n';
        ++i;
      }
      if (!closed) fail(header_line, "task '" + name + "' has no endtask");
      // validate() would catch the duplicate too, but only after parsing
      // everything and without a line number; failing here names the line.
      if (!names.insert(name).second) {
        fail(header_line, "duplicate task name '" + name + "'");
      }
      try {
        set.add(DagTask(graph::read_dag_text(dag_text), period, deadline,
                        name));
      } catch (const Error& e) {
        fail(header_line, "task '" + name + "': " + e.what());
      }
      continue;
    }
    fail(i, "unknown directive '" + std::string(line) + "'");
  }
  HEDRA_REQUIRE(have_platform, "taskset text has no platform directive");
  set.validate();
  return set;
}

}  // namespace hedra::taskset
