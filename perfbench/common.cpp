#include "common.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "analysis/batch_kernels.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string filesystem_type(const std::string& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x6969UL:
      return "nfs";
    case 0x65735546UL:
      return "fuse";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
      return os.str();
    }
  }
}

/// Formats a measured value with all its digits.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

}  // namespace

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Result::check(bool ok, const std::string& why_if_not) {
  ++attempted;
  if (!ok) fail(why_if_not);
}

double now_s() {
  return static_cast<double>(hedra::util::monotonic_now_ns()) * 1e-9;
}

double percentile(std::vector<double> samples, double p) {
  HEDRA_REQUIRE(!samples.empty(), "percentile of an empty sample");
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

std::size_t samples_beyond(const std::vector<double>& samples, double p) {
  if (samples.empty()) return 0;
  const double cut = percentile(samples, p);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double s) { return s > cut; }));
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double self_peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double self_cpu_s() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string fingerprint_json(const std::string& journal_dir) {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"default_workers\": " << hedra::ThreadPool::default_workers()
     << ", \"cpu_model\": \"" << json_escape(cpu_model())
     << "\", \"batch_kernel_backend\": \""
     << hedra::analysis::batch_kernel_backend()
     << "\", \"build_type\": \"" << HEDRA_PERFBENCH_BUILD_TYPE
     << "\", \"compiler\": \"" << HEDRA_PERFBENCH_COMPILER
     << "\", \"journal_fs\": \"" << filesystem_type(journal_dir) << "\"}";
  return os.str();
}

void print_result(const Result& result) {
  for (const std::string& why : result.failures) {
    std::cout << "FAIL " << why << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : result.metrics) {
    json << sep << "\"" << name << "\": " << number(value);
    sep = ", ";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace perfbench
