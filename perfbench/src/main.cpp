// perfbench — one workload per process. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out DIR] [--udwnd PATH]
//
// Prints human-readable progress on stderr and one JSON object on the last
// line of stdout: {"correct", "attempted", "failed", "metrics", "detail"}.
// perfbench/run.py builds this binary, runs it, and validates the object.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"

#if __has_include("phy/simd.h")
#include "phy/simd.h"
#endif

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kib = std::strtod(line.c_str() + 6, nullptr);
      return kib / 1024.0;
    }
  }
  return 0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out DIR] [--udwnd PATH]\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, out);
  return res.ec == std::errc() && res.ptr == end;
}

void print(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Result::Metric& m = r.metrics[i];
    if (i != 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}, \"detail\": {";
  for (std::size_t i = 0; i < r.detail.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(r.detail[i].first) + ": " + r.detail[i].second;
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(r.errors[i]);
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (v == nullptr) return usage();
    ++i;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, o.seed)) return usage();
      have_seed = true;
    } else if (a == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0) || o.seconds > 3600)
        return usage();
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage();
      o.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--out") {
      o.out_dir = v;
    } else if (a == "--udwnd") {
      o.udwnd = v;
    } else {
      return usage();
    }
  }
  if (o.workload.empty() || !have_seed || !have_trace) return usage();

  Result r;
  if (o.workload == "svc-mix") {
    r = run_svc_workload(o);
  } else if (o.workload == "static-8k" || o.workload == "mobile-8k" ||
             o.workload == "far-64k") {
    r = run_engine_workload(o);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
#if __has_include("phy/simd.h")
  r.note("cpu_features", json_string(udwn::cpu_features_string()));
#endif
  print(r);
  return 0;
}
