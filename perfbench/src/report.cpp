#include "report.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace perfbench {

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

double Result::get(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  throw std::out_of_range("perfbench: no metric " + name);
}

void Result::fact(const std::string& name, const std::string& text) {
  facts.emplace_back(name, json_string(text));
}

void Result::fact(const std::string& name, double value) {
  facts.emplace_back(name, json_number(value));
}

void Result::fail_check(const std::string& why) {
  correct = false;
  notes.push_back(why);
}

namespace {

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string Result::result_line() const {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_json(metrics) + "}";
}

std::string Result::record_json() const {
  std::string out = "{\"facts\": {";
  for (std::size_t i = 0; i < facts.size(); ++i) {
    if (i) out += ", ";
    out += json_string(facts[i].first) + ": " + facts[i].second;
  }
  out += "}, \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i) out += ", ";
    out += json_string(notes[i]);
  }
  out += "], \"result\": " + result_line() + "}";
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 1e300;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
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
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  // Odd count, or halfway toward +inf: the middle entry.
  if (v.size() % 2 == 1 || !std::isfinite(v[mid])) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

namespace {
double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}
}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
