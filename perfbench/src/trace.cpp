#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "report.hpp"

namespace perfbench {

std::size_t Tracer::begin(const char* name, std::uint64_t id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_s = now();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t index) {
  spans_[index].end_s = now();
  // Spans close innermost-first (RAII); tolerate an out-of-order close by
  // popping through to the span being closed.
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::add(const char* name, double start_s, double end_s,
                 std::uint64_t id) {
  Span s;
  s.name = name;
  s.start_s = start_s;
  s.end_s = end_s;
  s.id = id;
  spans_.push_back(s);
}

std::uint64_t Tracer::count(const std::string& name) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_)
    if (name == s.name) ++n;
  return n;
}

double Tracer::total_s(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) t += s.end_s - s.start_s;
  return t;
}

double Tracer::self_s(const std::string& name) const {
  double t = total_s(name);
  for (const Span& s : spans_)
    if (s.parent >= 0 && name == spans_[static_cast<std::size_t>(s.parent)].name)
      t -= s.end_s - s.start_s;
  return t;
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.end_s - s.start_s);
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Client request spans overlap; give them their own track per
    // connection so viewers do not mis-nest them.
    const std::uint64_t tid = s.id ? 2 + (s.id >> 32) : 1;
    out << (i ? ",\n" : "") << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
        << ", \"ts\": " << json_number(s.start_s * 1e6)
        << ", \"dur\": " << json_number((s.end_s - s.start_s) * 1e6)
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"id\": " << s.id << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) throw std::runtime_error("perfbench: short write to " + path);
}

}  // namespace perfbench
