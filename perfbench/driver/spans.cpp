#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>

#include "metrics.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

std::uint32_t SpanRecorder::open(const char* name, std::uint32_t parent,
                                 std::uint64_t op) {
  const std::int64_t t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, t, t, parent, op});
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanRecorder::close(std::uint32_t id) {
  const std::int64_t t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = t;
}

std::uint32_t SpanRecorder::add(const char* name, std::int64_t start,
                                std::int64_t end, std::uint32_t parent,
                                std::uint64_t op) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, op});
  return static_cast<std::uint32_t>(spans_.size());
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::map<std::string, std::int64_t> SpanRecorder::self_by_layer() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<Interval>> children(all.size());
  for (const Span& s : all) {
    if (s.parent != 0) {
      children[s.parent - 1].push_back({s.start, s.end});
    }
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[layer_of(all[i].name)] +=
        self_time({all[i].start, all[i].end}, children[i]);
  }
  return out;
}

std::int64_t SpanRecorder::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t sum = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      sum += s.end - s.start;
    }
  }
  return sum;
}

bool SpanRecorder::write(const std::string& path,
                         const std::map<std::string, double>& metrics) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  os << std::setprecision(17) << "{\"per_layer\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    os << (first ? "" : ",") << '"' << name << "\":" << value;
    first = false;
  }
  os << "},\"self_ns_by_layer\":{";
  first = true;
  for (const auto& [layer, ns] : self_by_layer()) {
    os << (first ? "" : ",") << '"' << layer << "\":" << ns;
    first = false;
  }
  const std::vector<Span> all = spans();
  const std::size_t written = std::min(all.size(), kMaxWrittenSpans);
  os << "},\"spans_recorded\":" << all.size()
     << ",\"spans_written\":" << written << ",\"spans\":[";
  for (std::size_t i = 0; i < written; ++i) {
    const Span& s = all[i];
    os << (i == 0 ? "" : ",") << "\n{\"id\":" << i + 1 << ",\"name\":\""
       << s.name << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op << '}';
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
