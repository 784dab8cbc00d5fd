#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::uint32_t SpanRecorder::open(std::string name, std::uint64_t trace,
                                 std::int64_t start_ns) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.trace = trace;
  s.name = std::move(name);
  s.start_ns = start_ns;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::close(std::uint32_t id, std::int64_t end_ns) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span closed out of order");
  open_.pop_back();
  Span& s = spans_[id - 1];
  s.dur_ns = end_ns - s.start_ns;
}

void SpanRecorder::aggregate(std::string name, std::uint64_t count,
                             std::int64_t total_ns) {
  if (count == 0) return;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.trace = s.parent ? spans_[s.parent - 1].trace : 0;
  s.name = std::move(name);
  s.start_ns = -1;
  s.dur_ns = total_ns;
  s.count = count;
  spans_.push_back(std::move(s));
}

std::map<std::string, std::int64_t> SpanRecorder::self_ns_by_name() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_ns;
  for (const Span& s : spans_)
    if (s.parent) self[s.parent - 1] -= s.dur_ns;
  std::map<std::string, std::int64_t> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_name[spans_[i].name] += self[i] > 0 ? self[i] : 0;
  return by_name;
}

std::map<std::string, std::int64_t> SpanRecorder::self_ns_by_layer() const {
  std::map<std::string, std::int64_t> by_layer;
  for (const auto& [name, ns] : self_ns_by_name()) by_layer[layer_of(name)] += ns;
  return by_layer;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << s.dur_ns
        << ",\"count\":" << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
