#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

namespace rvbench {

void Tracer::record(std::uint64_t request, const char* name,
                    const char* parent, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{request, name, parent, start, end});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

std::unordered_map<std::uint64_t, std::vector<const Span*>> by_request(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> out;
  for (const Span& s : spans) out[s.request].push_back(&s);
  return out;
}

bool is_child(const Span& child, const Span& parent) {
  return child.parent != nullptr && &child != &parent &&
         std::strcmp(child.parent, parent.name) == 0;
}

}  // namespace

double self_time_us(const Span& span,
                    const std::vector<const Span*>& request) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
  for (const Span* c : request) {
    if (!is_child(*c, span)) continue;
    const auto lo = std::max(c->start, span.start);
    const auto hi = std::min(c->end, span.end);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double child_us = 0;
  Clock::time_point reach = span.start;
  for (const auto& [lo, hi] : covered) {
    const auto from = std::max(lo, reach);
    if (hi > from) {
      child_us += us_between(from, hi);
      reach = hi;
    }
  }
  return std::max(0.0, us_between(span.start, span.end) - child_us);
}

bool Tracer::dump(const std::string& path) const {
  const std::vector<Span> spans = this->spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans.empty() ? Clock::time_point{}
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start < b.start;
                                       })->start;
  std::map<std::pair<std::uint64_t, std::string>, long> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(std::make_pair(spans[i].request, spans[i].name),
                  static_cast<long>(i));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    long parent = -1;
    if (s.parent != nullptr) {
      const auto it = index.find({s.request, s.parent});
      if (it != index.end()) parent = it->second;
    }
    std::fprintf(f,
                 "{\"id\": %zu, \"request\": %llu, \"name\": \"%s\", "
                 "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %ld}\n",
                 i, static_cast<unsigned long long>(s.request), s.name,
                 us_between(origin, s.start), us_between(origin, s.end),
                 parent);
  }
  return std::fclose(f) == 0;
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  const std::vector<Span> spans = this->spans();
  const auto requests = by_request(spans);
  std::map<std::string, std::pair<Series, Series>> per_name;
  for (const auto& [id, members] : requests) {
    for (const Span* s : members) {
      auto& [dur, self] = per_name[s->name];
      dur.add(us_between(s->start, s->end));
      self.add(self_time_us(*s, members));
    }
  }
  std::vector<SelfTime> out;
  for (const auto& [name, series] : per_name) {
    const auto& [dur, self] = series;
    double total = 0;
    for (const double v : self.values) total += v;
    out.push_back(SelfTime{name, dur.count(), dur.median(), self.median(),
                           total / 1000.0});
  }
  return out;
}

}  // namespace rvbench
