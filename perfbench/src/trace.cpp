#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

double TraceSummary::self_of(std::string_view layer) const {
  for (const auto& [name, seconds] : self_s) {
    if (name == layer) return seconds;
  }
  return 0;
}

TraceBuffer* Tracer::add_thread() {
  buffers_.emplace_back(static_cast<int>(buffers_.size()));
  return &buffers_.back();
}

std::vector<double> Tracer::durations_us(SpanKind kind) const {
  std::vector<double> out;
  for (const TraceBuffer& buffer : buffers_) {
    for (const Span& span : buffer.spans()) {
      if (span.kind == kind) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
      }
    }
  }
  return out;
}

std::vector<double> Tracer::durations_us(SpanKind kind,
                                         std::uint64_t id) const {
  std::vector<double> out;
  for (const TraceBuffer& buffer : buffers_) {
    for (const Span& span : buffer.spans()) {
      if (span.kind == kind && span.id == id) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
      }
    }
  }
  return out;
}

TraceSummary Tracer::summarize() const {
  constexpr auto kKinds = static_cast<std::size_t>(SpanKind::kCount);
  std::array<std::int64_t, kKinds> self_ns{};
  std::int64_t root_ns = 0;
  TraceSummary summary;
  for (const TraceBuffer& buffer : buffers_) {
    const std::vector<Span>& spans = buffer.spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      const std::int64_t duration = span.end_ns - span.start_ns;
      if (span.parent == kNoParent) {
        root_ns += duration;
        continue;
      }
      const Span& parent = spans[span.parent];
      if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
        ++summary.nesting_errors;
      }
      child_ns[span.parent] += duration;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::int64_t self =
          spans[i].end_ns - spans[i].start_ns - child_ns[i];
      if (self < 0) ++summary.nesting_errors;
      self_ns[static_cast<std::size_t>(spans[i].kind)] += self;
    }
  }
  // Per layer, in first-appearance order of kSpanInfo.
  std::int64_t wait_ns = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::string layer(kSpanInfo[k].layer);
    if (layer == "wait") wait_ns += self_ns[k];
    auto it = std::find_if(summary.self_s.begin(), summary.self_s.end(),
                           [&](const auto& e) { return e.first == layer; });
    if (it == summary.self_s.end()) {
      summary.self_s.emplace_back(layer, 0.0);
      it = summary.self_s.end() - 1;
    }
    it->second += static_cast<double>(self_ns[k]) * 1e-9;
  }
  summary.thread_s = static_cast<double>(root_ns - wait_ns) * 1e-9;
  return summary;
}

bool Tracer::write_csv(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  std::fputs("thread,span,layer,id,parent,start_ns,end_ns\n", file.get());
  for (const TraceBuffer& buffer : buffers_) {
    for (const Span& span : buffer.spans()) {
      const SpanInfo& i = info(span.kind);
      std::fprintf(file.get(), "%d,%.*s,%.*s,%llu,%lld,%lld,%lld\n",
                   buffer.thread(), static_cast<int>(i.name.size()),
                   i.name.data(), static_cast<int>(i.layer.size()),
                   i.layer.data(), static_cast<unsigned long long>(span.id),
                   span.parent == kNoParent
                       ? -1LL
                       : static_cast<long long>(span.parent),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fflush(file.get()) == 0 && !std::ferror(file.get());
}

}  // namespace perfbench
