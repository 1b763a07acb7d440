#include "perfbench/harness.hpp"

#include <fstream>

#include "util/parallel.hpp"

namespace perfbench {

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] != name) continue;
    for (const Span& span : spans_) {
      if (span.name == i) out.push_back(span.micros());
    }
  }
  return out;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "name,start_ns,end_ns,parent,frame\n";
  for (const Span& span : spans_) {
    out << names_[span.name] << ',' << span.start_ns << ',' << span.end_ns
        << ',' << span.parent << ',' << span.frame << '\n';
  }
  return static_cast<bool>(out);
}

void warm_up_pool(double seconds) {
  const std::int64_t start = now_ns();
  const std::size_t threads = anole::par::thread_count();
  anole::par::parallel_for(0, threads, 1, [&](std::size_t) {
    volatile double sink = 1.0;
    while (seconds_since(start) < seconds) {
      for (int i = 0; i < 10000; ++i) sink = sink * 1.0000001 + 1e-9;
    }
  });
}

}  // namespace perfbench
