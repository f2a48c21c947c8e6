#include "span_tracer.hpp"

#include <algorithm>
#include <cstdio>

namespace abclbench {

using abcl::sim::TraceEv;

SpanTracer::SpanTracer(bool quantum_spans)
    : abcl::sim::Tracer(1),  // the base ring is unused: record() is replaced
      origin_(std::chrono::steady_clock::now()),
      quantum_spans_(quantum_spans) {}

std::int64_t SpanTracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanTracer::record(abcl::sim::Instr, abcl::sim::NodeId node, TraceEv kind,
                        std::uint64_t) {
  if (!quantum_spans_) return;
  if (kind == TraceEv::kQuantum) {
    const std::int64_t t = now_ns();
    end_quantum(t);
    quanta_.push_back({t, t, node, 0, 0, 0, 0, 0});
    quantum_open_ = true;
    return;
  }
  if (!quantum_open_) return;
  QuantumSpan& q = quanta_.back();
  switch (kind) {
    case TraceEv::kSendRemote: ++q.sends; break;
    case TraceEv::kRecvRemote: ++q.recvs; break;
    case TraceEv::kCreate: ++q.creates; break;
    case TraceEv::kBlock: ++q.blocks; break;
    case TraceEv::kResume: ++q.resumes; break;
    default: break;
  }
}

void SpanTracer::end_quantum(std::int64_t t) {
  if (!quantum_open_) return;
  quanta_.back().end_ns = t;
  quantum_open_ = false;
}

int SpanTracer::open(const char* name) {
  const auto id = static_cast<std::int32_t>(calls_.size());
  const std::int64_t t = now_ns();
  end_quantum(t);
  calls_.push_back({name, t, t});
  return id;
}

void SpanTracer::close(int id) {
  const std::int64_t t = now_ns();
  end_quantum(t);
  calls_[static_cast<std::size_t>(id)].end_ns = t;
}

bool SpanTracer::write_chrome_trace(const std::string& path,
                                    std::size_t max_quanta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"abclbench host\"}},\n"
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"benchmark thread\"}}");
  // Complete ("X") events; ts/dur in microseconds with ns resolution.
  for (const CallSpan& c : calls_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"call\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 c.name, static_cast<double>(c.start_ns) / 1e3,
                 static_cast<double>(c.end_ns - c.start_ns) / 1e3);
  }
  const std::size_t n = std::min(quanta_.size(), max_quanta);
  for (std::size_t i = 0; i < n; ++i) {
    const QuantumSpan& q = quanta_[i];
    std::fprintf(f,
                 ",\n{\"name\":\"quantum\",\"cat\":\"quantum\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"node\":%d,\"send\":%u,\"recv\":%u,\"create\":%u,"
                 "\"block\":%u,\"resume\":%u}}",
                 static_cast<double>(q.start_ns) / 1e3,
                 static_cast<double>(q.end_ns - q.start_ns) / 1e3, q.node,
                 q.sends, q.recvs, q.creates, q.blocks, q.resumes);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace abclbench
