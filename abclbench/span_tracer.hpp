// Host-time spans for the traced run.
//
// SpanTracer is a sim::Tracer that stamps every record() with the host
// clock and keeps everything in memory until the run ends. It holds two
// kinds of span:
//  - call spans, opened by the benchmark around each public library call
//    (program build, World construction, boot, run, checkpoint, restore,
//    metrics_json);
//  - quantum spans (serial driver only): each kQuantum event opens a span
//    that lasts until the next quantum begins or the enclosing call ends,
//    and counts the send/recv/create/block/resume events recorded inside
//    it. Under ParallelMachine events are replayed at window barriers, not
//    when they happen, so no quantum spans are formed there.
// All spans run on the benchmark's one thread, so nesting in time is the
// causal nesting: a quantum span lies inside the run() call span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace abclbench {

class SpanTracer final : public abcl::sim::Tracer {
 public:
  struct CallSpan {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct QuantumSpan {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t node;
    std::uint32_t sends, recvs, creates, blocks, resumes;
  };

  explicit SpanTracer(bool quantum_spans);

  void record(abcl::sim::Instr t, abcl::sim::NodeId node,
              abcl::sim::TraceEv kind, std::uint64_t payload) override;

  int open(const char* name);
  void close(int id);

  const std::vector<CallSpan>& calls() const { return calls_; }
  const std::vector<QuantumSpan>& quanta() const { return quanta_; }

  // Writes the spans as a Chrome trace-event document on pid 1 ("abclbench
  // host"), so it loads beside obs::chrome_trace_json output (pid 0).
  // At most max_quanta quantum spans are written. Returns false on I/O
  // failure.
  bool write_chrome_trace(const std::string& path,
                          std::size_t max_quanta) const;

 private:
  std::int64_t now_ns() const;
  void end_quantum(std::int64_t t);

  std::chrono::steady_clock::time_point origin_;
  bool quantum_spans_;
  std::vector<CallSpan> calls_;
  std::vector<QuantumSpan> quanta_;
  bool quantum_open_ = false;
};

// RAII call span; a null tracer makes it a no-op.
class Scoped {
 public:
  Scoped(SpanTracer* t, const char* name)
      : t_(t), id_(t != nullptr ? t->open(name) : -1) {}
  ~Scoped() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanTracer* t_;
  int id_;
};

}  // namespace abclbench
