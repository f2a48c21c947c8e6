// The benchmark's four workloads, driven only through abclsim's public API.
//
// Each iteration builds its Program and World from scratch (timed as
// set-up), runs to quiescence (timed as the run), checks the outputs and
// returns every figure the end-to-end and per-layer metrics are derived
// from. Everything simulated in an Iteration is a pure function of
// (workload, sizes, seed); only the *_s fields and rusage deltas are host
// measurements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "util/slab.hpp"

namespace abclbench {

class SpanTracer;

enum class Kind {
  kNQueensSerial,
  kNQueensParallel,
  kHotspotMigrate,
  kRecoveryFaults
};

// Workload sizes. full() is what the benchmark measures; tiny() is the
// self-check's shrunken copy of the same workloads and checks.
struct Sizes {
  int queens_n = 11;
  int queens_nodes = 256;
  int recovery_nodes = 64;
  int hot_nodes = 16;
  int hot_actors = 1024;
  std::uint64_t hot_fuel = 1000;
  // Simulated instructions between checkpoint captures in recovery_faults.
  std::uint64_t ckpt_interval = 1'000'000;

  static Sizes full() { return {}; }
  static Sizes tiny() { return {8, 16, 16, 4, 64, 40, 40'000}; }
};

struct Plan {
  Kind kind;
  const char* name;
  int host_threads;  // 0 = serial Machine
};

// Looks up a workload by name; returns false for an unknown name.
bool find_plan(const std::string& name, Plan* out);
const std::vector<Plan>& all_plans();

// Output checks: every expectation counts as one attempt.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const char* what);
};

struct SetupTimes {
  double program_s = 0.0;  // class registration + Program::finalize
  double ctor_s = 0.0;     // World construction
  double boot_s = 0.0;     // World::boot of the roots and first messages
  double total() const { return program_s + ctor_s + boot_s; }
};

struct Iteration {
  SetupTimes setup;
  double run_s = 0.0;  // first run() to the checked result
  double cpu_s = 0.0;  // process CPU seconds over the same interval
  std::uint64_t vol_ctx_switches = 0;

  double sim_ms = 0.0;
  double heap_mb = 0.0;  // World::total_heap_bytes at quiescence, MiB
  std::uint64_t quanta = 0;
  std::uint64_t windows = 0;        // ParallelMachine only
  std::uint64_t occupancy_sum = 0;  // ParallelMachine only
  double mean_utilization = 0.0;
  std::string metrics;  // obs::metrics_json at quiescence (no run report)

  abcl::core::NodeStats stats;
  abcl::util::SlabAllocator::Stats alloc;
  abcl::net::Network::Stats net;
  abcl::net::FaultStats faults;
  std::uint64_t hot_node_objects = 0;  // hotspot_migrate: actors left on node 0

  // recovery_faults only.
  double snapshot_mb = 0.0;  // the restored (middle) snapshot
  std::vector<double> capture_s;
  double restore_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t replay_quanta = 0;
};

// One full iteration. host_threads < 0 forces the serial Machine (the
// untimed reference run of the parallel workloads). A non-null tracer is
// attached to the world and receives spans around every public call.
Iteration run_iteration(const Plan& plan, const Sizes& sz, std::uint64_t seed,
                        int host_threads, SpanTracer* tracer, Checks& checks);

// Set-up only: build, construct and boot, then drop the world unrun.
SetupTimes setup_only(const Plan& plan, const Sizes& sz, std::uint64_t seed);

}  // namespace abclbench
