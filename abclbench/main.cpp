// abclbench: the abclsim benchmark binary.
//
//   abclbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   abclbench --selftest [--out DIR]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics, half their time untraced and
// half with a SpanTracer attached, and write the spans as a Chrome trace
// into DIR. Human-readable lines start with '#'; the last line of stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"}.
// abclbench/run.py builds this binary and is the benchmark's entry point.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "span_tracer.hpp"
#include "workloads.hpp"

#ifndef ABCLBENCH_BUILD_TYPE
#define ABCLBENCH_BUILD_TYPE "unknown"
#endif

namespace abclbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up takes well under a millisecond, so every round of a run takes
// several set-up-only samples; spreading them over the whole run keeps one
// burst of host noise from setting the median.
constexpr int kSetupRepsPerRound = 8;
constexpr std::size_t kMaxExportedQuanta = 200'000;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out;
  bool selftest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "abclbench: %s\nusage: abclbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n       abclbench "
               "--selftest [--out DIR]\nworkloads:",
               why);
  for (const Plan& p : all_plans()) std::fprintf(stderr, " %s", p.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--out") {
      o.out = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("--seed needs an unsigned integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 120.0) {
        usage("--seconds needs a number in (0, 120]");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace needs 0 or 1");
      }
      o.trace = v[0] - '0';
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  return o;
}

// Everything one run gathers before it is reduced to metrics.
struct Samples {
  std::vector<SetupTimes> setups;  // set-up-only samples
  std::vector<Iteration> plain;    // untraced iterations
  std::vector<Iteration> traced;
  std::vector<double> quantum_ns;  // serial driver, last traced iteration
};

template <class T>
double d(T x) {
  return static_cast<double>(x);
}

std::vector<double> field(const std::vector<Iteration>& its,
                          double (*f)(const Iteration&)) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(f(it));
  return v;
}

double median_run_s(const std::vector<Iteration>& its) {
  return median(field(its, [](const Iteration& i) { return i.run_s; }));
}

std::vector<Metric> end_to_end(const Samples& s, const Checks& checks,
                               bool host_measured) {
  std::vector<double> setup;
  for (const SetupTimes& t : s.setups) setup.push_back(t.total());
  const Iteration& last = s.plain.back();
  std::vector<Metric> m;
  m.push_back({"setup_s", median(setup), "s"});
  if (host_measured) m.push_back({"run_s", median_run_s(s.plain), "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  m.push_back({"sim_ms", last.sim_ms, "ms"});
  m.push_back({"sim_heap_mb", last.heap_mb, "MiB"});
  m.push_back({"check_pass_ratio",
               ratio(d(checks.attempted - checks.failed), d(checks.attempted)),
               "ratio"});
  return m;
}

// Simulated figures come from the last untraced iteration (every iteration
// repeats them exactly); host timings are medians over the run.
std::vector<Metric> per_layer(const Samples& s, bool host_measured) {
  const Iteration& it = s.plain.back();
  const abcl::core::NodeStats& st = it.stats;
  std::vector<Metric> m;
  auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  auto host = [&](const char* name, double v, const char* unit) {
    if (host_measured) add(name, v, unit);
  };
  auto setup_median = [&](double (*f)(const SetupTimes&)) {
    std::vector<double> v;
    for (const SetupTimes& t : s.setups) v.push_back(f(t));
    return median(v);
  };
  add("abcl.program_build_s",
      setup_median([](const SetupTimes& t) { return t.program_s; }), "s");
  add("abcl.world_ctor_s",
      setup_median([](const SetupTimes& t) { return t.ctor_s; }), "s");
  add("abcl.boot_s", setup_median([](const SetupTimes& t) { return t.boot_s; }),
      "s");

  const double run_s = median_run_s(s.plain);
  const double quanta = d(it.quanta);
  const double windows = d(it.windows);
  add("sim.quanta", quanta, "count");
  host("sim.host_ns_per_quantum", ratio(run_s * 1e9, quanta), "ns");
  host("sim.minstr_per_s", ratio(d(st.busy_instr) / 1e6, run_s), "Minstr/s");
  add("sim.windows", windows, "count");
  add("sim.quanta_per_window", ratio(quanta, windows), "quanta");
  add("sim.occupancy_per_window", ratio(d(it.occupancy_sum), windows),
      "nodes");
  host("sim.cpu_per_wall",
       median(field(s.plain,
                    [](const Iteration& i) {
                      return ratio(i.cpu_s, i.run_s);
                    })),
       "ratio");
  host("sim.vol_ctx_switches_per_window",
       ratio(median(field(s.plain,
                          [](const Iteration& i) {
                            return d(i.vol_ctx_switches);
                          })),
             windows),
       "count");

  abcl::util::Log2Histogram latency;
  for (const auto& h : st.msg_latency) latency.merge(h);
  add("core.stack_dispatch_ratio",
      ratio(d(st.local_to_dormant), d(st.local_sends)), "ratio");
  add("core.sched_dispatches", d(st.sched_dispatches), "count");
  add("core.blocks", d(st.blocks_await + st.blocks_select), "count");
  add("core.utilization", it.mean_utilization, "ratio");
  add("core.msg_latency_p50_instr", d(latency.percentile(0.5)), "instr");
  add("core.msg_latency_p99_instr", d(latency.percentile(0.99)), "instr");
  add("core.sched_depth_p99", d(st.sched_depth.percentile(0.99)), "count");
  host("core.quantum_ns_p50", quantile(s.quantum_ns, 0.5), "ns");
  host("core.quantum_ns_p99", quantile(s.quantum_ns, 0.99), "ns");

  add("net.packets", d(it.net.packets), "count");
  add("net.wire_words_per_packet",
      ratio(d(it.net.wire_words), d(it.net.packets)), "words");
  add("net.wire_latency_mean_instr", it.net.wire_latency_instr.mean(), "instr");
  add("net.fault_attempts_per_packet",
      ratio(d(it.faults.attempts), d(it.faults.delivered)), "ratio");
  add("net.dup_suppressed", d(it.faults.dup_suppressed), "count");

  add("util.alloc_freelist_hit_ratio",
      ratio(d(it.alloc.freelist_hits), d(it.alloc.allocs)), "ratio");
  add("util.alloc_backing_mb", d(it.alloc.backing_bytes) / (1024.0 * 1024.0),
      "MiB");
  add("util.slab_refills", d(it.alloc.slab_refills), "count");

  add("remote.creations_remote", d(st.creations_remote), "count");
  add("remote.chunk_stock_hit_ratio",
      ratio(d(st.chunk_stock_hits),
            d(st.chunk_stock_hits + st.chunk_stock_misses)),
      "ratio");
  add("remote.migrations_out", d(st.migrations_out), "count");
  add("remote.migration_forwards", d(st.migration_forwards), "count");
  add("remote.hot_node_objects", d(it.hot_node_objects), "count");

  std::vector<double> captures;
  for (const Iteration& i : s.plain) {
    captures.insert(captures.end(), i.capture_s.begin(), i.capture_s.end());
  }
  add("ckpt.snapshot_mb", it.snapshot_mb, "MiB");
  host("ckpt.capture_s", median(captures), "s");
  host("ckpt.restore_s",
       median(field(s.plain, [](const Iteration& i) { return i.restore_s; })),
       "s");
  host("ckpt.replay_s",
       median(field(s.plain, [](const Iteration& i) { return i.replay_s; })),
       "s");
  host("trace.overhead_ratio", ratio(median_run_s(s.traced), run_s), "ratio");
  return m;
}

// Runs rounds until the next one would end past `seconds` (at least
// `min_rounds`). A round takes kSetupRepsPerRound set-up samples and one
// untraced iteration, plus one traced iteration when a tracer is given, so
// host drift affects both sides of trace.overhead_ratio alike; the tracer
// is left holding the last traced iteration's spans. Every iteration's
// metrics_json must equal `reference` (the first iteration's when empty):
// the simulated results repeat exactly.
void measure(const Plan& plan, const Sizes& sz, std::uint64_t seed,
             double seconds, int min_rounds, SpanTracer* tracer,
             std::string& reference, Samples& s, Checks& checks) {
  auto one = [&](SpanTracer* t, std::vector<Iteration>& out) {
    Iteration it = run_iteration(plan, sz, seed, plan.host_threads, t, checks);
    if (reference.empty()) reference = it.metrics;
    checks.expect(it.metrics == reference,
                  "metrics_json repeats exactly for the seed");
    out.push_back(std::move(it));
  };
  const auto t0 = Clock::now();
  double longest = 0.0;
  for (int n = 0; n < min_rounds || since(t0) + longest <= seconds; ++n) {
    const auto r0 = Clock::now();
    for (int i = 0; i < kSetupRepsPerRound; ++i) {
      s.setups.push_back(setup_only(plan, sz, seed));
    }
    one(nullptr, s.plain);
    if (tracer != nullptr) {
      *tracer = SpanTracer(plan.host_threads == 0);
      one(tracer, s.traced);
    }
    longest = std::max(longest, since(r0));
  }
}

int run_workload(const Options& o) {
  Plan plan{};
  if (!find_plan(o.workload, &plan)) {
    usage(("unknown workload '" + o.workload + "'").c_str());
  }
  const Sizes sz = Sizes::full();
  const int cores = nproc();
  // A parallel workload's host timings mean something only when every
  // worker plus the coordinator has a core of its own.
  const bool host_measured = cores >= plan.host_threads + 1;
  std::printf("# host {\"nproc\": %d, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"host_threads\": %d, "
              "\"host_timings\": \"%s\"}\n",
              cores, __VERSION__, ABCLBENCH_BUILD_TYPE, plan.host_threads,
              host_measured ? "measured" : "unmeasured");
  if (!host_measured) {
    std::fprintf(stderr,
                 "abclbench: nproc %d < %d host threads + 1: host timings of "
                 "%s are unmeasured and omitted\n",
                 cores, plan.host_threads, plan.name);
  }
  std::printf("# workload %s seed %llu seconds %g trace %d\n", plan.name,
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace);

  Checks checks;
  Samples s;
  std::string reference;
  if (plan.host_threads > 0) {
    // Untimed serial run: the parallel driver must reproduce it byte for byte.
    reference = run_iteration(plan, sz, o.seed, -1, nullptr, checks).metrics;
  }

  if (o.trace == 0) {
    measure(plan, sz, o.seed, o.seconds, 3, nullptr, reference, s, checks);
    const std::vector<double> runs =
        field(s.plain, [](const Iteration& i) { return i.run_s; });
    std::printf("# run_s samples n=%zu p25 %.6g median %.6g p75 %.6g "
                "max %.6g\n",
                runs.size(), quantile(runs, 0.25), median(runs),
                quantile(runs, 0.75), quantile(runs, 1.0));
    print_result(checks, end_to_end(s, checks, host_measured));
    return 0;
  }
  SpanTracer tracer(plan.host_threads == 0);
  measure(plan, sz, o.seed, o.seconds, 2, &tracer, reference, s, checks);
  for (const auto& q : tracer.quanta()) {
    s.quantum_ns.push_back(d(q.end_ns - q.start_ns));
  }
  if (plan.host_threads == 0) {
    const Iteration& last = s.traced.back();
    checks.expect(tracer.quanta().size() == last.quanta + last.replay_quanta,
                  "one quantum span per executed quantum");
  }
  if (!o.out.empty()) {
    const std::string path = o.out + "/trace-" + plan.name + ".json";
    checks.expect(tracer.write_chrome_trace(path, kMaxExportedQuanta),
                  "chrome trace written");
    std::printf("# chrome trace %s (%zu call spans, %zu quantum spans)\n",
                path.c_str(), tracer.calls().size(),
                std::min(tracer.quanta().size(), kMaxExportedQuanta));
  }
  print_result(checks, per_layer(s, host_measured));
  return 0;
}

// Every workload at toy size, with every check the full runs make, plus
// the properties the benchmark relies on: the seed moves the simulated
// layout, tracing does not move simulated results, and quantum spans cover
// every quantum.
int selftest(const Options& o) {
  const Sizes sz = Sizes::tiny();
  Checks checks;
  for (const Plan& plan : all_plans()) {
    Checks local;
    std::string serial = run_iteration(plan, sz, 7, -1, nullptr, local).metrics;
    const int threads = plan.host_threads;
    Iteration it = run_iteration(plan, sz, 7, threads, nullptr, local);
    local.expect(it.metrics == serial,
                 "driver reproduces the serial metrics_json");
    local.expect(
        run_iteration(plan, sz, 8, -1, nullptr, local).metrics != serial,
        "the seed changes the simulated run");
    SpanTracer tracer(plan.host_threads == 0);
    Iteration traced = run_iteration(plan, sz, 7, threads, &tracer, local);
    local.expect(traced.metrics == serial,
                 "tracing leaves simulated results unchanged");
    local.expect(!tracer.calls().empty(), "call spans recorded");
    if (plan.host_threads == 0) {
      local.expect(tracer.quanta().size() ==
                       traced.quanta + traced.replay_quanta,
                   "one quantum span per executed quantum");
    }
    if (!o.out.empty()) {
      const std::string path = o.out + "/selftest-" + plan.name + ".json";
      local.expect(tracer.write_chrome_trace(path, kMaxExportedQuanta),
                   "chrome trace written");
    }
    std::printf("# selftest %-18s %llu checks, %llu failed\n", plan.name,
                static_cast<unsigned long long>(local.attempted),
                static_cast<unsigned long long>(local.failed));
    checks.attempted += local.attempted;
    checks.failed += local.failed;
  }
  std::printf("selftest %s\n", checks.failed == 0 ? "passed" : "FAILED");
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace abclbench

int main(int argc, char** argv) {
  const abclbench::Options o = abclbench::parse(argc, argv);
  if (o.selftest) return abclbench::selftest(o);
  if (o.workload.empty()) abclbench::usage("--workload is required");
  return abclbench::run_workload(o);
}
