// twoclock: the repository's two-clock benchmark program.
//
//   twoclock --workload syscall_dense|remote_reseed|fleet_swarm --seed N
//            --seconds S --trace 0|1 [--trace-out PATH]
//
// Repeats the workload's deterministic worlds (same seed every rep) for at least
// S host seconds and at least three reps. Rep 0 is the warm-up: it fixes the
// virtual metrics, and every later rep must reproduce them bit for bit.
// Host times are thread CPU time, scaled by the fixed reference kernel that runs
// between the chunks of every timed run (see TimedRun): a machine that runs
// slower for a while slows both alike, so the scaled times keep the simulator's
// own speed. A rep's set-up times are scaled by the median of its kernel runs.
// The reported host times are medians over the reps after the warm-up. That
// determinism check, the workload's own output checks and the probes' round
// trips are the correctness checks.
// --trace 0 prints the end-to-end metrics, measured with tracing off. --trace 1
// alternates untraced and traced reps, adds the layer probes and prints the
// per-layer metrics; its spans go to --trace-out.
// The last line of standard output is one JSON object; the exit code is 1 when
// any correctness check failed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

WorkloadFn Lookup(const std::string& name) {
  if (name == "syscall_dense") {
    return RunSyscallDense;
  }
  if (name == "remote_reseed") {
    return RunRemoteReseed;
  }
  if (name == "fleet_swarm") {
    return RunFleetSwarm;
  }
  return nullptr;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

bool SameMetrics(const std::vector<Metric>& a, const std::vector<Metric>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || !SameBits(a[i].value, b[i].value) ||
        a[i].samples != b[i].samples) {
      return false;
    }
  }
  return true;
}

// Every virtual value of `rep` must equal rep 0's, bit for bit.
void CheckDeterminism(const RepResult& first, const RepResult& rep, size_t index,
                      std::vector<std::string>* violations) {
  std::string who = "rep " + std::to_string(index) + ": ";
  if (!SameMetrics(first.end_to_end, rep.end_to_end)) {
    violations->push_back(who + "virtual end-to-end metrics differ from rep 0");
  }
  if (!SameMetrics(first.layers, rep.layers)) {
    violations->push_back(who + "layer counters differ from rep 0");
  }
  if (first.route_digest != rep.route_digest) {
    violations->push_back(who + "load-balancer route digest differs from rep 0");
  }
  if (first.run.events != rep.run.events || first.run.syscalls != rep.run.syscalls ||
      first.attempted != rep.attempted || first.failed != rep.failed) {
    violations->push_back(who + "event/syscall/operation counts differ from rep 0");
  }
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void Print(const Metric& m, const char* clock) {
  std::printf("metric %-32s %18.6f %-8s n=%-9llu [%s]\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples), clock);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: twoclock --workload syscall_dense|remote_reseed|fleet_swarm "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  WorkloadFn fn = Lookup(args.workload);
  if (fn == nullptr) {
    std::fprintf(stderr, "twoclock: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tracer tracer;
  std::vector<RepResult> reps;
  std::vector<bool> traced;
  double start = HostNow();
  // Reps until the budget is spent, at least three: the warm-up plus two timed
  // (in traced mode one untraced and one traced; odd reps are the traced ones).
  while (reps.size() < 3 || HostNow() - start < args.seconds) {
    RepContext ctx;
    ctx.seed = args.seed;
    ctx.per_layer = args.trace;
    bool t = args.trace && reps.size() % 2 == 1;
    if (t) {
      ctx.tracer = &tracer;
      ctx.parent_span = tracer.Begin("rep " + std::to_string(reps.size()));
    }
    reps.push_back(fn(ctx));
    traced.push_back(t);
    if (t) {
      tracer.End(ctx.parent_span);
    }
  }

  const RepResult& first = reps.front();
  std::vector<std::string> violations = first.violations;
  int verify_span = args.trace ? tracer.Begin("verify") : -1;
  for (size_t i = 1; i < reps.size(); ++i) {
    CheckDeterminism(first, reps[i], i, &violations);
  }
  if (args.trace) {
    tracer.End(verify_span);
  }

  std::vector<double> host_s[2];  // [untraced, traced]
  std::vector<double> setup_s;
  std::vector<double> world_ms;
  std::vector<double> launch_ms;
  std::vector<double> ns_per_syscall;
  std::vector<double> ns_per_event_traced;
  std::vector<double> reference_s;
  double reseed_host = 0;
  uint64_t reseed_events = 0;
  for (size_t i = 1; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    double k = kReferenceNominalS / Median(r.run.reference_s);
    reference_s.insert(reference_s.end(), r.run.reference_s.begin(),
                       r.run.reference_s.end());
    host_s[traced[i] ? 1 : 0].push_back(r.run.scaled_host_s);
    setup_s.push_back((r.setup_world_s + r.setup_launch_s) * k);
    world_ms.push_back(r.setup_world_s * 1e3 * k);
    launch_ms.push_back(r.setup_launch_s * 1e3 * k);
    if (!traced[i]) {
      ns_per_syscall.push_back(r.run.scaled_host_s * 1e9 /
                               static_cast<double>(r.run.syscalls));
    } else {
      ns_per_event_traced.push_back(r.run.scaled_host_s * 1e9 /
                                    static_cast<double>(r.run.events));
      reseed_host += r.run.reseed_host_s;
      reseed_events += r.run.reseed_events;
    }
  }
  uint64_t n_untraced = host_s[0].size();

  std::printf("twoclock: workload=%s seed=%llu reps=%zu (warm-up 1, traced %zu) "
              "budget=%.0f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size(), host_s[1].size(), args.seconds);
  for (const std::string& line : first.report) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("host CPU s per rep, unscaled:");
  for (size_t i = 0; i < reps.size(); ++i) {
    std::printf(" %.4f%s", reps[i].run.host_s, i == 0 ? "(warm-up)" : traced[i] ? "(t)" : "");
  }
  std::printf("\n");
  std::printf("host s per rep, scaled:");
  for (size_t i = 1; i < reps.size(); ++i) {
    std::printf(" %.4f%s", reps[i].run.scaled_host_s, traced[i] ? "(t)" : "");
  }
  std::printf("\n");
  std::printf("reference kernel: %zu runs, median %.3f CPU ms (nominal %.1f), "
              "%llu events per timed chunk\n",
              reference_s.size(), Median(reference_s) * 1e3, kReferenceNominalS * 1e3,
              static_cast<unsigned long long>(kChunkEvents));

  std::vector<Metric> out;
  if (!args.trace) {
    std::vector<Metric> host = {
        {"setup_s", Median(setup_s), "s", setup_s.size()},
        {"host_s", Median(host_s[0]), "s", n_untraced},
        {"host_ns_per_syscall", Median(ns_per_syscall), "ns", n_untraced},
        {"peak_rss_mb", PeakRssMb(), "MB", 1},
    };
    for (const Metric& m : host) {
      Print(m, "host");
      out.push_back(m);
    }
    for (const Metric& m : first.end_to_end) {
      Print(m, "virtual");
      out.push_back(m);
    }
  } else {
    std::vector<Metric> host;
    int probe_span = tracer.Begin("probes");
    RunProbes(first.probe, &tracer, probe_span, &host);
    tracer.End(probe_span);
    double untraced = Median(host_s[0]);
    double traced_s = Median(host_s[1]);
    host.push_back({"sim.host_ns_per_event", Median(ns_per_event_traced), "ns",
                    ns_per_event_traced.size()});
    host.push_back({"setup.world_host_ms", Median(world_ms), "ms", world_ms.size()});
    host.push_back({"setup.launch_host_ms", Median(launch_ms), "ms", launch_ms.size()});
    host.push_back(
        {"calib.reference_ms", Median(reference_s) * 1e3, "ms", reference_s.size()});
    host.push_back({"trace.overhead_share", untraced > 0 ? traced_s / untraced - 1 : 0,
                    "share", reps.size() - 1});
    std::vector<Metric> virt = {
        {"sim.events", static_cast<double>(first.run.events), "count", 0},
        {"kernel.syscalls", static_cast<double>(first.run.syscalls), "count", 0},
    };
    virt.insert(virt.end(), first.layers.begin(), first.layers.end());
    for (const Metric& m : host) {
      Print(m, "host");
      out.push_back(m);
    }
    for (const Metric& m : virt) {
      Print(m, "virtual");
      out.push_back(m);
    }
    if (reseed_events > 0) {
      double steady_host = 0;
      uint64_t steady_events = 0;
      for (size_t i = 0; i < reps.size(); ++i) {
        if (traced[i]) {
          steady_host += reps[i].run.host_s - reps[i].run.reseed_host_s;
          steady_events += reps[i].run.events - reps[i].run.reseed_events;
        }
      }
      std::printf("slices: re-seed windows %.1f host ns/event over %llu events; "
                  "steady state %.1f host ns/event over %llu events\n",
                  reseed_host * 1e9 / static_cast<double>(reseed_events),
                  static_cast<unsigned long long>(reseed_events),
                  steady_host * 1e9 / static_cast<double>(std::max<uint64_t>(1, steady_events)),
                  static_cast<unsigned long long>(steady_events));
    }
    if (!args.trace_out.empty()) {
      if (tracer.WriteJson(args.trace_out)) {
        std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                    args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "twoclock: cannot write %s\n", args.trace_out.c_str());
      }
    }
  }

  for (const Metric& m : out) {
    if (!std::isfinite(m.value)) {
      violations.push_back("metric " + m.name + " is not finite");
    }
  }
  for (const std::string& v : violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }
  bool correct = violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed));
  for (size_t i = 0; i < out.size(); ++i) {
    double v = std::isfinite(out[i].value) ? out[i].value : -1;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                out[i].name.c_str(), v, out[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
