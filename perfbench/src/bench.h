// Shared types of the two-clock benchmark.
//
// Two clocks run through every workload:
//  * virtual time — the modelled system (Simulator::now()). Every virtual value is
//    a pure function of the seed, so it must repeat bit for bit on every rep;
//  * host time — the benchmark thread's CPU clock around the simulator's own
//    calls. It carries the machine's noise. The CPU clock leaves out time the
//    thread or its virtual CPU waited to run (steal), and the run times are
//    calibrated against a fixed reference kernel that runs between chunks of
//    each run (see TimedRun), so a machine that runs slower for a while does not
//    read as a slower simulator.
//
// The benchmark builds its worlds from the public headers only, the same way
// src/harness/runner.cc does, so it can slice Simulator::Run(deadline) and read
// EventQueue / CpuPool counters the runner's result structs do not expose.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/mem/shm.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/vfs/fs.h"

namespace perfbench {

using remon::DurationNs;
using remon::TimeNs;

// Wall clock: span timestamps and the run's time budget.
inline double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU seconds of the calling thread: every reported host duration.
inline double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The reference kernel's nominal time: host times are scaled by
// kReferenceNominalS / (the kernel's time next to them), so they read as host
// seconds on a machine where one kernel run takes exactly this long.
constexpr double kReferenceNominalS = 0.015;

// Events per timed chunk of a run (see TimedRun).
constexpr uint64_t kChunkEvents = 300000;

// Runs the reference kernel once and returns its CPU seconds. The kernel is fixed
// code of the benchmark's own (a binary-heap event loop over a hash table, with
// small copies and allocations in a 256 KiB arena, shaped like the simulator's
// hot path) and never changes with the simulator, so its time tracks only the
// machine's speed.
double ReferenceKernelSeconds();

// One named value. `samples` is the number of observations behind it (0 for a
// plain count).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

// One hermetic simulated world: src/harness/runner.cc's World without its preset
// machines (each workload adds its own).
struct World {
  explicit World(uint64_t seed)
      : sim(seed), net(&sim), kernel(&sim, &fs, &net, &shm) {}
  remon::Simulator sim;
  remon::Filesystem fs;
  remon::Network net;
  remon::ShmRegistry shm;
  remon::Kernel kernel;
};

// --- Spans -------------------------------------------------------------------------
//
// Spans live only in the benchmark's own code, around its calls into the layers:
// setup, Simulator::Run in fixed virtual-time slices, verification and probes.
// They stay in memory and are written out once, at the end of the run.

struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  double host_start = 0;  // Seconds since the tracer started.
  double host_end = 0;
  TimeNs virt_start = 0;  // -1 when the span has no simulated world.
  TimeNs virt_end = 0;
  // Counter deltas over the span (Run slices only).
  uint64_t syscalls = 0;
  uint64_t events = 0;
  uint64_t frames = 0;
  uint64_t snapshot_bytes = 0;
};

class Tracer {
 public:
  Tracer() : origin_(HostNow()) {}

  int Begin(const std::string& name, int parent = -1, TimeNs virt = -1);
  void End(int id, TimeNs virt = -1);
  Span& span(int id) { return spans_[static_cast<size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJson(const std::string& path) const;

 private:
  double origin_;
  std::vector<Span> spans_;
};

// Host-side totals over a rep's timed Simulator::Run calls.
struct RunTotals {
  double host_s = 0;         // Thread CPU seconds, unscaled.
  double scaled_host_s = 0;  // The same, each chunk scaled by the reference kernel.
  std::vector<double> reference_s;  // Every reference kernel run (CPU seconds).
  uint64_t events = 0;
  uint64_t syscalls = 0;
  // Traced runs only: host time and events of slices that carried re-seed
  // (snapshot) traffic, for the re-seed-window vs steady-state split.
  double reseed_host_s = 0;
  uint64_t reseed_events = 0;
};

// Runs `w` until its event queue drains, in `slice` virtual-time slices grouped
// into timed chunks with the reference kernel between them. Traced: one span per
// slice and per reference run.
void TimedRun(World* w, Tracer* tracer, int parent, const std::string& label,
              DurationNs slice, RunTotals* totals);

// Percentile (nearest rank over the sorted sample, p in [0, 100]). Failed
// operations enter as +infinity: a failure misses every latency limit.
double Percentile(std::vector<double> xs, double p);
double Median(std::vector<double> xs);

// What the layer probes need to know about the workload they mirror.
struct ProbeInputs {
  uint64_t rb_size = 0;
  int rb_max_ranks = 16;
  int rb_ranks_used = 1;
  double rb_mean_entry_bytes = 0;
  double rb_bytes_per_rank = 0;
  double mean_frame_bytes = 0;  // 0 when the workload sends no frames.
  double kib_per_join = 0;      // 0 when the workload re-seeds nothing.
  int lb_backends = 0;          // 0 when no load balancer routes.
};

// One rep of a workload: a full, deterministic run of every world it needs.
struct RepResult {
  // Host clock.
  double setup_world_s = 0;
  double setup_launch_s = 0;
  RunTotals run;
  // Virtual clock and counters: deterministic per seed.
  std::vector<Metric> end_to_end;  // Virtual end-to-end metrics.
  std::vector<Metric> layers;      // Per-layer counters and ratios.
  uint64_t route_digest = 0;       // Folded LoadBalancer::route_digest()s.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  // Failed correctness checks.
  std::vector<std::string> report;      // Human-readable lines (tables).
  ProbeInputs probe;
};

struct RepContext {
  uint64_t seed = 1;
  // Per-layer invocations (--trace 1) also run what only per-layer metrics need:
  // fleet_swarm's rate ladder.
  bool per_layer = false;
  Tracer* tracer = nullptr;  // Non-null on traced reps.
  int parent_span = -1;
};

using WorkloadFn = RepResult (*)(const RepContext& ctx);

RepResult RunSyscallDense(const RepContext& ctx);
RepResult RunRemoteReseed(const RepContext& ctx);
RepResult RunFleetSwarm(const RepContext& ctx);

// Layer probes: time public entry points at the sizes the workload's own
// counters report, warm-up excluded. Each appends host-clock metrics.
void RunProbes(const ProbeInputs& in, Tracer* tracer, int parent,
               std::vector<Metric>* out);

// Helpers shared by the workloads.
void AddStatsLayers(const remon::SimStats& s, const remon::CpuPool& cpus,
                    TimeNs virt_elapsed, RepResult* r);
void FillProbeInputs(const remon::SimStats& s, uint64_t rb_size, int ranks_used,
                     ProbeInputs* in);
uint64_t Fnv1a(uint64_t h, const void* data, size_t len);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
