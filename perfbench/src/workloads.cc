// The three workloads. Each builds its worlds from the public headers (as
// src/harness/runner.cc does), times only the Simulator::Run calls, and returns
// one deterministic RepResult.
//
//  syscall_dense  a fig1-shaped single program (4 file calls per iteration at
//                 ~100k calls/s native) under ReMon with 2 local replicas, beside
//                 its native twin. No loop, no network: the IK-B -> IP-MON ->
//                 SHM-RB fast path does almost all the work.
//  remote_reseed  a closed loop of 32 connections against multi-threaded
//                 memcached on 3 replicas, the last on its own machine behind the
//                 authenticated transport with the sync agent on; the remote
//                 replica is killed repeatedly and re-seeded by delta checkpoint.
//  fleet_swarm    an open loop (Poisson arrivals, one short connection each)
//                 against the chain nginx:2 -> memcached:2 -> redis:1 of
//                 2-replica shards, at a reference rate plus a rate ladder that
//                 runs past saturation.

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "bench.h"
#include "src/core/fleet.h"
#include "src/core/remon.h"
#include "src/kernel/abi.h"
#include "src/mem/layout.h"
#include "src/sim/rng.h"
#include "src/workloads/clients.h"
#include "src/workloads/servers.h"

namespace perfbench {

using namespace remon;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Ms(double ns) { return ns / 1e6; }

void AddVirt(RepResult* r, const char* name, double value, const char* unit,
             uint64_t samples = 0) {
  r->end_to_end.push_back(Metric{name, value, unit, samples});
}

void AddLatencies(RepResult* r, const std::vector<double>& lat_ns) {
  uint64_t n = lat_ns.size();
  AddVirt(r, "p50_ms", Ms(Percentile(lat_ns, 50)), "ms", n);
  AddVirt(r, "p99_ms", Ms(Percentile(lat_ns, 99)), "ms", n);
  AddVirt(r, "p999_ms", Ms(Percentile(lat_ns, 99.9)), "ms", n);
}

// The open-loop and load-balancer rows every workload reports (zeros, n=0, where
// it has neither), plus its fail share.
struct LoadLayers {
  double imbalance = 0;
  uint64_t backends = 0;
  double stalled_share = 0;
  uint64_t arrivals = 0;
  double max_rate = 0;
  uint64_t rungs = 0;
};

void AddLoadLayers(RepResult* r, const LoadLayers& l) {
  r->layers.push_back(Metric{"lb.imbalance", l.imbalance, "ratio", l.backends});
  r->layers.push_back(Metric{"gen.stalled_share", l.stalled_share, "share", l.arrivals});
  r->layers.push_back(Metric{"max_rate_conn_s", l.max_rate, "conn/s", l.rungs});
  r->layers.push_back(Metric{
      "fail_share",
      r->attempted > 0 ? static_cast<double>(r->failed) / static_cast<double>(r->attempted)
                       : 0,
      "share", r->attempted});
}

// Setup spans around one world: construction (world) and launch, up to the first
// event of its timed run.
class SetupTimer {
 public:
  SetupTimer(const RepContext& ctx, RepResult* r, const std::string& name)
      : ctx_(ctx), r_(r), t0_(CpuNow()) {
    if (ctx_.tracer != nullptr) {
      span_ = ctx_.tracer->Begin("setup." + name, ctx_.parent_span);
      world_span_ = ctx_.tracer->Begin("setup.world", span_);
    }
  }
  void WorldBuilt() {
    t1_ = CpuNow();
    if (ctx_.tracer != nullptr) {
      ctx_.tracer->End(world_span_);
      launch_span_ = ctx_.tracer->Begin("setup.launch", span_);
    }
  }
  void Launched() {
    double t2 = CpuNow();
    r_->setup_world_s += t1_ - t0_;
    r_->setup_launch_s += t2 - t1_;
    if (ctx_.tracer != nullptr) {
      ctx_.tracer->End(launch_span_);
      ctx_.tracer->End(span_);
    }
  }

 private:
  const RepContext& ctx_;
  RepResult* r_;
  double t0_;
  double t1_ = 0;
  int span_ = -1;
  int world_span_ = -1;
  int launch_span_ = -1;
};

// ---------------------------------------------------------------------------------
// syscall_dense
// ---------------------------------------------------------------------------------

constexpr int kDenseIterations = 25000;
constexpr int kDenseCallsPerIter = 4;  // 2 preads + 2 pwrites, as in fig. 1.
constexpr uint64_t kDenseSlotBytes = 2048;
constexpr int kDenseSlots = 32;
constexpr const char* kDensePath = "/tmp/perfbench-dense";

// Seed-derived program input: per-iteration compute and per-call size/slot.
struct DenseInputs {
  std::vector<DurationNs> compute;
  std::vector<uint32_t> io_bytes;
  std::vector<uint32_t> slot;
};

// What the leader observed (replica 0, or the native process).
struct DenseLog {
  // Per iteration (compute burst + 4 file calls), virtual: the program's unit
  // of work, the dense workload's "request".
  std::vector<double> lat_ns;
  uint64_t short_io = 0;
};

DenseInputs MakeDenseInputs(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xd15e);
  DenseInputs in;
  for (int i = 0; i < kDenseIterations; ++i) {
    in.compute.push_back(Micros(30) + rng.NextInRange(0, Micros(16)));
    for (int k = 0; k < kDenseCallsPerIter; ++k) {
      in.io_bytes.push_back(static_cast<uint32_t>(rng.NextInRange(256, 1792)));
      in.slot.push_back(static_cast<uint32_t>(rng.NextBelow(kDenseSlots)));
    }
  }
  return in;
}

ProgramFn DenseProgram(std::shared_ptr<const DenseInputs> in, DenseLog* log) {
  return [in, log](Guest& g) -> GuestTask<void> {
    Kernel* kernel = g.kernel();
    bool leader = g.process()->replica_index <= 0;
    GuestAddr buf = g.Alloc(kDenseSlotBytes);
    int64_t fd = co_await g.Open(kDensePath, kO_CREAT | kO_RDWR);
    REMON_CHECK(fd >= 0);
    for (int s = 0; s < kDenseSlots; ++s) {
      co_await g.Pwrite(static_cast<int>(fd), buf, kDenseSlotBytes, s * kDenseSlotBytes);
    }
    for (int iter = 0; iter < kDenseIterations; ++iter) {
      TimeNs t0 = kernel->now();
      co_await g.Compute(in->compute[static_cast<size_t>(iter)]);
      for (int k = 0; k < kDenseCallsPerIter; ++k) {
        size_t c = static_cast<size_t>(iter * kDenseCallsPerIter + k);
        uint64_t n = in->io_bytes[c];
        uint64_t off = in->slot[c] * kDenseSlotBytes;
        bool write = k >= 2;
        if (write) {
          g.PokeU64(buf, c);  // Stamp: the file image checks replication.
        }
        int64_t rc = write ? co_await g.Pwrite(static_cast<int>(fd), buf, n, off)
                           : co_await g.Pread(static_cast<int>(fd), buf, n, off);
        if (leader && rc != static_cast<int64_t>(n)) {
          ++log->short_io;
        }
      }
      if (leader) {
        log->lat_ns.push_back(static_cast<double>(kernel->now() - t0));
      }
    }
    co_await g.Close(static_cast<int>(fd));
  };
}

struct DenseRun {
  TimeNs end = 0;
  bool finished = false;
  bool diverged = false;
  std::string file;
};

DenseRun RunDenseWorld(const RepContext& ctx, RepResult* r, MveeMode mode,
                       std::shared_ptr<const DenseInputs> in, DenseLog* log) {
  const char* name = mode == MveeMode::kNative ? "native" : "remon2";
  SetupTimer setup(ctx, r, name);
  World w(ctx.seed);
  uint32_t machine = w.net.AddMachine("server");
  RemonOptions opts;
  opts.mode = mode;
  opts.replicas = 2;
  opts.machine = machine;
  opts.mem_intensity = 0.0;  // WorkloadSpec default, as fig. 1's spec.
  Remon mvee(&w.kernel, opts);
  setup.WorldBuilt();
  mvee.Launch(DenseProgram(std::move(in), log), "dense");
  setup.Launched();

  TimedRun(&w, ctx.tracer, ctx.parent_span, std::string("run.") + name, Millis(20),
           &r->run);

  DenseRun out;
  out.end = w.sim.now();
  out.finished = mvee.finished();
  out.diverged = mvee.divergence_detected();
  out.file = w.fs.ReadWholeFile(kDensePath).value_or("");
  if (mode != MveeMode::kNative) {
    AddStatsLayers(w.sim.stats(), w.sim.cpus(), w.sim.now(), r);
    FillProbeInputs(w.sim.stats(), opts.rb_size, 1, &r->probe);
    r->probe.rb_max_ranks = opts.max_ranks;
  }
  return out;
}

}  // namespace

RepResult RunSyscallDense(const RepContext& ctx) {
  RepResult r;
  auto in = std::make_shared<const DenseInputs>(MakeDenseInputs(ctx.seed));
  DenseLog native_log;
  DenseLog mvee_log;
  DenseRun native = RunDenseWorld(ctx, &r, MveeMode::kNative, in, &native_log);
  DenseRun mvee = RunDenseWorld(ctx, &r, MveeMode::kRemon, in, &mvee_log);

  uint64_t expected = kDenseIterations;
  if (!native.finished || !mvee.finished) {
    r.violations.push_back("program did not finish");
  }
  if (mvee.diverged) {
    r.violations.push_back("divergence detected");
  }
  if (mvee_log.lat_ns.size() != expected || native_log.lat_ns.size() != expected) {
    r.violations.push_back("leader iteration count differs from the program");
  }
  if (native_log.short_io + mvee_log.short_io > 0) {
    r.violations.push_back("a file call returned fewer bytes than requested");
  }
  if (mvee.file.empty() || mvee.file != native.file) {
    r.violations.push_back("replicated file image differs from the native run");
  }
  r.attempted = mvee_log.lat_ns.size() + native_log.lat_ns.size();
  r.failed = native_log.short_io + mvee_log.short_io;

  double mvee_s = static_cast<double>(mvee.end) / 1e9;
  AddVirt(&r, "normalized_time",
          native.end > 0 ? static_cast<double>(mvee.end) / static_cast<double>(native.end)
                         : 0,
          "x");
  AddVirt(&r, "throughput_per_s",
          mvee_s > 0 ? static_cast<double>(mvee_log.lat_ns.size()) / mvee_s : 0, "1/s",
          mvee_log.lat_ns.size());
  AddLatencies(&r, mvee_log.lat_ns);
  AddLoadLayers(&r, {});
  char line[160];
  std::snprintf(line, sizeof(line),
                "syscall_dense: %d iterations x %d calls; native %.6f s, remon2 %.6f s "
                "virtual",
                kDenseIterations, kDenseCallsPerIter, static_cast<double>(native.end) / 1e9,
                mvee_s);
  r.report.push_back(line);
  return r;
}

// ---------------------------------------------------------------------------------
// remote_reseed
// ---------------------------------------------------------------------------------

namespace {

constexpr int kReseedRequests = 10000;
constexpr int kReseedConnections = 32;
constexpr int kReseedKills = 8;

struct ReseedInputs {
  uint64_t request_bytes = 1024;
  TimeNs first_kill = 0;
  DurationNs kill_every = 0;
};

ReseedInputs MakeReseedInputs(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x2e5eed);
  ReseedInputs in;
  // The request size stays at its default: it sets the host work per request,
  // which must not differ between seeds. So must the number of kills
  // (kReseedKills, all well before the client finishes); the seed moves when
  // they happen.
  in.first_kill = Millis(30) + rng.NextInRange(0, Millis(20));
  in.kill_every = Millis(200) + rng.NextInRange(0, Millis(20));
  return in;
}

// Kills the highest-index remote replica's agent (its machine dies) every
// `every`, `kills` times or until the client is done — the runner's kill loop,
// stopped by the client instead of by the server (servers never exit).
void ScheduleKill(World* w, Remon* mvee, const bool* client_done, DurationNs every,
                  int kills, TimeNs at) {
  if (kills <= 0) {
    return;
  }
  w->sim.queue().ScheduleAt(at, [w, mvee, client_done, every, kills] {
    if (*client_done) {
      return;
    }
    for (int i = mvee->options().replicas - 1; i >= 1; --i) {
      if (RemoteSyncAgent* agent = mvee->remote_agent(i)) {
        agent->Shutdown();
        break;
      }
    }
    ScheduleKill(w, mvee, client_done, every, kills - 1, w->sim.queue().now() + every);
  });
}

struct ReseedRun {
  ClientStats client;
  SimStats stats;
  bool diverged = false;
};

ReseedRun RunReseedWorld(const RepContext& ctx, RepResult* r, MveeMode mode,
                         const ReseedInputs& in) {
  const char* name = mode == MveeMode::kNative ? "native" : "remon3";
  SetupTimer setup(ctx, r, name);
  ReseedRun out;
  World w(ctx.seed);
  LinkParams link;  // 60 us, 1 Gbit/s: the fig. 5 "local gigabit" link.
  uint32_t server_machine = w.net.AddMachine("server");
  uint32_t client_machine = w.net.AddMachine("client");
  w.net.SetLink(server_machine, client_machine, link);
  ServerSpec server = ServerByName("memcached");

  RemonOptions opts;
  opts.mode = mode;
  opts.replicas = 3;
  opts.machine = server_machine;
  opts.mem_intensity = server.mem_intensity;
  opts.use_sync_agent = true;  // memcached is multi-threaded.
  opts.rb_auth = true;
  opts.respawn_dead_replicas = true;
  if (mode == MveeMode::kRemon) {
    uint32_t host = w.net.AddMachine("replica-host-1");
    w.net.SetLink(server_machine, host, link);
    opts.replica_machines = {server_machine, server_machine, host};
  }
  Remon mvee(&w.kernel, opts);
  setup.WorldBuilt();
  mvee.Launch(ServerProgram(server), server.name);

  bool client_done = false;
  if (mode == MveeMode::kRemon) {
    ScheduleKill(&w, &mvee, &client_done, in.kill_every, kReseedKills, in.first_kill);
  }
  ClientSpec cs;
  cs.connections = kReseedConnections;
  cs.total_requests = kReseedRequests;
  cs.request_bytes = in.request_bytes;
  cs.server_machine = server_machine;
  cs.port = server.port;
  LayoutPlanner planner(&w.sim.rng());
  Process* client = w.kernel.CreateProcess("client", client_machine, planner.PlanFor(8));
  ClientStats* stats = &out.client;
  w.kernel.SpawnThread(client, [&cs, stats, &client_done](Guest& g) -> GuestTask<void> {
    co_await g.SleepNs(Millis(2));  // Head start: servers reach accept().
    ProgramFn body = ClientProgram(cs, stats);
    co_await body(g);
    client_done = true;
  });
  setup.Launched();

  TimedRun(&w, ctx.tracer, ctx.parent_span, std::string("run.") + name, Millis(5),
           &r->run);

  out.stats = w.sim.stats();
  out.diverged = mvee.divergence_detected();
  if (mode == MveeMode::kRemon) {
    AddStatsLayers(w.sim.stats(), w.sim.cpus(), w.sim.now(), r);
    FillProbeInputs(w.sim.stats(), opts.rb_size, server.workers + 1, &r->probe);
    r->probe.rb_max_ranks = opts.max_ranks;
  }
  return out;
}

void CheckClient(const ClientStats& c, uint64_t request_bytes, const char* who,
                 RepResult* r) {
  r->attempted += kReseedRequests;
  uint64_t failed = static_cast<uint64_t>(kReseedRequests - c.completed);
  r->failed += failed;
  if (failed > 0 || c.errors > 0) {
    r->violations.push_back(std::string(who) + ": requests failed or never completed");
  }
  if (c.bytes_received != static_cast<uint64_t>(c.completed) * request_bytes) {
    r->violations.push_back(std::string(who) + ": a reply was shorter than requested");
  }
}

}  // namespace

RepResult RunRemoteReseed(const RepContext& ctx) {
  RepResult r;
  ReseedInputs in = MakeReseedInputs(ctx.seed);
  ReseedRun native = RunReseedWorld(ctx, &r, MveeMode::kNative, in);
  ReseedRun mvee = RunReseedWorld(ctx, &r, MveeMode::kRemon, in);

  CheckClient(native.client, in.request_bytes, "native", &r);
  CheckClient(mvee.client, in.request_bytes, "remon3", &r);
  const SimStats& s = mvee.stats;
  if (mvee.diverged || s.divergences_detected > 0) {
    r.violations.push_back("divergence detected");
  }
  if (s.rb_auth_frames_rejected > 0) {
    r.violations.push_back("authenticated frames rejected");
  }
  if (s.rb_snapshot_rejects > 0) {
    r.violations.push_back("re-seed snapshots rejected");
  }
  if (s.rb_replica_joins == 0) {
    r.violations.push_back("no re-seed happened");
  }

  double native_s = native.client.Seconds();
  double mvee_s = mvee.client.Seconds();
  AddVirt(&r, "normalized_time", native_s > 0 ? mvee_s / native_s : 0, "x");
  AddVirt(&r, "throughput_per_s", mvee.client.Throughput(), "1/s",
          static_cast<uint64_t>(mvee.client.completed));
  std::vector<double> lat(mvee.client.latencies.begin(), mvee.client.latencies.end());
  for (int i = mvee.client.completed; i < kReseedRequests; ++i) {
    lat.push_back(kInf);
  }
  AddLatencies(&r, lat);
  AddLoadLayers(&r, {});
  char line[200];
  std::snprintf(line, sizeof(line),
                "remote_reseed: %d requests of %llu B; kills from %.1f ms every %.1f ms; "
                "%llu respawns, %llu joins, %llu delta captures",
                kReseedRequests, static_cast<unsigned long long>(in.request_bytes),
                static_cast<double>(in.first_kill) / 1e6,
                static_cast<double>(in.kill_every) / 1e6,
                static_cast<unsigned long long>(s.rb_replica_respawns),
                static_cast<unsigned long long>(s.rb_replica_joins),
                static_cast<unsigned long long>(s.rb_snapshot_delta_captures));
  r.report.push_back(line);
  return r;
}

// ---------------------------------------------------------------------------------
// fleet_swarm
// ---------------------------------------------------------------------------------

namespace {

constexpr double kRefRate = 15000;  // conn/s: the reference rung.
constexpr int kRefConnections = 10000;  // p999 needs >= 10k samples.
constexpr int kRungConnections = 2000;
// Ascending offered rates; the ladder stops at the first rung over the limit.
constexpr double kLadder[] = {18000, 20000, 22000, 24000, 26000, 28000,
                              31000, 35000, 40000, 50000};
constexpr double kP99LimitMs = 5.0;    // The ladder's latency limit.
constexpr double kFailShareLimit = 0.005;
constexpr uint64_t kSwarmRequestBytes = 512;
// An arrival counts as stalled when its connection starts this much after its
// due time: several times the ~2.4 us every timer wake-up of the spawner costs.
constexpr DurationNs kStallNs = 10 * kMicrosecond;

enum class ConnStatus : uint8_t { kPending, kOk, kRefused, kError, kShort };

struct GenConn {
  TimeNs due = 0;
  TimeNs spawned = -1;
  TimeNs closed = -1;
  ConnStatus status = ConnStatus::kPending;
};

// The benchmark's own open-loop generator. The arrival schedule is drawn from
// the seed before the run; every connection is timed from its due time, so a
// late spawn (the client starved of a core, or the spawner still busy with the
// previous arrival) adds its lateness to that connection's latency instead of
// hiding it.
struct Generator {
  std::vector<GenConn> conns;
  SockAddr target;
  int remaining = 0;
};

std::vector<TimeNs> PoissonOffsets(uint64_t seed, double rate, int n) {
  Rng rng(seed);
  std::vector<TimeNs> out;
  double t = 0;
  for (int i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
    out.push_back(static_cast<TimeNs>(t));
  }
  return out;
}

ProgramFn GenConnection(Generator* gen, size_t i, int join_wr) {
  return [gen, i, join_wr](Guest& g) -> GuestTask<void> {
    Kernel* kernel = g.kernel();
    GenConn& c = gen->conns[i];
    int64_t s = co_await g.Socket(kAfInet, kSockStream);
    REMON_CHECK(s >= 0);
    int fd = static_cast<int>(s);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = gen->target.port;
    addr.sin_addr = gen->target.machine;
    g.Poke(sa, &addr, sizeof(addr));
    if (co_await g.Connect(fd, sa, sizeof(addr)) != 0) {
      c.status = ConnStatus::kRefused;
    } else {
      GuestAddr req = g.Alloc(kRequestBytes);
      GuestAddr buf = g.Alloc(kSwarmRequestBytes);
      char line[kRequestBytes + 1];
      std::snprintf(line, sizeof(line), "R%08llu\n",
                    static_cast<unsigned long long>(kSwarmRequestBytes));
      g.Poke(req, line, kRequestBytes);
      if (co_await g.Write(fd, req, kRequestBytes) != static_cast<int64_t>(kRequestBytes)) {
        c.status = ConnStatus::kError;
      } else {
        uint64_t got = 0;
        while (got < kSwarmRequestBytes) {
          int64_t n = co_await g.Read(fd, buf, kSwarmRequestBytes - got);
          if (n <= 0) {
            break;
          }
          got += static_cast<uint64_t>(n);
        }
        c.status = got == kSwarmRequestBytes ? ConnStatus::kOk
                   : got == 0                ? ConnStatus::kError
                                             : ConnStatus::kShort;
      }
    }
    co_await g.Close(fd);
    c.closed = kernel->now();
    GuestAddr done = g.Alloc(1);
    g.Poke(done, "D", 1);
    co_await g.Write(join_wr, done, 1);
  };
}

GuestTask<void> GenSpawner(Guest& g, Generator* gen, std::vector<TimeNs> offsets) {
  Kernel* kernel = g.kernel();
  GuestAddr pipe = g.Alloc(8);
  REMON_CHECK(0 == co_await g.Pipe(pipe));
  int join_rd = static_cast<int>(g.PeekU32(pipe));
  int join_wr = static_cast<int>(g.PeekU32(pipe + 4));
  GuestAddr sink = g.Alloc(256);
  TimeNs t0 = kernel->now();
  for (size_t i = 0; i < gen->conns.size(); ++i) {
    GenConn& c = gen->conns[i];
    c.due = t0 + offsets[i];
    TimeNs now = kernel->now();
    if (now < c.due) {
      co_await g.SleepNs(c.due - now);
    }
    c.spawned = kernel->now();
    co_await g.SpawnThread(g.RegisterThreadFn(GenConnection(gen, i, join_wr)));
  }
  int left = static_cast<int>(gen->conns.size());
  while (left > 0) {
    int64_t n = co_await g.Read(join_rd, sink, 256);
    REMON_CHECK(n > 0);
    left -= static_cast<int>(n);
  }
  co_await g.Close(join_rd);
  co_await g.Close(join_wr);
}

// One tier of the chain: the fleet's shard layout plus the server each shard runs.
struct ChainTier {
  FleetTierSpec fleet;
  ServerSpec server;
  double hit_ratio = 0;  // Requests served without consulting the next tier.
};

ChainTier Tier(const char* server, int shards, uint16_t port, double hit_ratio,
               LoadBalancer::Policy policy) {
  ChainTier t;
  t.server = ServerByName(server);
  t.fleet.name = t.server.name;
  t.fleet.port = port;
  t.fleet.initial_shards = shards;
  t.fleet.min_shards = shards;
  t.fleet.max_shards = shards;
  t.fleet.policy = policy;
  t.hit_ratio = hit_ratio;
  return t;
}

// The 2+2+1 chain of bench_scaleout's multi-tier run: the frontend always
// consults the cache, which misses to the backend 1 time in 4. Internal tiers see
// a handful of persistent upstream connections, so they rotate round-robin.
std::vector<ChainTier> ChainTiers() {
  return {Tier("nginx", 2, 9000, 0.0, LoadBalancer::Policy::kConsistentHash),
          Tier("memcached", 2, 9001, 0.75, LoadBalancer::Policy::kRoundRobin),
          Tier("redis", 1, 9002, 0.0, LoadBalancer::Policy::kRoundRobin)};
}

struct RungResult {
  double rate = 0;
  int attempted = 0;
  int completed = 0;
  int failed = 0;
  double span_s = 0;  // First due time to last close.
  std::vector<double> lat_ns;  // Due to close; +inf for failures.
  double p50_ms = 0;
  double p99_ms = 0;
  double tail_p99_ms = 0;  // Over the last quarter of arrivals: backlog growth.
  double late_p99_ms = 0;
  double stalled_share = 0;
  bool shorted = false;
  bool diverged = false;
  bool passes = false;
  double host_s = 0;
  uint64_t route_digest = 0;
  std::vector<uint64_t> routed_front;  // Tier-0 routed_to per shard.
};

RungResult RunFleetWorld(const RepContext& ctx, RepResult* r, MveeMode mode, double rate,
                         int connections, uint64_t schedule_seed, bool primary) {
  std::string name = std::string(mode == MveeMode::kNative ? "native" : "remon2") +
                     "@" + std::to_string(static_cast<int>(rate));
  SetupTimer setup(ctx, r, name);
  World w(ctx.seed);
  std::vector<ChainTier> chain = ChainTiers();
  RemonOptions opts;
  opts.mode = mode;
  opts.replicas = 2;
  opts.mem_intensity = chain[0].server.mem_intensity;
  std::vector<FleetTierSpec> tiers;
  for (const ChainTier& t : chain) {
    tiers.push_back(t.fleet);
  }
  ShardBodyFn body = [chain](const ShardContext& sc) -> ProgramFn {
    const ChainTier& t = chain[static_cast<size_t>(sc.tier)];
    ServerSpec s = t.server;
    s.name = sc.name;
    s.port = sc.listen_port;
    if (sc.upstream_vip.port != 0) {
      s.upstream_machine = sc.upstream_vip.machine;
      s.upstream_port = sc.upstream_vip.port;
      s.upstream_hit_ratio = t.hit_ratio;
    }
    return ServerProgram(s);
  };
  FleetManager fleet(&w.kernel, opts, std::move(tiers), std::move(body));
  setup.WorldBuilt();
  fleet.Start();

  Generator gen;
  gen.conns.resize(static_cast<size_t>(connections));
  gen.target = fleet.vip(0);
  uint32_t machine = w.net.AddMachine("swarm-client");
  LayoutPlanner planner(&w.sim.rng());
  Process* client = w.kernel.CreateProcess("swarm", machine, planner.PlanFor(8));
  client->fds().RaiseMaxFds(1 << 16);  // Pure open loop: no in-flight cap.
  std::vector<TimeNs> offsets = PoissonOffsets(schedule_seed, rate, connections);
  w.kernel.SpawnThread(client, [&gen, offsets, &fleet](Guest& g) -> GuestTask<void> {
    co_await g.SleepNs(Millis(2));  // Head start: the fleet reaches accept().
    co_await GenSpawner(g, &gen, offsets);
    fleet.StopAutoscale();
  });
  setup.Launched();

  double host0 = r->run.scaled_host_s;
  TimedRun(&w, ctx.tracer, ctx.parent_span, "run." + name, Millis(2), &r->run);

  RungResult out;
  out.rate = rate;
  out.host_s = r->run.scaled_host_s - host0;
  out.attempted = connections;
  std::vector<double> late;
  std::vector<double> tail;
  TimeNs first_due = gen.conns.empty() ? 0 : gen.conns.front().due;
  TimeNs last_close = first_due;
  int stalled = 0;
  for (size_t i = 0; i < gen.conns.size(); ++i) {
    const GenConn& c = gen.conns[i];
    double lat = kInf;
    if (c.status == ConnStatus::kOk) {
      ++out.completed;
      lat = static_cast<double>(c.closed - c.due);
    } else {
      ++out.failed;
      out.shorted |= c.status == ConnStatus::kShort;
    }
    last_close = std::max(last_close, c.closed);
    out.lat_ns.push_back(lat);
    if (i >= gen.conns.size() * 3 / 4) {
      tail.push_back(lat);
    }
    TimeNs lateness = c.spawned >= 0 ? c.spawned - c.due : 0;
    late.push_back(static_cast<double>(lateness));
    stalled += lateness > kStallNs ? 1 : 0;
  }
  out.span_s = static_cast<double>(last_close - first_due) / 1e9;
  out.p50_ms = Ms(Percentile(out.lat_ns, 50));
  out.p99_ms = Ms(Percentile(out.lat_ns, 99));
  out.tail_p99_ms = Ms(Percentile(tail, 99));
  out.late_p99_ms = Ms(Percentile(late, 99));
  out.stalled_share = static_cast<double>(stalled) / connections;
  out.diverged = fleet.divergence_detected();
  double fail_share = static_cast<double>(out.failed) / connections;
  out.passes = out.p99_ms <= kP99LimitMs && fail_share <= kFailShareLimit &&
               out.tail_p99_ms <= kP99LimitMs;
  out.route_digest = 14695981039346656037ull;
  for (int t = 0; t < fleet.tier_count(); ++t) {
    uint64_t d = fleet.balancer(t)->route_digest();
    out.route_digest = Fnv1a(out.route_digest, &d, sizeof(d));
  }
  for (int s = 0; s < fleet.shard_count(0); ++s) {
    out.routed_front.push_back(fleet.balancer(0)->routed_to(static_cast<uint64_t>(s)));
  }
  if (primary) {
    AddStatsLayers(w.sim.stats(), w.sim.cpus(), w.sim.now(), r);
    FillProbeInputs(w.sim.stats(), opts.rb_size, chain[0].server.workers + 1, &r->probe);
    r->probe.rb_max_ranks = opts.max_ranks;
    r->probe.lb_backends = fleet.shard_count(0);
  }
  return out;
}

}  // namespace

RepResult RunFleetSwarm(const RepContext& ctx) {
  RepResult r;
  uint64_t sched = ctx.seed * 0x9e3779b97f4a7c15ull + 0xf1ee7;
  RungResult native = RunFleetWorld(ctx, &r, MveeMode::kNative, kRefRate,
                                    kRefConnections, sched, false);
  RungResult ref = RunFleetWorld(ctx, &r, MveeMode::kRemon, kRefRate, kRefConnections,
                                 sched, true);
  std::vector<RungResult> ladder;
  for (double rate : ctx.per_layer ? kLadder : std::span<const double>()) {
    ladder.push_back(RunFleetWorld(ctx, &r, MveeMode::kRemon, rate, kRungConnections,
                                   sched + static_cast<uint64_t>(rate), false));
    if (!ladder.back().passes) {
      break;  // The first rung over the limit closes the ladder.
    }
  }

  for (const RungResult* rr : {&native, &ref}) {
    r.attempted += static_cast<uint64_t>(rr->attempted);
    r.failed += static_cast<uint64_t>(rr->failed);
  }
  bool shorted = native.shorted || ref.shorted;
  bool diverged = ref.diverged;
  r.route_digest = Fnv1a(native.route_digest, &ref.route_digest, sizeof(uint64_t));
  for (const RungResult& rr : ladder) {
    shorted |= rr.shorted;
    diverged |= rr.diverged;
    r.route_digest = Fnv1a(r.route_digest, &rr.route_digest, sizeof(uint64_t));
  }
  if (diverged) {
    r.violations.push_back("divergence detected");
  }
  if (shorted) {
    r.violations.push_back("a reply was shorter than requested");
  }
  double max_rate = 0;
  size_t first_fail = ladder.size();
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (!ladder[i].passes) {
      first_fail = i;
      break;
    }
    max_rate = ladder[i].rate;
  }
  if (ctx.per_layer && (first_fail == 0 || first_fail == ladder.size())) {
    r.violations.push_back("saturation is not inside the rate ladder");
  }

  AddVirt(&r, "normalized_time", native.span_s > 0 ? ref.span_s / native.span_s : 0,
          "x");
  AddVirt(&r, "throughput_per_s", ref.span_s > 0 ? ref.completed / ref.span_s : 0,
          "1/s", static_cast<uint64_t>(ref.completed));
  AddLatencies(&r, ref.lat_ns);
  double imbalance = 0;
  if (!ref.routed_front.empty()) {
    double sum = 0;
    double mx = 0;
    for (uint64_t v : ref.routed_front) {
      sum += static_cast<double>(v);
      mx = std::max(mx, static_cast<double>(v));
    }
    imbalance = sum > 0 ? mx / (sum / static_cast<double>(ref.routed_front.size())) : 0;
  }
  AddLoadLayers(&r, {imbalance, ref.routed_front.size(), ref.stalled_share,
                     static_cast<uint64_t>(ref.attempted), max_rate, ladder.size()});

  char line[256];
  std::snprintf(line, sizeof(line),
                "fleet_swarm: reference %.0f conn/s x %d connections (native twin "
                "beside it); ladder %d conns/rung, limit p99 <= %.1f ms, fail <= %.1f%%",
                kRefRate, kRefConnections, kRungConnections, kP99LimitMs,
                kFailShareLimit * 100);
  r.report.push_back(line);
  // Printed, not in the JSON: the spawner's timer wake-up cost fixes it, so it
  // reads the same on every seed until the client starves for a core.
  std::snprintf(line, sizeof(line),
                "metric %-32s %18.6f %-8s n=%-9d [virtual, report only]",
                "gen.late_p99_ms", ref.late_p99_ms, "ms", ref.attempted);
  r.report.push_back(line);
  r.report.push_back(
      "  rung conn/s  done/tried  fail%   p50 ms   p99 ms  tail p99  late p99 ms  "
      "stalled%  host s  verdict");
  auto row = [&r](const char* tag, const RungResult& rr) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-4s %6.0f  %5d/%-5d %5.2f %8.3f %8.3f %9.3f %12.4f %8.2f %7.3f  %s",
                  tag, rr.rate, rr.completed, rr.attempted,
                  100.0 * rr.failed / rr.attempted, rr.p50_ms, rr.p99_ms, rr.tail_p99_ms,
                  rr.late_p99_ms, 100.0 * rr.stalled_share, rr.host_s,
                  rr.passes ? "meets limit" : "misses limit");
    r.report.push_back(buf);
  };
  row("nat", native);
  row("ref", ref);
  for (const RungResult& rr : ladder) {
    row("", rr);
  }
  return r;
}

}  // namespace perfbench
