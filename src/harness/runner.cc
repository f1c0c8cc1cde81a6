#include "src/harness/runner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/mem/shm.h"
#include "src/sim/check.h"
#include "src/vfs/fs.h"

namespace remon {

namespace {

// One hermetic simulated world.
struct World {
  explicit World(const RunConfig& config)
      : sim(config.seed, config.costs), net(&sim), kernel(&sim, &fs, &net, &shm) {
    server_machine = net.AddMachine("server");
    client_machine = net.AddMachine("client");
  }
  Simulator sim;
  Filesystem fs;
  Network net;
  ShmRegistry shm;
  Kernel kernel;
  uint32_t server_machine;
  uint32_t client_machine;
};

// Slices the MVEE options out of `config` and fills in what only the harness
// knows: the world's leader machine and the workload's memory pressure. Machine
// ids do not exist before the world does, so a caller-set one is a bug, not a
// setting to overwrite silently.
RemonOptions OptionsFor(const World& w, const RunConfig& config, double mem_intensity,
                        bool multithreaded) {
  REMON_CHECK_MSG(config.machine == 0 && config.replica_machines.empty() &&
                      config.respawn_target_machine == -1,
                  "set RunConfig::placement/respawn_target, not machine ids");
  RemonOptions opts = config;
  opts.machine = w.server_machine;
  opts.mem_intensity = mem_intensity;
  // Suite workloads are race-free by construction; multi-threaded servers opt in
  // (their pool workers then serialize racy accept-side bookkeeping through the
  // agent). Single-threaded programs never consult the agent.
  opts.use_sync_agent = config.use_sync_agent && multithreaded;
  return opts;
}

// Fault injection: schedules the remote-replica kill configured in `config` (the
// highest-index replica with a remote sync agent loses its link at the given
// virtual time). With respawn_dead_replicas set, the run then exercises the
// checkpoint/re-seed recovery path end to end.
void ScheduleRemoteKill(World* w, Remon* mvee, int replicas, DurationNs every,
                        TimeNs at) {
  w->sim.queue().ScheduleAt(at, [w, mvee, replicas, every] {
    if (mvee->finished()) {
      return;  // Workload done: let the kill loop drain instead of re-arming.
    }
    for (int i = replicas - 1; i >= 1; --i) {
      RemoteSyncAgent* agent = mvee->remote_agent(i);
      if (agent != nullptr) {
        agent->Shutdown();
        break;
      }
    }
    if (every > 0) {
      ScheduleRemoteKill(w, mvee, replicas, every, w->sim.queue().now() + every);
    }
  });
}

void ArmRemoteKill(World* w, const RunConfig& config, Remon* mvee) {
  if (config.kill_remote_replica_at <= 0) {
    return;
  }
  ScheduleRemoteKill(w, mvee, config.replicas, config.kill_remote_replica_every,
                     config.kill_remote_replica_at);
}

// Materializes the RunConfig placement spec: adds one machine per distinct
// replica-host index, links each to the leader with the configured RB link
// parameters, and fills RemonOptions::replica_machines and
// respawn_target_machine. Native runs (and empty placements) stay all-local.
void ApplyPlacement(World* w, const RunConfig& config, RemonOptions* opts) {
  if (config.placement.empty() || config.mode != MveeMode::kRemon) {
    return;
  }
  std::map<int, uint32_t> hosts;
  auto host_machine = [w, &config, opts, &hosts](int host) {
    auto [it, inserted] = hosts.try_emplace(host, 0);
    if (inserted) {
      it->second = w->net.AddMachine("replica-host-" + std::to_string(host));
      w->net.SetLink(opts->machine, it->second,
                     LinkParams{config.rb_link_latency, config.rb_link_bytes_per_ns});
    }
    return it->second;
  };
  opts->replica_machines.assign(static_cast<size_t>(config.replicas),
                                opts->machine);
  for (size_t k = 0; k < config.placement.size(); ++k) {
    if (static_cast<int>(k) + 1 >= config.replicas) {
      break;  // Placement entries beyond the replica set are ignored.
    }
    int host = config.placement[k];
    if (host <= 0) {
      continue;  // 0 = leader-local.
    }
    opts->replica_machines[k + 1] = host_machine(host);
  }
  // Respawn-as-migration target: the named replica-host machine exists (and is
  // linked) up front, whether or not a placement entry already lives there.
  if (config.respawn_target > 0) {
    opts->respawn_target_machine =
        static_cast<int>(host_machine(config.respawn_target));
  }
}

}  // namespace

SuiteResult RunSuiteWorkload(const WorkloadSpec& spec, const RunConfig& config) {
  World w(config);
  RemonOptions opts = OptionsFor(w, config, spec.mem_intensity, spec.threads > 1);
  ApplyPlacement(&w, config, &opts);
  Remon mvee(&w.kernel, opts);
  mvee.Launch(SuiteProgram(spec), spec.name);
  ArmRemoteKill(&w, config, &mvee);
  w.sim.Run();
  SuiteResult result;
  result.name = spec.name;
  result.seconds = static_cast<double>(w.sim.now()) / 1e9;
  result.diverged = mvee.divergence_detected();
  result.finished = mvee.finished();
  result.stats = w.sim.stats();
  return result;
}

double NormalizedSuiteTime(const WorkloadSpec& spec, const RunConfig& config) {
  RunConfig native = config;
  native.mode = MveeMode::kNative;
  SuiteResult base = RunSuiteWorkload(spec, native);
  SuiteResult run = RunSuiteWorkload(spec, config);
  REMON_CHECK_MSG(base.finished && !base.diverged, "native suite run failed");
  if (!run.finished || run.diverged || base.seconds <= 0) {
    return -1.0;  // Signals a failed configuration in reports.
  }
  return run.seconds / base.seconds;
}

ServerResult RunServerBench(const ServerSpec& server, const ClientSpec& client_spec,
                            const RunConfig& config, LinkParams link) {
  World w(config);
  w.net.SetLink(w.server_machine, w.client_machine, link);

  RemonOptions opts = OptionsFor(w, config, server.mem_intensity, server.workers > 1);
  ApplyPlacement(&w, config, &opts);
  Remon mvee(&w.kernel, opts);
  mvee.Launch(ServerProgram(server), server.name);
  ArmRemoteKill(&w, config, &mvee);

  // The client rides on a separate, unmonitored machine.
  ClientSpec cs = client_spec;
  cs.server_machine = w.server_machine;
  cs.port = server.port;
  cs.request_bytes = cs.request_bytes != 0 ? cs.request_bytes : server.default_response;
  ClientStats stats;
  LayoutPlanner planner(&w.sim.rng());
  Process* client_proc =
      w.kernel.CreateProcess("client", w.client_machine, planner.PlanFor(8));
  // Give the servers a small head start to reach their accept loops.
  w.kernel.SpawnThread(client_proc, [&cs, &stats](Guest& g) -> GuestTask<void> {
    co_await g.SleepNs(Millis(2));
    ProgramFn body = ClientProgram(cs, &stats);
    co_await body(g);
  });

  w.sim.Run();

  ServerResult result;
  result.name = server.name;
  result.seconds = stats.Seconds();
  result.requests = stats.completed;
  result.bytes_received = stats.bytes_received;
  result.throughput = stats.Throughput();
  result.mean_latency_us = static_cast<double>(stats.MeanLatency()) / 1e3;
  result.diverged = mvee.divergence_detected();
  result.stats = w.sim.stats();
  return result;
}

double NormalizedServerTime(const ServerSpec& server, const ClientSpec& client,
                            const RunConfig& config, LinkParams link) {
  RunConfig native = config;
  native.mode = MveeMode::kNative;
  ServerResult base = RunServerBench(server, client, native, link);
  ServerResult run = RunServerBench(server, client, config, link);
  if (base.seconds <= 0 || run.seconds <= 0 || run.diverged) {
    return -1.0;
  }
  return run.seconds / base.seconds;
}

ScaleoutResult RunScaleout(const ScaleoutSpec& spec, const RunConfig& config) {
  REMON_CHECK_MSG(!spec.tiers.empty(), "scale-out needs at least one tier");
  World w(config);

  double mem = spec.tiers[0].server.mem_intensity;
  bool multithreaded = false;
  for (const ScaleoutTierSpec& t : spec.tiers) {
    multithreaded |= t.server.workers > 1;
  }
  // Per-shard machines are the fleet's job; the cross-machine placement spec
  // applies to single-set runs only.
  RemonOptions opts = OptionsFor(w, config, mem, multithreaded);
  std::vector<FleetTierSpec> tiers(spec.tiers.begin(), spec.tiers.end());
  // Shard body factory: stamp the tier's server template with per-shard name
  // (unique access-log paths on the shared filesystem) and the upstream VIP.
  auto tier_specs = spec.tiers;
  ShardBodyFn body = [tier_specs](const ShardContext& ctx) -> ProgramFn {
    const ScaleoutTierSpec& t = tier_specs[static_cast<size_t>(ctx.tier)];
    ServerSpec s = t.server;
    s.name = ctx.name;
    s.port = ctx.listen_port;
    if (ctx.upstream_vip.port != 0) {
      s.upstream_machine = ctx.upstream_vip.machine;
      s.upstream_port = ctx.upstream_vip.port;
      s.upstream_bytes = t.upstream_bytes;
      s.upstream_hit_ratio = t.hit_ratio;
    }
    return ServerProgram(s);
  };

  FleetManager fleet(&w.kernel, opts, std::move(tiers), std::move(body),
                     spec.autoscale);
  fleet.Start();

  // Mid-run drain-and-migrate: every shard launched by then moves its remote
  // replicas to fresh machines one at a time, under whatever load the swarm is
  // offering at that moment.
  if (spec.rebalance_at > 0) {
    w.sim.queue().ScheduleAt(spec.rebalance_at, [&fleet, &spec] {
      for (int t = 0; t < fleet.tier_count(); ++t) {
        for (int s = 0; s < fleet.shard_count(t); ++s) {
          fleet.RebalanceShard(t, s, spec.rebalance_stagger);
        }
      }
    });
  }

  // The swarm: split across client processes on dedicated machines, each with
  // its own deterministic arrival stream, all aimed at the front tier's VIP.
  int procs = std::max(1, spec.client_processes);
  std::vector<SwarmSpec> swarm_specs(static_cast<size_t>(procs), spec.swarm);
  std::vector<SwarmStats> swarm_stats(static_cast<size_t>(procs));
  auto swarms_left = std::make_shared<int>(procs);
  int per_proc = spec.swarm.connections / procs;
  LayoutPlanner planner(&w.sim.rng());
  for (int i = 0; i < procs; ++i) {
    SwarmSpec& ss = swarm_specs[static_cast<size_t>(i)];
    ss.server_machine = fleet.vip(0).machine;
    ss.port = fleet.vip(0).port;
    ss.connections = per_proc + (i == 0 ? spec.swarm.connections % procs : 0);
    ss.seed = spec.swarm.seed + static_cast<uint64_t>(i) * 7919;
    // The spec's rates are the fleet-wide offered load; each process runs an
    // independent Poisson stream at its share (superposing them recovers the
    // full rate).
    ss.arrival_rate = spec.swarm.arrival_rate / procs;
    for (SwarmPhase& phase : ss.phases) {
      phase.rate /= procs;
    }
    uint32_t machine = w.net.AddMachine("swarm-c" + std::to_string(i));
    Process* proc = w.kernel.CreateProcess("swarm-" + std::to_string(i), machine,
                                           planner.PlanFor(8));
    SwarmStats* st = &swarm_stats[static_cast<size_t>(i)];
    // Once the last swarm drains, stop the autoscale timer so the queue drains
    // too (servers alone never wake again).
    auto on_done = [swarms_left, &fleet] {
      if (--*swarms_left == 0) {
        fleet.StopAutoscale();
      }
    };
    w.kernel.SpawnThread(proc,
                         [&ss, st, on_done](Guest& g) -> GuestTask<void> {
                           // Head start for the fleet to reach its accept loops.
                           co_await g.SleepNs(Millis(2));
                           ProgramFn body = SwarmProgram(ss, st, on_done);
                           co_await body(g);
                         });
  }

  w.sim.Run();

  SwarmStats total;
  for (const SwarmStats& st : swarm_stats) {
    total.Merge(st);
  }
  ScaleoutResult result;
  result.seconds = total.Seconds();
  result.arrived = total.arrived;
  result.completed = total.completed;
  result.requests = total.requests;
  result.errors = total.errors;
  result.stalled = total.stalled;
  result.bytes_received = total.bytes_received;
  result.throughput = total.Throughput();
  result.p50_ms = static_cast<double>(total.Percentile(50)) / 1e6;
  result.p99_ms = static_cast<double>(total.Percentile(99)) / 1e6;
  result.diverged = fleet.divergence_detected();
  result.finished =
      total.arrived > 0 && total.completed + total.errors == total.arrived;
  result.shards_spawned = fleet.shards_spawned();
  result.shards_retired = fleet.shards_retired();
  result.total_launched = fleet.total_launched();
  for (int t = 0; t < fleet.tier_count(); ++t) {
    result.final_in_rotation.push_back(fleet.in_rotation(t));
    result.shard_counts.push_back(fleet.shard_count(t));
    result.route_digests.push_back(fleet.balancer(t)->route_digest());
    std::vector<uint64_t> per_shard;
    for (int s = 0; s < fleet.shard_count(t); ++s) {
      per_shard.push_back(fleet.balancer(t)->routed_to(static_cast<uint64_t>(s)));
    }
    result.routed.push_back(std::move(per_shard));
  }
  if (spec.collect_transcripts) {
    for (int t = 0; t < fleet.tier_count(); ++t) {
      const ScaleoutTierSpec& ts = spec.tiers[static_cast<size_t>(t)];
      for (int s = 0; s < fleet.shard_count(t); ++s) {
        std::string shard_name = ts.name + "-s" + std::to_string(s);
        for (int rank = 0; rank <= ts.server.workers; ++rank) {
          std::string path =
              "/var/" + shard_name + "-access-" + std::to_string(rank) + ".log";
          if (auto content = w.fs.ReadWholeFile(path)) {
            result.transcripts[path] = *content;
          }
        }
      }
    }
  }
  result.stats = w.sim.stats();
  return result;
}

}  // namespace remon
