// Benchmark runner: builds a fresh simulated world per measurement, runs a workload
// under a given MVEE configuration, and reports durations/statistics.
//
// Every run is hermetic (own Simulator/filesystem/network/kernel seeded identically),
// so normalized overheads compare like with like — the virtual-time analog of the
// paper pinning frequencies and disabling hyper-threading "to maximize
// reproducibility of our measurements".

#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <map>
#include <string>

#include "src/core/fleet.h"
#include "src/core/remon.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/workloads/clients.h"
#include "src/workloads/servers.h"
#include "src/workloads/suites.h"

namespace remon {

// One run: the MVEE configuration (every RemonOptions knob, set by name on the
// RunConfig) plus the inputs only the harness consumes. The harness derives
// three options itself: the machine ids (machine, replica_machines and
// respawn_target_machine, from the world and the placement below; leave them at
// their defaults), mem_intensity from the workload, and use_sync_agent, which
// only multi-threaded workloads honor.
struct RunConfig : RemonOptions {
  uint64_t seed = 1;
  CostModel costs = CostModel::Default();
  // Cross-machine replica placement: placement[k] names the replica host of
  // replica k+1 (replica 0, the leader, is always local). 0 = leader machine;
  // m > 0 = the m-th dedicated replica-host machine, created on demand and linked
  // to the leader with the rb_link_* parameters below. Empty = all local (SHM).
  std::vector<int> placement;
  // Leader <-> replica-host link (the RB transport rides on it).
  DurationNs rb_link_latency = 60 * kMicrosecond;
  double rb_link_bytes_per_ns = 0.125;  // 1 Gbit/s.
  // Respawn-as-migration: 0 respawns replacements in place; m > 0 places them on
  // the m-th dedicated replica-host machine (created and linked on demand, same
  // namespace as `placement` entries). --respawn-target=M.
  int respawn_target = 0;
  // Fault injection: at this virtual time, tear down the highest-index remote
  // replica's sync agent (the remote-machine-death experiment). 0 disables.
  TimeNs kill_remote_replica_at = 0;
  // With respawn enabled, repeat the kill at this interval after the first one
  // (each respawned replacement dies in turn) until the workload finishes — the
  // re-seed benches average snapshot bytes over several recovery episodes
  // instead of sampling one backlog instant. 0 kills once. Note the last armed
  // kill can fire up to one interval past workload completion, so wall-clock
  // comparisons should come from runs without a kill loop.
  DurationNs kill_remote_replica_every = 0;
};

struct SuiteResult {
  std::string name;
  double seconds = 0;  // Virtual wall-clock of the run.
  bool diverged = false;
  bool finished = false;
  SimStats stats;
};

// Runs one suite workload to completion under `config`.
SuiteResult RunSuiteWorkload(const WorkloadSpec& spec, const RunConfig& config);

// Normalized execution time: duration under `config` / duration native (same seed).
double NormalizedSuiteTime(const WorkloadSpec& spec, const RunConfig& config);

struct ServerResult {
  std::string name;
  double seconds = 0;       // Client-observed run time.
  int requests = 0;
  uint64_t bytes_received = 0;  // Client-observed response transcript size.
  double throughput = 0;    // Requests per virtual second.
  double mean_latency_us = 0;
  bool diverged = false;
  SimStats stats;
};

// Runs a server under `config` with a closed-loop client over a link with the given
// parameters (the netem analog).
ServerResult RunServerBench(const ServerSpec& server, const ClientSpec& client,
                            const RunConfig& config, LinkParams link);

// Normalized runtime of the server benchmark (client completion time vs native).
double NormalizedServerTime(const ServerSpec& server, const ClientSpec& client,
                            const RunConfig& config, LinkParams link);

// --- Scale-out fleets ----------------------------------------------------------------

// One tier of the fleet: the fleet tier (name, VIP port, scaling bounds, LB
// policy, shard layout) plus the server template stamped out per shard (the
// fleet overrides name/port/upstream per shard).
struct ScaleoutTierSpec : FleetTierSpec {
  ServerSpec server;       // Template; name, port, upstream_* are overridden.
  // Fraction of requests served without consulting the next tier (ignored for
  // the last tier, which has no upstream).
  double hit_ratio = 0.0;
  uint64_t upstream_bytes = 512;  // Sub-request size sent to the next tier.
};

struct ScaleoutSpec {
  std::vector<ScaleoutTierSpec> tiers;  // Front first; requests chain rightward.
  // The open-loop swarm aimed at tier 0's VIP (server_machine/port are filled by
  // the runner; connections/seed are split across client processes).
  SwarmSpec swarm;
  int client_processes = 4;  // Swarm split across this many client machines.
  AutoscaleConfig autoscale;
  // When set, per-shard access-log transcripts are read back into
  // ScaleoutResult::transcripts after the run (determinism tests).
  bool collect_transcripts = false;
  // Mid-run rebalance: at this virtual time, drain-and-migrate every remote
  // replica of every shard launched so far onto fresh machines, one replica at a
  // time per shard (FleetManager::RebalanceShard). 0 disables; only
  // remote_replicas tiers have anything to move.
  TimeNs rebalance_at = 0;
  DurationNs rebalance_stagger = 500 * kMicrosecond;
};

struct ScaleoutResult {
  double seconds = 0;       // Swarm-observed run time.
  int arrived = 0;
  int completed = 0;        // Connections that finished cleanly.
  int requests = 0;
  int errors = 0;
  int stalled = 0;
  uint64_t bytes_received = 0;
  double throughput = 0;    // Completed connections per virtual second.
  double p50_ms = 0;        // Connection-latency percentiles (arrival to close).
  double p99_ms = 0;
  bool diverged = false;
  bool finished = false;
  uint64_t shards_spawned = 0;  // By autoscale (beyond the initial topology).
  uint64_t shards_retired = 0;
  uint64_t total_launched = 0;
  std::vector<int> final_in_rotation;       // Per tier.
  std::vector<int> shard_counts;            // Per tier, ever launched.
  std::vector<uint64_t> route_digests;      // Per tier (LoadBalancer::route_digest).
  std::vector<std::vector<uint64_t>> routed;  // Per tier, per shard (0 if retired).
  std::map<std::string, std::string> transcripts;  // Path -> bytes (opt-in).
  SimStats stats;
};

// Runs an open-loop swarm against a multi-tier fleet under `config`.
ScaleoutResult RunScaleout(const ScaleoutSpec& spec, const RunConfig& config);

}  // namespace remon

#endif  // SRC_HARNESS_RUNNER_H_
