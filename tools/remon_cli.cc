// remon_cli: command-line driver for the library.
//
//   remon_cli [--mode=native|ghumvee|remon|varan] [--replicas=N]
//             [--level=base|nonsocket_ro|nonsocket_rw|socket_ro|socket_rw]
//             [--workload=NAME | --server=NAME] [--seed=N] [--latency-us=N]
//             [--connections=N] [--requests=N] [--temporal-p=F] [--rb-mb=N]
//             [--rb-batch=N|adaptive|adaptive:MAX] [--rb-migration]
//             [--placement=local|machine:N,...] [--rb-link-latency-us=N]
//             [--rb-link-gbps=F] [--respawn-on-death] [--reseed=delta|full]
//             [--respawn-target=M] [--kill-replica-at-ms=N]
//             [--sync-agent] [--sync-log-kb=N] [--rb-auth] [--list]
//   scale-out (fleet of replica sets behind a load balancer):
//             [--shards=N] [--tiers=SERVER:SHARDS,...] [--autoscale]
//             [--clients=N] [--arrival-rate=F] [--fd-map-pages=N]
//
// Runs one workload (a suite benchmark by name, a server benchmark driven by a
// closed-loop client, or — with --shards/--tiers — a multi-tier fleet under an
// open-loop swarm) under the chosen MVEE configuration and prints a run report.
// docs/CLI.md is the full flag reference with copy-pasteable examples.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/harness/runner.h"
#include "src/harness/table.h"

namespace remon {
namespace {

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr int kFleetFileMapPages = 4;  // --fd-map-pages default for fleet runs.

struct CliArgs {
  RunConfig config;  // Every MVEE/harness knob; flags parse straight into it.
  std::string workload;
  std::string server;
  int latency_us = 60;  // Client <-> server link (the netem knob).
  int connections = 16;
  int requests = 400;
  bool list = false;
  // Scale-out: a fleet run replaces the single-set server benchmark.
  int shards = 0;                    // >0: single-tier fleet of this many shards.
  std::vector<std::pair<std::string, int>> tiers;  // (server template, shards).
  bool autoscale = false;
  int clients = 10000;               // Open-loop swarm arrivals.
  double arrival_rate = 50000.0;     // Poisson rate, connections/second.
  bool ok = true;

  bool fleet() const { return shards > 0 || !tiers.empty(); }
};

bool StartsWith(const char* arg, const char* prefix, const char** value) {
  size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) == 0) {
    *value = arg + n;
    return true;
  }
  return false;
}

// Parses a whole-token number in [lo, hi]. "4x", "", "abc", a sign on an
// unsigned value and out-of-range values are usage errors: never truncated,
// wrapped or guessed at.
template <typename T>
bool ParseNumber(std::string_view s, T lo, T hi, T* out) {
  T n{};
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  if (ec != std::errc() || end != s.data() + s.size() || !(n >= lo && n <= hi)) {
    return false;
  }
  *out = n;
  return true;
}

// Splits "A,B,..." into its items; an empty list or item ("1,,2", a trailing
// comma) is a usage error.
bool SplitList(std::string_view s, std::vector<std::string_view>* items) {
  while (true) {
    size_t comma = s.find(',');
    items->push_back(s.substr(0, comma));
    if (items->back().empty()) {
      return false;
    }
    if (comma == std::string_view::npos) {
      return true;
    }
    s.remove_prefix(comma + 1);
  }
}

CliArgs Parse(int argc, char** argv) {
  CliArgs args;
  RunConfig& c = args.config;
  bool fd_map_pages_set = false;
  for (int i = 1; i < argc && args.ok; ++i) {
    const char* v = nullptr;
    if (StartsWith(argv[i], "--mode=", &v)) {
      std::string m = v;
      if (m == "native") c.mode = MveeMode::kNative;
      else if (m == "ghumvee") c.mode = MveeMode::kGhumveeOnly;
      else if (m == "remon") c.mode = MveeMode::kRemon;
      else if (m == "varan") c.mode = MveeMode::kVaranLike;
      else args.ok = false;
    } else if (StartsWith(argv[i], "--replicas=", &v)) {
      args.ok = ParseNumber(v, 1, c.max_ranks, &c.replicas);
    } else if (StartsWith(argv[i], "--level=", &v)) {
      std::string l = v;
      if (l == "base") c.level = PolicyLevel::kBase;
      else if (l == "nonsocket_ro") c.level = PolicyLevel::kNonsocketRo;
      else if (l == "nonsocket_rw") c.level = PolicyLevel::kNonsocketRw;
      else if (l == "socket_ro") c.level = PolicyLevel::kSocketRo;
      else if (l == "socket_rw") c.level = PolicyLevel::kSocketRw;
      else args.ok = false;
    } else if (StartsWith(argv[i], "--workload=", &v)) {
      args.workload = v;
    } else if (StartsWith(argv[i], "--server=", &v)) {
      args.server = v;
    } else if (StartsWith(argv[i], "--seed=", &v)) {
      args.ok = ParseNumber<uint64_t>(v, 0, ~uint64_t{0}, &c.seed);
    } else if (StartsWith(argv[i], "--latency-us=", &v)) {
      args.ok = ParseNumber(v, 0, kIntMax, &args.latency_us);
    } else if (StartsWith(argv[i], "--connections=", &v)) {
      args.ok = ParseNumber(v, 1, kIntMax, &args.connections);
    } else if (StartsWith(argv[i], "--requests=", &v)) {
      args.ok = ParseNumber(v, 1, kIntMax, &args.requests);
    } else if (StartsWith(argv[i], "--temporal-p=", &v)) {
      // Temporal exemption probability; > 0 enables the §3.4 policy.
      args.ok = ParseNumber(v, 0.0, 1.0, &c.temporal.exempt_probability);
      c.temporal.enabled = c.temporal.exempt_probability > 0;
    } else if (StartsWith(argv[i], "--rb-batch=", &v)) {
      // N = fixed window; "adaptive" = waiter-pressure-driven window with the
      // default ceiling; "adaptive:MAX" picks the ceiling. "adaptive4",
      // "adaptive:1O", "4x": reject, don't guess.
      c.rb_batch_policy = RbBatchPolicy::kFixed;
      c.rb_batch_max = 0;
      if (std::strcmp(v, "adaptive") == 0) {
        c.rb_batch_policy = RbBatchPolicy::kAdaptive;
      } else if (std::strncmp(v, "adaptive:", 9) == 0) {
        c.rb_batch_policy = RbBatchPolicy::kAdaptive;
        args.ok = ParseNumber(v + 9, 1, kIntMax, &c.rb_batch_max);
      } else {
        args.ok = ParseNumber(v, 0, kIntMax, &c.rb_batch_max);
      }
    } else if (StartsWith(argv[i], "--rb-mb=", &v)) {
      uint64_t mb = 0;
      args.ok = ParseNumber<uint64_t>(v, 1, ~uint64_t{0} >> 20, &mb);
      c.rb_size = mb << 20;
    } else if (StartsWith(argv[i], "--placement=", &v)) {
      // "local" keeps every replica on the leader machine (SHM only).
      // "machine:N[,M...]" places replica 1 on replica-host N, replica 2 on M, ...
      // (0 = leader-local; replicas beyond the list stay local).
      c.placement.clear();
      std::vector<std::string_view> hosts;
      if (std::strncmp(v, "machine:", 8) == 0) {
        args.ok = SplitList(v + 8, &hosts);
        for (std::string_view host : hosts) {
          int m = 0;
          args.ok = args.ok && ParseNumber(host, 0, kIntMax, &m);
          c.placement.push_back(m);
        }
      } else {
        args.ok = std::strcmp(v, "local") == 0;
      }
    } else if (StartsWith(argv[i], "--rb-link-latency-us=", &v)) {
      int us = 0;
      args.ok = ParseNumber(v, 0, kIntMax, &us);
      c.rb_link_latency = static_cast<DurationNs>(us) * kMicrosecond;
    } else if (StartsWith(argv[i], "--rb-link-gbps=", &v)) {
      double gbps = 0;
      args.ok = ParseNumber(v, std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(), &gbps);
      c.rb_link_bytes_per_ns = gbps * 0.125;
    } else if (std::strcmp(argv[i], "--respawn-on-death") == 0) {
      // Replica re-seed: a dead remote replica is replaced via a leader checkpoint
      // over the RB transport instead of ending the run with a divergence report.
      c.respawn_dead_replicas = true;
    } else if (StartsWith(argv[i], "--reseed=", &v)) {
      // delta (default): replacement checkpoints resume from the dead replica's
      // acked horizon — O(delta), flat in RB size. full: always re-ship the whole
      // leader state (the ablation baseline).
      if (std::strcmp(v, "delta") == 0) c.reseed_mode = ReseedMode::kDelta;
      else if (std::strcmp(v, "full") == 0) c.reseed_mode = ReseedMode::kFull;
      else args.ok = false;
    } else if (StartsWith(argv[i], "--respawn-target=", &v)) {
      // Respawn-as-migration: replacements land on replica-host M (same host
      // namespace as --placement=machine:...) instead of the machine the replica
      // died on. The replacement's join attestation carries the new placement.
      args.ok = ParseNumber(v, 1, kIntMax, &c.respawn_target);
    } else if (StartsWith(argv[i], "--kill-replica-at-ms=", &v)) {
      // Fault injection: tear the highest-index remote replica's link down at this
      // virtual time (pair with --respawn-on-death to watch the recovery).
      int ms = 0;
      args.ok = ParseNumber(v, 1, kIntMax, &ms);
      c.kill_remote_replica_at = Millis(ms);
    } else if (std::strcmp(argv[i], "--sync-agent") == 0) {
      // Record/replay agent for multi-threaded workloads: pool servers serialize
      // their racy accept-side bookkeeping through it, and under a cross-machine
      // placement the master's log streams as kSyncLog frames.
      c.use_sync_agent = true;
    } else if (StartsWith(argv[i], "--sync-log-kb=", &v)) {
      uint64_t kb = 0;
      args.ok = ParseNumber<uint64_t>(v, 1, ~uint64_t{0} >> 10, &kb);
      c.sync_log_size = kb << 10;
    } else if (std::strcmp(argv[i], "--rb-auth") == 0) {
      // Authenticated RB transport (wire v4): MAC + stream encryption on every
      // cross-machine frame, attested join before a replacement is re-seeded.
      c.rb_auth = true;
    } else if (std::strcmp(argv[i], "--rb-migration") == 0) {
      c.rb_migration = true;
    } else if (StartsWith(argv[i], "--shards=", &v)) {
      args.ok = ParseNumber(v, 1, kIntMax, &args.shards);
    } else if (StartsWith(argv[i], "--tiers=", &v)) {
      // "SERVER:SHARDS[,SERVER:SHARDS...]" front tier first, e.g.
      // --tiers=nginx:2,memcached:2,redis:1. Each tier is a fleet of full
      // replica sets behind its own load-balanced virtual endpoint; tier k
      // treats tier k+1 as its upstream.
      args.tiers.clear();
      std::vector<std::string_view> tiers;
      args.ok = SplitList(v, &tiers);
      for (std::string_view tier : tiers) {
        size_t colon = tier.find(':');
        int n = 0;
        args.ok = args.ok && colon != 0 && colon != std::string_view::npos &&
                  ParseNumber(tier.substr(colon + 1), 1, kIntMax, &n);
        args.tiers.emplace_back(std::string(tier.substr(0, colon)), n);
      }
    } else if (std::strcmp(argv[i], "--autoscale") == 0) {
      args.autoscale = true;
    } else if (StartsWith(argv[i], "--clients=", &v)) {
      args.ok = ParseNumber(v, 1, kIntMax, &args.clients);
    } else if (StartsWith(argv[i], "--arrival-rate=", &v)) {
      args.ok = ParseNumber(v, std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(), &args.arrival_rate);
    } else if (StartsWith(argv[i], "--fd-map-pages=", &v)) {
      args.ok = ParseNumber(v, 1, 1024, &c.file_map_pages);
      fd_map_pages_set = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      args.list = true;
    } else {
      args.ok = false;
    }
    if (!args.ok) {
      std::fprintf(stderr, "invalid argument: %s\n", argv[i]);
    }
  }
  if (args.fleet() && !fd_map_pages_set) {
    c.file_map_pages = kFleetFileMapPages;  // Swarm-scale FD counts.
  }
  return args;
}

void ListWorkloads() {
  std::printf("suite workloads (use --workload=NAME):\n");
  for (const auto& suite : {ParsecSuite(), SplashSuite(), PhoronixSuite(), SpecCpuSuite()}) {
    for (const WorkloadSpec& spec : suite) {
      std::printf("  %-18s (%s)\n", spec.name.c_str(), spec.suite.c_str());
    }
  }
  std::printf("servers (use --server=NAME):\n");
  for (const ServerSpec& s : PaperServers()) {
    std::printf("  %-18s (workers=%d)\n", s.name.c_str(), s.workers);
  }
}

void PrintStats(const SimStats& stats) {
  std::printf("  syscalls: total=%llu monitored=%llu unmonitored=%llu\n",
              static_cast<unsigned long long>(stats.syscalls_total),
              static_cast<unsigned long long>(stats.syscalls_monitored),
              static_cast<unsigned long long>(stats.syscalls_unmonitored));
  std::printf("  ptrace stops=%llu | tokens issued=%llu revoked=%llu | rb entries=%llu "
              "resets=%llu",
              static_cast<unsigned long long>(stats.ptrace_stops),
              static_cast<unsigned long long>(stats.tokens_issued),
              static_cast<unsigned long long>(stats.tokens_revoked),
              static_cast<unsigned long long>(stats.rb_entries),
              static_cast<unsigned long long>(stats.rb_resets));
  if (stats.rb_migrations > 0) {
    std::printf(" migrations=%llu", static_cast<unsigned long long>(stats.rb_migrations));
  }
  std::printf("\n");
  if (stats.rb_batch_flushes > 0) {
    std::printf("  rb batching: batched=%llu precall-coalesced=%llu flushes=%llu "
                "window +%llu/-%llu park-flushes=%llu\n",
                static_cast<unsigned long long>(stats.rb_batched_entries),
                static_cast<unsigned long long>(stats.rb_precall_coalesced),
                static_cast<unsigned long long>(stats.rb_batch_flushes),
                static_cast<unsigned long long>(stats.rb_batch_window_grows),
                static_cast<unsigned long long>(stats.rb_batch_window_shrinks),
                static_cast<unsigned long long>(stats.rb_park_flushes));
  }
  if (stats.rb_frames_sent > 0) {
    // Cumulative over the whole run: epoch bumps (remote deaths) never reset the
    // transport counters — the per-epoch breakdown below attributes them.
    std::printf("  rb transport: frames=%llu bytes=%llu acked=%llu applied=%llu "
                "stalls=%llu deaths=%llu\n",
                static_cast<unsigned long long>(stats.rb_frames_sent),
                static_cast<unsigned long long>(stats.rb_frame_bytes_sent),
                static_cast<unsigned long long>(stats.rb_frames_acked),
                static_cast<unsigned long long>(stats.rb_frames_applied),
                static_cast<unsigned long long>(stats.rb_transport_stalls),
                static_cast<unsigned long long>(stats.rb_remote_deaths));
    if (stats.rb_epochs.size() > 1 || stats.rb_remote_deaths > 0) {
      std::printf("  rb epochs:");
      for (const RbEpochStats& row : stats.rb_epochs) {
        std::printf(" [e%u sent=%llu acked=%llu applied=%llu snap=%llu deaths=%llu "
                    "joins=%llu]",
                    row.epoch, static_cast<unsigned long long>(row.frames_sent),
                    static_cast<unsigned long long>(row.frames_acked),
                    static_cast<unsigned long long>(row.frames_applied),
                    static_cast<unsigned long long>(row.snapshot_frames),
                    static_cast<unsigned long long>(row.deaths),
                    static_cast<unsigned long long>(row.joins));
      }
      std::printf("\n");
    }
  }
  if (stats.sync_ops_recorded > 0) {
    std::printf("  sync agent: recorded=%llu replayed=%llu wrap-stalls=%llu",
                static_cast<unsigned long long>(stats.sync_ops_recorded),
                static_cast<unsigned long long>(stats.sync_ops_replayed),
                static_cast<unsigned long long>(stats.sync_log_wrap_stalls));
    if (stats.sync_log_frames_sent > 0) {
      std::printf(" | log stream: frames=%llu records=%llu applied=%llu/%llu",
                  static_cast<unsigned long long>(stats.sync_log_frames_sent),
                  static_cast<unsigned long long>(stats.sync_log_records_streamed),
                  static_cast<unsigned long long>(stats.sync_log_frames_applied),
                  static_cast<unsigned long long>(stats.sync_log_records_applied));
    }
    std::printf("\n");
  }
  if (stats.rb_auth_frames_sealed > 0 || stats.rb_auth_frames_rejected > 0) {
    std::printf("  rb auth: sealed=%llu rejected=%llu epoch-regressions=%llu "
                "joins=%llu join-rejects=%llu\n",
                static_cast<unsigned long long>(stats.rb_auth_frames_sealed),
                static_cast<unsigned long long>(stats.rb_auth_frames_rejected),
                static_cast<unsigned long long>(stats.rb_epoch_regressions),
                static_cast<unsigned long long>(stats.rb_auth_joins),
                static_cast<unsigned long long>(stats.rb_auth_join_rejects));
  }
  if (stats.rb_replica_respawns > 0) {
    std::printf("  rb re-seed: respawns=%llu joins=%llu snapshot-frames=%llu "
                "snapshot-KiB=%llu entries-restored=%llu rejects=%llu\n",
                static_cast<unsigned long long>(stats.rb_replica_respawns),
                static_cast<unsigned long long>(stats.rb_replica_joins),
                static_cast<unsigned long long>(stats.rb_snapshot_frames_sent),
                static_cast<unsigned long long>(stats.rb_snapshot_bytes_sent / 1024),
                static_cast<unsigned long long>(stats.rb_snapshot_entries_restored),
                static_cast<unsigned long long>(stats.rb_snapshot_rejects));
  }
  if (stats.rb_snapshot_delta_captures > 0 || stats.rb_snapshot_full_fallbacks > 0 ||
      stats.rb_replica_migrations > 0) {
    std::printf("  rb re-seed mode: delta-captures=%llu full-fallbacks=%llu "
                "migrations=%llu\n",
                static_cast<unsigned long long>(stats.rb_snapshot_delta_captures),
                static_cast<unsigned long long>(stats.rb_snapshot_full_fallbacks),
                static_cast<unsigned long long>(stats.rb_replica_migrations));
  }
  if (stats.file_map_grows > 0) {
    std::printf("  file map: live grows=%llu\n",
                static_cast<unsigned long long>(stats.file_map_grows));
  }
}

int Run(const CliArgs& args) {
  const RunConfig& config = args.config;
  std::string mode(MveeModeName(config.mode));
  std::string level(PolicyLevelName(config.level));
  if (args.fleet()) {
    // Fleet run: N replica-set shards (per tier) behind a load balancer, driven
    // by an open-loop Poisson swarm instead of the closed-loop client.
    ScaleoutSpec spec;
    std::vector<std::pair<std::string, int>> tiers = args.tiers;
    if (tiers.empty()) {
      tiers.emplace_back(args.server.empty() ? "nginx" : args.server, args.shards);
    }
    for (size_t t = 0; t < tiers.size(); ++t) {
      ScaleoutTierSpec tier;
      tier.server = ServerByName(tiers[t].first);
      tier.name = "t" + std::to_string(t) + "-" + tier.server.name;
      tier.port = static_cast<uint16_t>(9000 + t);
      tier.initial_shards = tiers[t].second;
      tier.min_shards = tiers[t].second;
      tier.max_shards = args.autoscale ? tiers[t].second + 4 : tiers[t].second;
      tier.hit_ratio = 0.75;  // Non-front tiers: 1 miss in 4 goes upstream.
      if (t > 0) {
        // Internal tiers serve a handful of persistent upstream connections,
        // not a swarm: round-robin spreads them where a hash would skew.
        tier.policy = LoadBalancer::Policy::kRoundRobin;
      }
      spec.tiers.push_back(tier);
    }
    spec.swarm.connections = args.clients;
    spec.swarm.arrival_rate = args.arrival_rate;
    spec.autoscale.enabled = args.autoscale;
    ScaleoutResult run = RunScaleout(spec, config);
    std::printf("fleet under %s (%d replicas, %s): %d clients at %.0f conn/s\n",
                mode.c_str(), config.replicas, level.c_str(), args.clients,
                args.arrival_rate);
    for (size_t t = 0; t < spec.tiers.size(); ++t) {
      std::printf("  tier %s: shards=%d in-rotation=%d port=%u\n",
                  spec.tiers[t].name.c_str(), run.shard_counts[t],
                  run.final_in_rotation[t], spec.tiers[t].port);
    }
    std::printf("  arrived=%d completed=%d errors=%d stalled=%d\n",
                run.arrived, run.completed, run.errors, run.stalled);
    std::printf("  throughput: %.0f conn/s | p50 %.3f ms | p99 %.3f ms\n",
                run.throughput, run.p50_ms, run.p99_ms);
    if (args.autoscale) {
      std::printf("  autoscale: spawned=%llu retired=%llu launched=%llu\n",
                  static_cast<unsigned long long>(run.shards_spawned),
                  static_cast<unsigned long long>(run.shards_retired),
                  static_cast<unsigned long long>(run.total_launched));
    }
    if (run.diverged) {
      std::printf("  [DIVERGED]\n");
    }
    PrintStats(run.stats);
    return run.diverged ? 2 : (run.finished ? 0 : 3);
  }

  if (!args.server.empty()) {
    ServerSpec server = ServerByName(args.server);
    ClientSpec client;
    client.connections = args.connections;
    client.total_requests = args.requests;
    LinkParams link{static_cast<DurationNs>(args.latency_us) * kMicrosecond, 0.125};
    RunConfig native = config;
    native.mode = MveeMode::kNative;
    ServerResult base = RunServerBench(server, client, native, link);
    ServerResult run = RunServerBench(server, client, config, link);
    std::printf("server %s under %s (%d replicas, %s, %d us link):\n",
                server.name.c_str(), mode.c_str(), config.replicas, level.c_str(),
                args.latency_us);
    std::printf("  native: %d requests, %.0f req/s, %.0f us mean latency\n",
                base.requests, base.throughput, base.mean_latency_us);
    std::printf("  mvee:   %d requests, %.0f req/s, %.0f us mean latency%s\n",
                run.requests, run.throughput, run.mean_latency_us,
                run.diverged ? "  [DIVERGED]" : "");
    if (base.seconds > 0 && run.seconds > 0) {
      std::printf("  normalized runtime: %.2f\n", run.seconds / base.seconds);
    }
    PrintStats(run.stats);
    return run.diverged ? 2 : 0;
  }

  std::string name = args.workload.empty() ? "phpbench" : args.workload;
  for (const auto& suite : {ParsecSuite(), SplashSuite(), PhoronixSuite(), SpecCpuSuite()}) {
    for (const WorkloadSpec& spec : suite) {
      if (spec.name == name) {
        RunConfig native = config;
        native.mode = MveeMode::kNative;
        SuiteResult base = RunSuiteWorkload(spec, native);
        SuiteResult run = RunSuiteWorkload(spec, config);
        std::printf("workload %s under %s (%d replicas, %s):\n", spec.name.c_str(),
                    mode.c_str(), config.replicas, level.c_str());
        std::printf("  native: %.2f ms | mvee: %.2f ms | normalized: %.2f%s\n",
                    base.seconds * 1e3, run.seconds * 1e3,
                    base.seconds > 0 ? run.seconds / base.seconds : 0,
                    run.diverged ? "  [DIVERGED]" : "");
        PrintStats(run.stats);
        return run.diverged ? 2 : 0;
      }
    }
  }
  std::fprintf(stderr, "unknown workload '%s' (try --list)\n", name.c_str());
  return 1;
}

}  // namespace
}  // namespace remon

int main(int argc, char** argv) {
  remon::CliArgs args = remon::Parse(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr, "usage: remon_cli [--mode=..] [--replicas=N] [--level=..] "
                         "[--workload=NAME|--server=NAME] [--seed=N] [--latency-us=N] "
                         "[--connections=N] [--requests=N] [--temporal-p=F] [--rb-mb=N] "
                         "[--rb-batch=N|adaptive] [--rb-migration] "
                         "[--placement=local|machine:N,...] [--rb-link-latency-us=N] "
                         "[--rb-link-gbps=F] [--respawn-on-death] [--reseed=delta|full] "
                         "[--respawn-target=M] "
                         "[--kill-replica-at-ms=N] [--sync-agent] [--sync-log-kb=N] "
                         "[--rb-auth] [--shards=N] [--tiers=SERVER:SHARDS,...] "
                         "[--autoscale] [--clients=N] [--arrival-rate=F] "
                         "[--fd-map-pages=N] [--list]  (full reference: docs/CLI.md)\n");
    return 1;
  }
  if (args.list) {
    remon::ListWorkloads();
    return 0;
  }
  return remon::Run(args);
}
