// Tests for the workload library: servers (all three concurrency models), clients,
// suite-spec derivation, and the sync agent.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/sync_agent.h"
#include "src/harness/runner.h"
#include "tests/test_util.h"

namespace remon {
namespace {

// --- Servers ----------------------------------------------------------------------

class ServerKindTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ServerKindTest, ServesKeepAliveRequestsNatively) {
  ServerSpec server = ServerByName(GetParam());
  ClientSpec client;
  client.connections = 4;
  client.total_requests = 60;
  client.request_bytes = 1024;
  RunConfig native;
  native.mode = MveeMode::kNative;
  ServerResult r = RunServerBench(server, client, native,
                                  LinkParams{60 * kMicrosecond, 0.125});
  EXPECT_EQ(r.requests, 60) << server.name;
  EXPECT_GT(r.throughput, 0) << server.name;
  EXPECT_GT(r.mean_latency_us, 0) << server.name;
}

INSTANTIATE_TEST_SUITE_P(AllServers, ServerKindTest,
                         ::testing::Values("nginx", "lighttpd", "thttpd", "apache",
                                           "redis", "memcached", "beanstalkd"));

TEST(ServerTest, PaperServerSetIsComplete) {
  std::vector<ServerSpec> servers = PaperServers();
  EXPECT_EQ(servers.size(), 7u);
  // The three concurrency models the paper's server fleet spans.
  bool has_epoll = false;
  bool has_select = false;
  bool has_pool = false;
  for (const ServerSpec& s : servers) {
    has_epoll |= s.kind == ServerKind::kEpollLoop;
    has_select |= s.kind == ServerKind::kSelectLoop;
    has_pool |= s.kind == ServerKind::kThreadPool;
  }
  EXPECT_TRUE(has_epoll);
  EXPECT_TRUE(has_select);
  EXPECT_TRUE(has_pool);
}

TEST(ServerTest, MalformedRequestClosesConnection) {
  SimWorld w(3);
  ServerSpec spec = ServerByName("lighttpd");
  RemonOptions opts;
  opts.mode = MveeMode::kNative;
  opts.machine = w.server_machine;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(ServerProgram(spec), "srv");

  Process* cp = w.NewProcess("client", -1, w.client_machine);
  bool got_eof = false;
  w.kernel.SpawnThread(cp, [&](Guest& g) -> GuestTask<void> {
    co_await g.SleepNs(Millis(1));
    int64_t s = co_await g.Socket(kAfInet, kSockStream);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = spec.port;
    addr.sin_addr = 0;
    g.Poke(sa, &addr, sizeof(addr));
    EXPECT_EQ(co_await g.Connect(static_cast<int>(s), sa, sizeof(addr)), 0);
    GuestAddr buf = g.Alloc(16);
    g.Poke(buf, "GARBAGE!!\n", 10);  // Not "R<8 digits>\n".
    co_await g.Write(static_cast<int>(s), buf, 10);
    int64_t n = co_await g.Read(static_cast<int>(s), buf, 16);
    got_eof = n == 0;  // Server closes on protocol error.
    co_await g.Close(static_cast<int>(s));
  });
  w.Run();
  EXPECT_TRUE(got_eof);
}

TEST(ClientTest, DurationModeStopsOnDeadline) {
  ServerSpec server = ServerByName("redis");
  ClientSpec client;
  client.connections = 4;
  client.total_requests = 0;
  client.duration = Millis(20);  // wrk-style.
  client.request_bytes = 256;
  RunConfig native;
  native.mode = MveeMode::kNative;
  ServerResult r = RunServerBench(server, client, native,
                                  LinkParams{60 * kMicrosecond, 0.125});
  EXPECT_GT(r.requests, 10);
  EXPECT_LT(r.seconds, 0.05);  // Bounded by the deadline (plus in-flight requests).
}

// --- Multi-rank servers under adaptive RB batching ---------------------------------

// The MVEE with waiter-pressure-driven batching must be transparent to multi-rank
// servers: every request served exactly once, the full response transcript
// delivered, no divergence — for both the epoll event-loop and the thread-pool
// concurrency model (each worker is its own RB rank with its own batch window).
class AdaptiveBatchServerTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AdaptiveBatchServerTest, TranscriptMatchesUnreplicatedBaseline) {
  ServerSpec server = ServerByName(GetParam());
  server.log_writes = 4;  // Chatty per-rank logging: the batchable call stream.
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 80;
  client.request_bytes = 1024;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig native;
  native.mode = MveeMode::kNative;
  ServerResult base = RunServerBench(server, client, native, link);
  ASSERT_EQ(base.requests, 80) << server.name;

  RunConfig config;
  config.mode = MveeMode::kRemon;
  config.replicas = 3;
  config.level = PolicyLevel::kSocketRw;
  config.rb_batch_max = 16;
  config.rb_batch_policy = RbBatchPolicy::kAdaptive;
  ServerResult run = RunServerBench(server, client, config, link);

  EXPECT_FALSE(run.diverged) << server.name;
  // Request/response transcript identical to the unreplicated baseline: same
  // request count, same response bytes, no client-visible errors.
  EXPECT_EQ(run.requests, base.requests) << server.name;
  EXPECT_EQ(run.bytes_received, base.bytes_received) << server.name;
  // Batching really engaged (the log appends are batchable on every rank).
  EXPECT_GT(run.stats.rb_batched_entries, 0u) << server.name;
  EXPECT_GT(run.stats.rb_precall_coalesced, 0u) << server.name;
  EXPECT_GT(run.stats.rb_batch_flushes, 0u) << server.name;
}

INSTANTIATE_TEST_SUITE_P(EpollAndPool, AdaptiveBatchServerTest,
                         ::testing::Values("nginx", "memcached"));

TEST(AdaptiveBatchServerTest, AdaptiveMatchesOrBeatsBestFixedWindow) {
  // The acceptance check behind the bench_abl_rb sweep, in miniature: on a
  // multi-rank server workload the adaptive window must be at least competitive
  // with the best fixed window (virtual time is deterministic, so a small
  // tolerance only covers cost-model granularity, not noise).
  ServerSpec server = ServerByName("nginx");
  server.log_writes = 6;
  ClientSpec client;
  client.connections = 16;
  client.total_requests = 150;
  client.request_bytes = 512;
  LinkParams link{Millis(1), 0.125};

  double best_fixed = -1;
  for (int batch : {0, 2, 4, 8, 16}) {
    RunConfig config;
    config.mode = MveeMode::kRemon;
    config.replicas = 3;
    config.level = PolicyLevel::kSocketRw;
    config.rb_batch_max = batch;
    ServerResult r = RunServerBench(server, client, config, link);
    ASSERT_FALSE(r.diverged) << "fixed " << batch;
    ASSERT_EQ(r.requests, 150) << "fixed " << batch;
    if (best_fixed < 0 || r.seconds < best_fixed) {
      best_fixed = r.seconds;
    }
  }

  RunConfig adaptive;
  adaptive.mode = MveeMode::kRemon;
  adaptive.replicas = 3;
  adaptive.level = PolicyLevel::kSocketRw;
  adaptive.rb_batch_max = 16;
  adaptive.rb_batch_policy = RbBatchPolicy::kAdaptive;
  ServerResult a = RunServerBench(server, client, adaptive, link);
  ASSERT_FALSE(a.diverged);
  ASSERT_EQ(a.requests, 150);
  EXPECT_LE(a.seconds, best_fixed * 1.02);
}

// --- Cross-machine replica sets (RB transport over the simulated network) ----------

// Acceptance bar for the transport: a 3-rank replica set with one remote rank must
// serve the exact transcript the all-local SHM configuration serves — for both the
// epoll event-loop and the thread-pool concurrency model — while actually moving
// the replication stream as wire frames.
class RemotePlacementServerTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RemotePlacementServerTest, TranscriptMatchesShmPlacement) {
  ServerSpec server = ServerByName(GetParam());
  server.log_writes = 4;
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 80;
  client.request_bytes = 1024;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig local;
  local.mode = MveeMode::kRemon;
  local.replicas = 3;
  local.level = PolicyLevel::kSocketRw;
  local.rb_batch_max = 16;
  local.rb_batch_policy = RbBatchPolicy::kAdaptive;
  ServerResult shm = RunServerBench(server, client, local, link);
  ASSERT_FALSE(shm.diverged) << server.name;
  ASSERT_EQ(shm.requests, 80) << server.name;
  EXPECT_EQ(shm.stats.rb_frames_sent, 0u) << server.name;  // All-local: no frames.

  RunConfig remote = local;
  remote.placement = {1};  // Replica 1 on its own machine; replica 2 stays local.
  remote.rb_link_latency = 50 * kMicrosecond;
  ServerResult net = RunServerBench(server, client, remote, link);

  EXPECT_FALSE(net.diverged) << server.name;
  // Byte-identical client-observed transcript across placements. (The *count* of
  // replicated entries legitimately differs between placements for an event-loop
  // server — wakeup coalescing and accept retries are timing-dependent — so exact
  // RB-stream equality is asserted by the deterministic cross-machine fuzz in
  // property_test.cc, not here.)
  EXPECT_EQ(net.requests, shm.requests) << server.name;
  EXPECT_EQ(net.bytes_received, shm.bytes_received) << server.name;
  // The stream really traveled as frames and was applied remotely.
  EXPECT_GT(net.stats.rb_frames_sent, 0u) << server.name;
  EXPECT_EQ(net.stats.rb_frames_applied, net.stats.rb_frames_sent) << server.name;
  EXPECT_GT(net.stats.rb_entries_applied, 0u) << server.name;
}

INSTANTIATE_TEST_SUITE_P(EpollAndPool, RemotePlacementServerTest,
                         ::testing::Values("nginx", "memcached"));

TEST(RemotePlacementTest, TwoRemoteRanksOnDistinctHosts) {
  // placement=machine:1,2 — both slaves remote, on different machines, each with
  // its own mirror + agent. The leader broadcasts each flush to both.
  ServerSpec server = ServerByName("nginx");
  ClientSpec client;
  client.connections = 4;
  client.total_requests = 40;
  client.request_bytes = 512;
  RunConfig config;
  config.mode = MveeMode::kRemon;
  config.replicas = 3;
  config.level = PolicyLevel::kSocketRw;
  config.rb_batch_max = 8;
  config.rb_batch_policy = RbBatchPolicy::kAdaptive;
  config.placement = {1, 2};
  ServerResult r = RunServerBench(server, client, config,
                                  LinkParams{60 * kMicrosecond, 0.125});
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.requests, 40);
  // Two remotes: every sent frame is applied, once per remote.
  EXPECT_GT(r.stats.rb_frames_sent, 0u);
  EXPECT_EQ(r.stats.rb_frames_applied, r.stats.rb_frames_sent);
}

TEST(RemotePlacementTest, KilledReplicaReseedsAndServesIdenticalTranscript) {
  // The recovery story end to end at the server level: a remote replica's link is
  // torn down mid-benchmark, a replacement is checkpoint-seeded back in, and the
  // client-observed transcript matches the uninterrupted run — no divergence, no
  // lost or duplicated requests.
  ServerSpec server = ServerByName("nginx");
  server.log_writes = 4;
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 80;
  client.request_bytes = 1024;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig config;
  config.mode = MveeMode::kRemon;
  config.replicas = 3;
  config.level = PolicyLevel::kSocketRw;
  config.rb_batch_max = 16;
  config.rb_batch_policy = RbBatchPolicy::kAdaptive;
  config.placement = {1};
  ServerResult uninterrupted = RunServerBench(server, client, config, link);
  ASSERT_FALSE(uninterrupted.diverged);
  ASSERT_EQ(uninterrupted.requests, 80);

  RunConfig faulted = config;
  faulted.respawn_dead_replicas = true;
  faulted.kill_remote_replica_at = Millis(2);
  ServerResult reseeded = RunServerBench(server, client, faulted, link);

  EXPECT_FALSE(reseeded.diverged);
  EXPECT_EQ(reseeded.requests, uninterrupted.requests);
  EXPECT_EQ(reseeded.bytes_received, uninterrupted.bytes_received);
  // The death and the re-seed actually happened.
  EXPECT_GE(reseeded.stats.rb_remote_deaths, 1u);
  EXPECT_GE(reseeded.stats.rb_replica_respawns, 1u);
  EXPECT_EQ(reseeded.stats.rb_replica_joins, reseeded.stats.rb_replica_respawns);
  EXPECT_GT(reseeded.stats.rb_snapshot_frames_sent, 0u);
  EXPECT_EQ(reseeded.stats.rb_snapshot_rejects, 0u);
  // Epoch breakdown: traffic is attributed across (at least) two epochs and the
  // cumulative counters kept the pre-death history.
  EXPECT_GE(reseeded.stats.rb_epochs.size(), 2u);
  uint64_t per_epoch_sent = 0;
  for (const RbEpochStats& row : reseeded.stats.rb_epochs) {
    per_epoch_sent += row.frames_sent;
  }
  EXPECT_EQ(per_epoch_sent, reseeded.stats.rb_frames_sent);
}

TEST(RemotePlacementTest, MultithreadedPoolServerReseedsWithSyncLog) {
  // The multi-threaded recovery story end to end: a thread-pool server whose
  // workers serialize racy accept-side bookkeeping through the record/replay
  // agent, with one replica on its own machine. Mid-benchmark the remote's link
  // is torn down and a replacement is checkpoint-seeded back in — the snapshot
  // now carrying the sync-log image + replay cursor — and the client-observed
  // transcript must match the uninterrupted run exactly.
  ServerSpec server = ServerByName("memcached");  // 4 pool workers.
  server.log_writes = 2;
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 120;
  client.request_bytes = 512;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig config;
  config.mode = MveeMode::kRemon;
  config.replicas = 3;
  config.level = PolicyLevel::kSocketRw;
  config.rb_batch_max = 16;
  config.rb_batch_policy = RbBatchPolicy::kAdaptive;
  config.placement = {0, 1};  // Replica 2 on its own machine.
  config.use_sync_agent = true;

  // Placement transparency first: the agent-guarded pool serves identically
  // whether the replica set is all-local or split across machines.
  RunConfig all_local = config;
  all_local.placement.clear();
  ServerResult local = RunServerBench(server, client, all_local, link);
  ASSERT_FALSE(local.diverged);
  ASSERT_EQ(local.requests, 120);
  EXPECT_GT(local.stats.sync_ops_recorded, 0u);
  EXPECT_EQ(local.stats.sync_log_frames_sent, 0u);  // All-local: no stream.

  ServerResult remote = RunServerBench(server, client, config, link);
  ASSERT_FALSE(remote.diverged);
  EXPECT_EQ(remote.requests, local.requests);
  EXPECT_EQ(remote.bytes_received, local.bytes_received);
  // The sync log really traveled: appends streamed as kSyncLog frames and every
  // one was replayed into the remote mirror.
  EXPECT_GT(remote.stats.sync_log_frames_sent, 0u);
  EXPECT_EQ(remote.stats.sync_log_records_applied,
            remote.stats.sync_log_records_streamed);
  // Both slaves replayed the master's full acquisition history.
  EXPECT_EQ(remote.stats.sync_ops_replayed, 2 * remote.stats.sync_ops_recorded);

  RunConfig faulted = config;
  faulted.respawn_dead_replicas = true;
  faulted.kill_remote_replica_at = Millis(3);
  ServerResult reseeded = RunServerBench(server, client, faulted, link);

  EXPECT_FALSE(reseeded.diverged);
  EXPECT_EQ(reseeded.requests, remote.requests);
  EXPECT_EQ(reseeded.bytes_received, remote.bytes_received);
  EXPECT_GE(reseeded.stats.rb_remote_deaths, 1u);
  EXPECT_GE(reseeded.stats.rb_replica_joins, 1u);
  EXPECT_EQ(reseeded.stats.rb_snapshot_rejects, 0u);
  // The recovered run still replicated the whole sync history to both slaves.
  EXPECT_EQ(reseeded.stats.sync_ops_replayed, 2 * reseeded.stats.sync_ops_recorded);
}

TEST(RemotePlacementTest, AuthenticatedPlacementServesIdenticalTranscript) {
  // Wire-v4 authentication at the server level: with --rb-auth the cross-machine
  // multi-threaded benchmark must serve the exact transcript of the
  // unauthenticated run — MAC trailers and stream encryption change only the
  // bytes on the link — and the attested-join re-seed must stay transparent too.
  ServerSpec server = ServerByName("memcached");
  server.log_writes = 2;
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 120;
  client.request_bytes = 512;
  LinkParams link{60 * kMicrosecond, 0.125};

  RunConfig config;
  config.mode = MveeMode::kRemon;
  config.replicas = 3;
  config.level = PolicyLevel::kSocketRw;
  config.rb_batch_max = 16;
  config.rb_batch_policy = RbBatchPolicy::kAdaptive;
  config.placement = {0, 1};  // Replica 2 on its own machine.
  config.use_sync_agent = true;
  ServerResult plain = RunServerBench(server, client, config, link);
  ASSERT_FALSE(plain.diverged);
  ASSERT_EQ(plain.requests, 120);
  EXPECT_EQ(plain.stats.rb_auth_frames_sealed, 0u);

  RunConfig authed = config;
  authed.rb_auth = true;
  ServerResult auth = RunServerBench(server, client, authed, link);
  ASSERT_FALSE(auth.diverged);
  EXPECT_EQ(auth.requests, plain.requests);
  EXPECT_EQ(auth.bytes_received, plain.bytes_received);
  // Every frame on the link was sealed (leader data + replica acks), the initial
  // join ran through the attest handshake, and nothing was rejected.
  EXPECT_GT(auth.stats.rb_auth_frames_sealed, auth.stats.rb_frames_sent);
  EXPECT_EQ(auth.stats.rb_auth_frames_rejected, 0u);
  EXPECT_GE(auth.stats.rb_auth_joins, 1u);
  EXPECT_EQ(auth.stats.rb_auth_join_rejects, 0u);

  RunConfig faulted = authed;
  faulted.respawn_dead_replicas = true;
  faulted.kill_remote_replica_at = Millis(3);
  ServerResult reseeded = RunServerBench(server, client, faulted, link);
  EXPECT_FALSE(reseeded.diverged);
  EXPECT_EQ(reseeded.requests, plain.requests);
  EXPECT_EQ(reseeded.bytes_received, plain.bytes_received);
  EXPECT_GE(reseeded.stats.rb_remote_deaths, 1u);
  EXPECT_GE(reseeded.stats.rb_replica_joins, 1u);
  // Initial join + replacement join, each attested under its epoch's keys.
  EXPECT_GE(reseeded.stats.rb_auth_joins, 2u);
  EXPECT_EQ(reseeded.stats.rb_snapshot_rejects, 0u);
}

TEST(RemotePlacementTest, RemoteLinkDownReportsDivergenceNotHang) {
  // Tearing the remote agent's link mid-run must end the run with a divergence
  // report (epoch bump included), never a hang on unacked frames or RB waits.
  SimWorld w(99);
  uint32_t remote_machine = w.net.AddMachine("replica-host-1");
  w.net.SetLink(w.server_machine, remote_machine, LinkParams{50 * kMicrosecond, 0.125});

  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 3;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_batch_max = 8;
  opts.rb_batch_policy = RbBatchPolicy::kAdaptive;
  opts.machine = w.server_machine;
  opts.replica_machines = {w.server_machine, w.server_machine, remote_machine};
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/remote-death", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    for (int i = 0; i < 5000; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 64);
      co_await g.Compute(Micros(5));
    }
    co_await g.Close(static_cast<int>(fd));
  });

  ASSERT_NE(mvee.remote_agent(2), nullptr);
  w.sim.queue().ScheduleAt(Millis(3), [&mvee] { mvee.remote_agent(2)->Shutdown(); });
  w.Run(Seconds(30));  // A hang would blow through the deadline.

  EXPECT_TRUE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.transport()->any_remote_dead());
  EXPECT_GE(mvee.transport()->epoch(), 2u);
  EXPECT_LT(w.sim.now(), Seconds(29));
}

// --- Suite specs -------------------------------------------------------------------

TEST(SuiteSpecTest, DerivationProducesSaneFootprints) {
  for (const auto& suite : {ParsecSuite(), SplashSuite(), PhoronixSuite()}) {
    for (const WorkloadSpec& spec : suite) {
      EXPECT_GE(spec.iterations, 10) << spec.name;
      EXPECT_LE(spec.CallsPerIter(), 24) << spec.name;
      EXPECT_GE(spec.compute_per_iter, 100) << spec.name;
      EXPECT_GE(spec.mem_intensity, 0.0) << spec.name;
      // Per-extra-replica slowdown fraction; syscall-saturated benchmarks
      // (network-loopback) legitimately exceed 1.0.
      EXPECT_LE(spec.mem_intensity, 2.5) << spec.name;
      EXPECT_GT(spec.paper_ghumvee, 0.5) << spec.name;
    }
  }
}

TEST(SuiteSpecTest, SuitesMatchPaperRosters) {
  EXPECT_EQ(ParsecSuite().size(), 12u);   // canneal excluded, as in the paper.
  EXPECT_EQ(SplashSuite().size(), 13u);   // cholesky excluded, as in the paper.
  EXPECT_EQ(PhoronixSuite().size(), 7u);  // + the nginx server column in the bench.
  EXPECT_EQ(SpecCpuSuite().size(), 12u);  // SPECint 2006 roster.
}

TEST(SuiteSpecTest, SuiteProgramIsDeterministicAcrossRuns) {
  WorkloadSpec spec = PhoronixSuite()[0];
  spec.iterations = 50;
  RunConfig config;
  config.mode = MveeMode::kNative;
  SuiteResult a = RunSuiteWorkload(spec, config);
  SuiteResult b = RunSuiteWorkload(spec, config);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.stats.syscalls_total, b.stats.syscalls_total);
}

// --- Suite tables under monitoring (the Figure 3/4 bench surface) ------------------

// Every spec of every tracked suite must run to completion — finished, not
// diverged, really issuing syscalls — under both the GHUMVEE-only baseline and
// ReMon, with a sane normalized time. This is the cheap structural guarantee
// behind the committed BENCH_fig{3,4}.json baselines: a spec that hangs, trips
// divergence, or goes off the rails by 100x shows up here before it poisons a
// baseline refresh.
class SuiteTableTest : public ::testing::TestWithParam<const char*> {
 protected:
  static std::vector<WorkloadSpec> SuiteByName(const std::string& name) {
    if (name == "parsec") return ParsecSuite();
    if (name == "splash") return SplashSuite();
    if (name == "phoronix") return PhoronixSuite();
    return SpecCpuSuite();
  }
};

TEST_P(SuiteTableTest, RunsToCompletionUnderGhumveeAndRemon) {
  for (WorkloadSpec spec : SuiteByName(GetParam())) {
    spec.iterations = std::min(spec.iterations, 30);  // Shape, not duration.
    RunConfig native;
    native.mode = MveeMode::kNative;
    SuiteResult base = RunSuiteWorkload(spec, native);
    ASSERT_TRUE(base.finished) << spec.name;
    ASSERT_FALSE(base.diverged) << spec.name;
    ASSERT_GT(base.seconds, 0.0) << spec.name;
    ASSERT_GT(base.stats.syscalls_total, 0u) << spec.name;

    for (MveeMode mode : {MveeMode::kGhumveeOnly, MveeMode::kRemon}) {
      RunConfig config;
      config.mode = mode;
      config.replicas = 2;
      config.level = PolicyLevel::kNonsocketRw;
      SuiteResult run = RunSuiteWorkload(spec, config);
      const char* label = mode == MveeMode::kRemon ? "remon" : "ghumvee";
      EXPECT_TRUE(run.finished) << spec.name << " " << label;
      EXPECT_FALSE(run.diverged) << spec.name << " " << label;
      EXPECT_GT(run.stats.syscalls_total, base.stats.syscalls_total)
          << spec.name << " " << label;  // Two replicas: more calls than native.
      double norm = run.seconds / base.seconds;
      // Monitoring never speeds a workload up, and even the syscall-saturated
      // outliers (network-loopback under lockstep) stay well inside 64x.
      EXPECT_GE(norm, 1.0) << spec.name << " " << label;
      EXPECT_LT(norm, 64.0) << spec.name << " " << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuites, SuiteTableTest,
                         ::testing::Values("parsec", "splash", "phoronix", "spec"));

// --- Sync suite columns (fig3/fig4 sync_local/sync_remote) -------------------------

RunConfig SyncColumnConfig() {
  RunConfig config;
  config.mode = MveeMode::kRemon;
  config.replicas = 2;
  config.level = PolicyLevel::kNonsocketRw;
  config.rb_batch_max = 16;
  config.rb_batch_policy = RbBatchPolicy::kAdaptive;
  config.use_sync_agent = true;
  config.sync_log_size = kSyncLogOffEntries + 64 * kSyncLogEntrySize;
  return config;
}

TEST(SyncSuiteTest, DeepInflightWindowUnthrottlesRemoteSyncColumn) {
  // Regression lock for the fig3/fig4 remote sync columns. The barrier rotation
  // emits a sync-log record and then immediately hits a liveness flush point, so
  // the stream travels as near-singleton frames. Under the default 8-frame
  // in-flight budget the master spends the run parked on ack round-trips —
  // sync_log_append_stalls in the hundreds, several-x overhead versus the
  // all-local placement. A deep window must remove every window-bound stall and
  // bring the remote run back to parity with local (the residual cost is wire
  // bandwidth, which fmm's duty cycle absorbs).
  WorkloadSpec spec;
  for (const WorkloadSpec& s : SplashSuite()) {
    if (s.name == "fmm") spec = s;
  }
  ASSERT_EQ(spec.name, "fmm");
  spec = SyncVariant(spec, /*sync_ops=*/2, /*max_iterations=*/80);

  SuiteResult local = RunSuiteWorkload(spec, SyncColumnConfig());
  ASSERT_TRUE(local.finished);
  ASSERT_FALSE(local.diverged);
  EXPECT_EQ(local.stats.sync_log_append_stalls, 0u);

  RunConfig shallow = SyncColumnConfig();
  shallow.placement = {1};
  ASSERT_EQ(shallow.rb_max_inflight_frames, 8);  // The default being documented.
  SuiteResult throttled = RunSuiteWorkload(spec, shallow);
  ASSERT_TRUE(throttled.finished);
  ASSERT_FALSE(throttled.diverged);
  EXPECT_GT(throttled.stats.sync_log_append_stalls, 100u);
  EXPECT_GT(throttled.stats.rb_transport_stalls, 100u);

  RunConfig deep = shallow;
  deep.rb_max_inflight_frames = 64;  // What the bench columns run with.
  SuiteResult fast = RunSuiteWorkload(spec, deep);
  ASSERT_TRUE(fast.finished);
  ASSERT_FALSE(fast.diverged);
  EXPECT_EQ(fast.stats.sync_log_append_stalls, 0u);
  EXPECT_EQ(fast.stats.rb_transport_stalls, 0u);
  EXPECT_LT(fast.seconds, throttled.seconds);
  // Parity with the all-local placement (deterministic: margin covers only the
  // stream's residual wire time, measured at ~1% of the run).
  EXPECT_LT(fast.seconds, local.seconds * 1.10);
  // The sync stream really traveled and was fully replayed.
  EXPECT_GT(fast.stats.sync_log_frames_sent, 0u);
  EXPECT_EQ(fast.stats.sync_log_records_applied,
            fast.stats.sync_log_records_streamed);
  EXPECT_EQ(fast.stats.sync_ops_replayed, fast.stats.sync_ops_recorded);
}

TEST(SyncSuiteTest, SyncVariantTranscriptsIdenticalAcrossPlacements) {
  // The per-worker acquisition transcripts (/tmp/suite-sync-<name>-t<k>) must be
  // byte-identical whether the slave replica shares the leader's machine or sits
  // behind the RB transport — the rotation's turn gate pins the global order, and
  // the agent replays it, so placement timing must never leak into the bytes.
  WorkloadSpec spec;
  for (const WorkloadSpec& s : ParsecSuite()) {
    if (s.name == "dedup") spec = s;
  }
  ASSERT_EQ(spec.name, "dedup");
  spec = SyncVariant(spec, /*sync_ops=*/2, /*max_iterations=*/40);

  std::vector<std::string> local_logs;
  std::vector<std::string> remote_logs;
  for (int remote = 0; remote <= 1; ++remote) {
    SimWorld w(7);
    RemonOptions opts = SyncColumnConfig();
    opts.rb_max_inflight_frames = 64;
    opts.machine = w.server_machine;
    if (remote != 0) {
      uint32_t host = w.net.AddMachine("replica-host-1");
      w.net.SetLink(w.server_machine, host, LinkParams{60 * kMicrosecond, 0.125});
      opts.replica_machines = {w.server_machine, host};
    }
    Remon mvee(&w.kernel, opts);
    mvee.Launch(SuiteProgram(spec), spec.name);
    w.Run();
    ASSERT_TRUE(mvee.finished()) << "remote=" << remote;
    ASSERT_FALSE(mvee.divergence_detected()) << "remote=" << remote;
    for (int t = 0; t < spec.threads; ++t) {
      auto log = w.fs.ReadWholeFile("/tmp/suite-sync-" + spec.name + "-t" +
                                    std::to_string(t));
      ASSERT_TRUE(log.has_value()) << "remote=" << remote << " t" << t;
      ASSERT_FALSE(log->empty()) << "remote=" << remote << " t" << t;
      (remote != 0 ? remote_logs : local_logs).push_back(*log);
    }
  }
  ASSERT_EQ(local_logs.size(), remote_logs.size());
  for (size_t i = 0; i < local_logs.size(); ++i) {
    EXPECT_EQ(local_logs[i], remote_logs[i]) << "worker " << i;
  }
}

// --- Sync agent (paper §2.3) -----------------------------------------------------

TEST(SyncAgentTest, MasterRecordsSlaveReplays) {
  SimWorld w(21);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.use_sync_agent = true;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([&mvee](Guest& g) -> GuestTask<void> {
    SyncAgent* agent = mvee.sync_agent(g.process()->replica_index);
    for (int i = 0; i < 5; ++i) {
      co_await agent->BeforeAcquire(g, /*object_id=*/42);
      co_await g.Compute(Micros(5));
    }
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_EQ(mvee.sync_agent(0)->ops_recorded(), 5u);
  EXPECT_EQ(mvee.sync_agent(1)->ops_replayed(), 5u);
}

TEST(SyncAgentTest, RacyWorkQueueStaysInLockstepWithAgent) {
  // Two threads race to pop work items; the item each thread gets determines its
  // syscall arguments. Without ordering this diverges across replicas; the agent
  // serializes the acquisitions identically everywhere.
  SimWorld w(22);
  RemonOptions opts;
  opts.mode = MveeMode::kGhumveeOnly;  // Strictest: every call in lockstep.
  opts.replicas = 2;
  opts.use_sync_agent = true;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([&mvee](Guest& g) -> GuestTask<void> {
    SyncAgent* agent = mvee.sync_agent(g.process()->replica_index);
    GuestAddr next_item = g.Alloc(4);
    g.PokeU32(next_item, 0);
    GuestAddr join = g.Alloc(8);
    co_await g.Pipe(join);
    int join_rd = static_cast<int>(g.PeekU32(join));
    int join_wr = static_cast<int>(g.PeekU32(join + 4));

    auto worker = [agent, next_item, join_wr](int id) -> ProgramFn {
      return [agent, next_item, join_wr, id](Guest& wg) -> GuestTask<void> {
        int64_t fd = co_await wg.Open("/tmp/work-" + std::to_string(id),
                                      kO_CREAT | kO_RDWR);
        GuestAddr buf = wg.Alloc(32);
        for (int i = 0; i < 4; ++i) {
          co_await wg.Compute(Micros(10 + id * 7));  // Skewed timing.
          co_await agent->BeforeAcquire(wg, /*object_id=*/1);
          uint32_t item = wg.PeekU32(next_item);  // The racy shared pop.
          wg.PokeU32(next_item, item + 1);
          std::string line = "item" + std::to_string(item) + ";";
          wg.Poke(buf, line.data(), line.size());
          co_await wg.Write(static_cast<int>(fd), buf, line.size());
        }
        co_await wg.Close(static_cast<int>(fd));
        wg.Poke(buf, "D", 1);
        co_await wg.Write(join_wr, buf, 1);
      };
    };
    co_await g.SpawnThread(g.RegisterThreadFn(worker(0)));
    co_await g.SpawnThread(g.RegisterThreadFn(worker(1)));
    GuestAddr sink = g.Alloc(2);
    int done = 0;
    while (done < 2) {
      int64_t n = co_await g.Read(join_rd, sink, static_cast<uint64_t>(2 - done));
      REMON_CHECK(n > 0);
      done += static_cast<int>(n);
    }
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  // All 8 items popped exactly once, across both files.
  std::string all = w.fs.ReadWholeFile("/tmp/work-0").value_or("") +
                    w.fs.ReadWholeFile("/tmp/work-1").value_or("");
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(all.find("item" + std::to_string(i) + ";"), std::string::npos) << i;
  }
}

// --- Cross-cutting: getrandom must replicate -------------------------------------

TEST(WorkloadTest, GetrandomReplicatedAcrossReplicas) {
  // Random bytes are inherently divergent state: they must be monitored and the
  // master's draw copied to the slaves, or replicas drift apart.
  SimWorld w(23);
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = 2;
  opts.level = PolicyLevel::kSocketRw;
  Remon mvee(&w.kernel, opts);
  std::string seen[2];
  mvee.Launch([&seen](Guest& g) -> GuestTask<void> {
    GuestAddr buf = g.Alloc(32);
    int64_t n = co_await g.Getrandom(buf, 32);
    EXPECT_EQ(n, 32);
    seen[g.process()->replica_index] = g.PeekString(buf, 32);
    // Behavior then depends on the random bytes — identical across replicas or the
    // next call diverges.
    if (static_cast<uint8_t>(seen[g.process()->replica_index][0]) % 2 == 0) {
      co_await g.Getpid();
    } else {
      co_await g.Gettid();
    }
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_FALSE(seen[0].empty());
}

}  // namespace
}  // namespace remon
