// Unit tests for the relaxation policies (paper §3.4, Table 1).

#include <gtest/gtest.h>

#include "src/core/policy.h"
#include "src/harness/runner.h"
#include "src/sim/rng.h"

namespace remon {
namespace {

// The exact unconditional sets of Table 1 (paper page 6).
const Sys kBaseCalls[] = {
    Sys::kGettimeofday, Sys::kClockGettime, Sys::kTime, Sys::kGetpid, Sys::kGettid,
    Sys::kGetpgrp, Sys::kGetppid, Sys::kGetgid, Sys::kGetegid, Sys::kGetuid,
    Sys::kGeteuid, Sys::kGetcwd, Sys::kGetpriority, Sys::kGetrusage, Sys::kTimes,
    Sys::kCapget, Sys::kGetitimer, Sys::kSysinfo, Sys::kUname, Sys::kSchedYield,
    Sys::kNanosleep};
const Sys kNonsocketRoCalls[] = {
    Sys::kAccess, Sys::kFaccessat, Sys::kLseek, Sys::kStat, Sys::kLstat, Sys::kFstat,
    Sys::kFstatat, Sys::kGetdents, Sys::kReadlink, Sys::kReadlinkat, Sys::kGetxattr,
    Sys::kLgetxattr, Sys::kFgetxattr, Sys::kAlarm, Sys::kSetitimer,
    Sys::kTimerfdGettime, Sys::kMadvise, Sys::kFadvise64};
const Sys kNonsocketRwCalls[] = {Sys::kSync, Sys::kSyncfs, Sys::kFsync, Sys::kFdatasync,
                                 Sys::kTimerfdSettime};
const Sys kSocketRoCalls[] = {Sys::kEpollWait, Sys::kRecvfrom, Sys::kRecvmsg,
                              Sys::kRecvmmsg, Sys::kGetsockname, Sys::kGetpeername,
                              Sys::kGetsockopt};
const Sys kSocketRwCalls[] = {Sys::kSendto, Sys::kSendmsg, Sys::kSendmmsg, Sys::kSendfile,
                              Sys::kEpollCtl, Sys::kSetsockopt, Sys::kShutdown};

TEST(PolicyTest, BaseLevelMatchesTable1) {
  RelaxationPolicy policy(PolicyLevel::kBase);
  for (Sys nr : kBaseCalls) {
    EXPECT_TRUE(policy.UnconditionallyExempt(nr)) << SysName(nr);
  }
  // Nothing above BASE relaxes.
  for (Sys nr : kNonsocketRoCalls) {
    EXPECT_FALSE(policy.UnconditionallyExempt(nr)) << SysName(nr);
  }
  for (Sys nr : kSocketRwCalls) {
    EXPECT_FALSE(policy.UnconditionallyExempt(nr)) << SysName(nr);
  }
}

TEST(PolicyTest, LevelsAreCumulative) {
  // "Selecting a level enables unmonitored system calls for all calls in that level,
  // as well as all preceding levels."
  RelaxationPolicy top(PolicyLevel::kSocketRw);
  for (Sys nr : kBaseCalls) {
    EXPECT_TRUE(top.UnconditionallyExempt(nr)) << SysName(nr);
  }
  for (Sys nr : kNonsocketRoCalls) {
    EXPECT_TRUE(top.UnconditionallyExempt(nr)) << SysName(nr);
  }
  for (Sys nr : kNonsocketRwCalls) {
    EXPECT_TRUE(top.UnconditionallyExempt(nr)) << SysName(nr);
  }
  for (Sys nr : kSocketRoCalls) {
    EXPECT_TRUE(top.UnconditionallyExempt(nr)) << SysName(nr);
  }
  for (Sys nr : kSocketRwCalls) {
    EXPECT_TRUE(top.UnconditionallyExempt(nr)) << SysName(nr);
  }
}

TEST(PolicyTest, ConditionalReadsDependOnFdType) {
  // read on a regular file relaxes at NONSOCKET_RO; on a socket only at SOCKET_RO.
  RelaxationPolicy ro(PolicyLevel::kNonsocketRo);
  EXPECT_TRUE(ro.AllowsUnmonitored(Sys::kRead, FdType::kRegular));
  EXPECT_TRUE(ro.AllowsUnmonitored(Sys::kRead, FdType::kPipe));
  EXPECT_FALSE(ro.AllowsUnmonitored(Sys::kRead, FdType::kSocket));

  RelaxationPolicy sro(PolicyLevel::kSocketRo);
  EXPECT_TRUE(sro.AllowsUnmonitored(Sys::kRead, FdType::kSocket));
}

TEST(PolicyTest, ConditionalWritesDependOnFdType) {
  RelaxationPolicy nsrw(PolicyLevel::kNonsocketRw);
  EXPECT_TRUE(nsrw.AllowsUnmonitored(Sys::kWrite, FdType::kRegular));
  EXPECT_FALSE(nsrw.AllowsUnmonitored(Sys::kWrite, FdType::kSocket));
  RelaxationPolicy srw(PolicyLevel::kSocketRw);
  EXPECT_TRUE(srw.AllowsUnmonitored(Sys::kWrite, FdType::kSocket));
  // Reads at NONSOCKET_RO level are not enough for writes.
  RelaxationPolicy nsro(PolicyLevel::kNonsocketRo);
  EXPECT_FALSE(nsro.AllowsUnmonitored(Sys::kWrite, FdType::kRegular));
}

TEST(PolicyTest, SpecialFilesAlwaysMonitored) {
  // /proc/<pid>/maps reads must reach GHUMVEE for filtering (paper §3.1/§3.6).
  RelaxationPolicy srw(PolicyLevel::kSocketRw);
  EXPECT_FALSE(srw.AllowsUnmonitored(Sys::kRead, FdType::kSpecial));
  EXPECT_FALSE(srw.AllowsUnmonitored(Sys::kWrite, FdType::kSpecial));
}

TEST(PolicyTest, SensitiveClassesNeverRelax) {
  // FD lifecycle, memory management, thread/process control, signal handling.
  RelaxationPolicy top(PolicyLevel::kSocketRw);
  for (Sys nr : {Sys::kOpen, Sys::kClose, Sys::kSocket, Sys::kAccept, Sys::kPipe,
                 Sys::kDup, Sys::kMmap, Sys::kMprotect, Sys::kMremap, Sys::kBrk,
                 Sys::kClone, Sys::kKill, Sys::kExitGroup, Sys::kRtSigaction,
                 Sys::kRtSigprocmask, Sys::kExecve, Sys::kShmget, Sys::kShmat}) {
    EXPECT_FALSE(top.UnconditionallyExempt(nr)) << SysName(nr);
    EXPECT_FALSE(top.ConditionallyExempt(nr)) << SysName(nr);
  }
}

TEST(PolicyTest, ForcedCpCallsCoverIpmonTampering) {
  // "We force all system calls that could adversely affect IP-MON to be forwarded to
  // GHUMVEE (e.g. sys_mprotect and sys_mremap)."
  for (Sys nr : {Sys::kMprotect, Sys::kMremap, Sys::kMunmap, Sys::kMmap, Sys::kShmat,
                 Sys::kShmdt, Sys::kShmget, Sys::kShmctl}) {
    EXPECT_TRUE(RelaxationPolicy::ForcedCpCall(nr)) << SysName(nr);
  }
  EXPECT_FALSE(RelaxationPolicy::ForcedCpCall(Sys::kRead));
  EXPECT_FALSE(RelaxationPolicy::ForcedCpCall(Sys::kGettimeofday));
}

TEST(PolicyTest, FastPathSizeMatchesPaperOrder) {
  int count = 0;
  for (uint32_t i = 1; i < kNumSyscalls; ++i) {
    if (RelaxationPolicy::IpmonSupports(static_cast<Sys>(i))) {
      ++count;
    }
  }
  // The paper's prototype supports 67 calls; our syscall surface is slightly
  // different but must be in the same ballpark.
  EXPECT_GE(count, 60);
  EXPECT_LE(count, 80);
}

TEST(PolicyTest, RegistrationMaskMatchesClassification) {
  for (PolicyLevel level : {PolicyLevel::kBase, PolicyLevel::kNonsocketRw,
                            PolicyLevel::kSocketRw}) {
    RelaxationPolicy policy(level);
    std::vector<bool> mask = policy.RegistrationMask();
    for (uint32_t i = 1; i < kNumSyscalls; ++i) {
      Sys nr = static_cast<Sys>(i);
      bool expected = RelaxationPolicy::IpmonSupports(nr) &&
                      (policy.UnconditionallyExempt(nr) || policy.ConditionallyExempt(nr));
      EXPECT_EQ(mask[i], expected) << SysName(nr);
    }
  }
}

TEST(PolicyTest, LocalCallsAreResourceOps) {
  for (Sys nr : {Sys::kFutex, Sys::kMmap, Sys::kBrk, Sys::kClone, Sys::kRtSigaction,
                 Sys::kExitGroup, Sys::kNanosleep}) {
    EXPECT_TRUE(RelaxationPolicy::IsLocalCall(nr)) << SysName(nr);
  }
  for (Sys nr : {Sys::kRead, Sys::kWrite, Sys::kOpen, Sys::kAccept, Sys::kGettimeofday}) {
    EXPECT_FALSE(RelaxationPolicy::IsLocalCall(nr)) << SysName(nr);
  }
}

// --- Temporal exemption -----------------------------------------------------------

TEST(TemporalTest, RequiresWarmup) {
  Rng rng(1);
  TemporalPolicy tp;
  tp.enabled = true;
  tp.approvals_required = 4;
  tp.exempt_probability = 1.0;
  TemporalExemptionState state(tp, &rng, 1);
  EXPECT_FALSE(state.MayExempt(Sys::kWrite, 0, 0));
  for (int i = 0; i < 4; ++i) {
    state.RecordApproval(Sys::kWrite);
  }
  EXPECT_TRUE(state.MayExempt(Sys::kWrite, 0, 0));
}

TEST(TemporalTest, DisabledNeverExempts) {
  Rng rng(1);
  TemporalPolicy tp;  // enabled = false.
  TemporalExemptionState state(tp, &rng, 1);
  for (int i = 0; i < 100; ++i) {
    state.RecordApproval(Sys::kWrite);
  }
  EXPECT_FALSE(state.MayExempt(Sys::kWrite, 0, 0));
}

TEST(TemporalTest, NeverExemptsForcedCpOrUnsupported) {
  Rng rng(1);
  TemporalPolicy tp;
  tp.enabled = true;
  tp.approvals_required = 0;
  tp.exempt_probability = 1.0;
  TemporalExemptionState state(tp, &rng, 1);
  EXPECT_FALSE(state.MayExempt(Sys::kMprotect, 0, 0));  // Forced CP.
  EXPECT_FALSE(state.MayExempt(Sys::kOpen, 0, 0));      // Not replicable by IP-MON.
  EXPECT_TRUE(state.MayExempt(Sys::kWrite, 0, 0));
}

TEST(TemporalTest, DecisionsConsistentAcrossReplicas) {
  // The broker draws once per logical invocation; every replica must see the same
  // routing for invocation k or the split-monitor protocol desynchronizes.
  Rng rng(99);
  TemporalPolicy tp;
  tp.enabled = true;
  tp.approvals_required = 0;
  tp.exempt_probability = 0.5;
  TemporalExemptionState state(tp, &rng, 3);
  std::vector<bool> replica0;
  std::vector<bool> replica1;
  std::vector<bool> replica2;
  // Replicas query in skewed order (master runs ahead), decisions must still align.
  for (int k = 0; k < 50; ++k) {
    replica0.push_back(state.MayExempt(Sys::kWrite, 0, 0));
  }
  for (int k = 0; k < 50; ++k) {
    replica1.push_back(state.MayExempt(Sys::kWrite, 1, 0));
    replica2.push_back(state.MayExempt(Sys::kWrite, 2, 0));
  }
  EXPECT_EQ(replica0, replica1);
  EXPECT_EQ(replica0, replica2);
  // And the draws are genuinely probabilistic (not all equal).
  bool any_true = false;
  bool any_false = false;
  for (bool b : replica0) {
    (b ? any_true : any_false) = true;
  }
  EXPECT_TRUE(any_true);
  EXPECT_TRUE(any_false);
}

TEST(TemporalTest, DecisionsFollowEachThreadNotTheInterleaving) {
  // Two worker ranks of one replica set: replica 0's threads call in one order,
  // replica 1's in another. Each thread's k-th call must get the same routing in
  // every replica, however the threads interleave.
  Rng rng(7);
  TemporalPolicy tp;
  tp.enabled = true;
  tp.approvals_required = 0;
  tp.exempt_probability = 0.5;
  TemporalExemptionState state(tp, &rng, 2);
  std::vector<bool> r0_rank1;
  std::vector<bool> r0_rank2;
  for (int k = 0; k < 40; ++k) {
    r0_rank1.push_back(state.MayExempt(Sys::kWrite, 0, 1));
    r0_rank2.push_back(state.MayExempt(Sys::kWrite, 0, 2));
  }
  std::vector<bool> r1_rank1;
  std::vector<bool> r1_rank2;
  for (int k = 0; k < 40; ++k) {
    r1_rank2.push_back(state.MayExempt(Sys::kWrite, 1, 2));
  }
  for (int k = 0; k < 40; ++k) {
    r1_rank1.push_back(state.MayExempt(Sys::kWrite, 1, 1));
  }
  EXPECT_EQ(r0_rank1, r1_rank1);
  EXPECT_EQ(r0_rank2, r1_rank2);
}

TEST(TemporalTest, MultiWorkerServerRunsClean) {
  // nginx's workers interleave differently in each replica; a shared draw keyed
  // on anything but the calling thread routes the same logical call differently
  // and GHUMVEE reports a false mismatch.
  ServerSpec server = ServerByName("nginx");
  ClientSpec client;
  client.connections = 16;
  client.total_requests = 400;
  LinkParams link{60 * kMicrosecond, 0.125};
  for (uint64_t seed : {1, 2, 3, 9}) {
    RunConfig config;
    config.seed = seed;
    config.mode = MveeMode::kRemon;
    config.level = PolicyLevel::kSocketRo;
    config.temporal.enabled = true;
    config.temporal.exempt_probability = 0.25;
    ServerResult run = RunServerBench(server, client, config, link);
    EXPECT_FALSE(run.diverged) << "seed " << seed;
    EXPECT_EQ(run.requests, 400) << "seed " << seed;
  }
}

TEST(TemporalTest, ProbabilityZeroNeverExempts) {
  Rng rng(5);
  TemporalPolicy tp;
  tp.enabled = true;
  tp.approvals_required = 0;
  tp.exempt_probability = 0.0;
  TemporalExemptionState state(tp, &rng, 2);
  for (int k = 0; k < 100; ++k) {
    EXPECT_FALSE(state.MayExempt(Sys::kWrite, 0, 0));
  }
}

class PolicyLevelMatrixTest : public ::testing::TestWithParam<PolicyLevel> {};

TEST_P(PolicyLevelMatrixTest, MonitoredSetShrinksMonotonically) {
  PolicyLevel level = GetParam();
  if (level == PolicyLevel::kBase) {
    return;  // No predecessor.
  }
  RelaxationPolicy current(level);
  RelaxationPolicy previous(static_cast<PolicyLevel>(static_cast<uint8_t>(level) - 1));
  for (uint32_t i = 1; i < kNumSyscalls; ++i) {
    Sys nr = static_cast<Sys>(i);
    for (FdType ft : {FdType::kRegular, FdType::kPipe, FdType::kSocket, FdType::kFree}) {
      // Anything the lower level relaxes, the higher level must relax too.
      if (previous.AllowsUnmonitored(nr, ft)) {
        EXPECT_TRUE(current.AllowsUnmonitored(nr, ft))
            << SysName(nr) << " regressed at level " << PolicyLevelName(level);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, PolicyLevelMatrixTest,
                         ::testing::Values(PolicyLevel::kBase, PolicyLevel::kNonsocketRo,
                                           PolicyLevel::kNonsocketRw,
                                           PolicyLevel::kSocketRo, PolicyLevel::kSocketRw));

}  // namespace
}  // namespace remon
