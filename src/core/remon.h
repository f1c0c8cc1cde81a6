// ReMon front end: wires the full MVEE (and the baselines) together.
//
// One Remon instance launches N diversified replicas of a guest program and
// supervises them in one of four modes:
//
//   kNative      — a single unmonitored process (the baseline denominator).
//   kGhumveeOnly — the classic cross-process MVEE: every call monitored in lockstep
//                  (the paper's "no IP-MON" configuration).
//   kRemon       — the paper's contribution: GHUMVEE + IK-B + IP-MON with a
//                  configurable spatial/temporal relaxation policy.
//   kVaranLike   — a reliability-oriented in-process-only monitor (no lockstep, no
//                  CP isolation), the VARAN-style comparison point of Table 2.
//
// Replicas get diversified address-space layouts (ASLR + Disjoint Code Layouts).

#ifndef SRC_CORE_REMON_H_
#define SRC_CORE_REMON_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/broker.h"
#include "src/core/ghumvee.h"
#include "src/core/ipmon.h"
#include "src/core/policy.h"
#include "src/core/rb_transport.h"
#include "src/core/sync_agent.h"
#include "src/kernel/kernel.h"
#include "src/mem/layout.h"

namespace remon {

enum class MveeMode { kNative, kGhumveeOnly, kRemon, kVaranLike };

std::string_view MveeModeName(MveeMode mode);

// How a replacement replica's checkpoint is cut (Remon::ReseedBasis):
// kDelta resumes from the dead replica's ack-folded horizon when that basis is
// usable and falls back to the empty basis otherwise; kFull always cuts against
// the empty basis, shipping the whole leader state (--reseed=full, the ablation
// baseline the delta sweep compares against).
enum class ReseedMode { kDelta, kFull };

struct RemonOptions {
  MveeMode mode = MveeMode::kRemon;
  int replicas = 2;
  PolicyLevel level = PolicyLevel::kSocketRw;
  TemporalPolicy temporal;
  uint64_t rb_size = 16 * 1024 * 1024;
  int max_ranks = 16;
  uint32_t machine = 0;
  // Cross-machine replica sets: the machine each replica runs on, index-aligned
  // with the replica set. Empty = every replica on `machine`. When set, entry 0
  // must equal `machine` (the leader is always local); replicas placed on other
  // machines get a private RB mirror fed by the RB network transport
  // (src/core/rb_transport.h) instead of leader-shared frames. Requires kRemon.
  std::vector<uint32_t> replica_machines;
  // Unacked RB frames allowed per remote link before the leader's flush points
  // stall (the slow-link backpressure bound; also feeds the adaptive window).
  // Barrier/lock-dominated compute flushes tiny frames at every liveness point,
  // so this shallow default throttles a remote placement to the ack round-trip;
  // the compute-suite benches raise it and let the sync-log wrap gate (sized by
  // sync_log_size) bound the replay lag instead.
  int rb_max_inflight_frames = 8;
  // Replica re-seed: when a remote replica's link dies, checkpoint the leader
  // (src/core/snapshot.h) and attach a replacement at the post-bump epoch instead
  // of reporting divergence. The replica set survives replica loss.
  bool respawn_dead_replicas = false;
  // A replica that keeps failing its join is divergent, not unlucky: attempts
  // beyond this cap fall back to the divergence report.
  int max_respawns_per_replica = 3;
  // Respawn-budget decay: every full interval a replica stays healthy refunds one
  // spent respawn attempt. Without it the cap above is a lifetime cap, and any
  // long-running replica set eventually exhausts it on sporadic recoverable
  // deaths; with it only deaths in quick succession — a genuinely sick replica —
  // hit the cap. <= 0 restores the lifetime-cap behavior.
  DurationNs respawn_budget_decay = 10 * kMillisecond;
  // How replacement checkpoints are cut: kDelta serializes only what the dead
  // replica had not acked (O(delta), flat in RB size); kFull always ships the
  // whole leader state (O(RB size), the pre-delta behavior). --reseed=delta|full.
  ReseedMode reseed_mode = ReseedMode::kDelta;
  // Respawn-as-migration: respawn replacements onto this machine instead of the
  // machine the replica died on (-1 keeps the placement). The replacement's join
  // attestation carries the new placement. --respawn-target=N.
  int respawn_target_machine = -1;
  // Memory pressure of the workload in [0, 1] (drives the replica-contention
  // dilation of compute bursts; see CostModel).
  double mem_intensity = 0.2;
  // Enable the record/replay agent for multi-threaded workloads.
  bool use_sync_agent = false;
  // Sync-agent log segment size (64-byte header + 16-byte circular entry slots).
  // Small logs wrap: the master gates appends on the slowest replica's replay
  // cursor instead of failing.
  uint64_t sync_log_size = 1024 * 1024;
  // Slave wait strategy (ablation knob; kAuto is the paper's design).
  IpmonWaitMode wait_mode = IpmonWaitMode::kAuto;
  // Batched RB publication (ablation knob): coalesce up to this many small
  // non-blocking entries per rank — staged PRECALL commits + deferred POSTCALL
  // results — into one publication + one slave wakeup. 0 keeps the paper's
  // per-entry publication. Under kAdaptive this is the ceiling of the
  // waiter-pressure-driven window (<= 0 picks a default ceiling of 16).
  int rb_batch_max = 0;
  RbBatchPolicy rb_batch_policy = RbBatchPolicy::kFixed;
  // §4 extension: periodically migrate the RB to fresh addresses at flush points.
  bool rb_migration = false;
  // Authenticated RB transport (wire v4): seal every cross-machine frame with a
  // keyed MAC + stream encryption, require an attested join before a replacement
  // replica is seeded, and rotate session keys at every epoch bump. Local-only
  // replica sets ignore the flag (there is no wire to protect).
  bool rb_auth = false;
  // Pre-shared key material both ends derive their session keys from. The
  // simulation models distribution as out-of-band (a deployment would provision
  // it per replica-set).
  std::string rb_auth_secret = "remon-rb-transport-secret";
  // FD metadata map capacity in pages (one byte per FD, 4096 FDs per page).
  // High-connection-count shards need more than the classic single page; the
  // map is sized before launch and mapped read-only into every replica.
  int file_map_pages = 1;
};

// Gate for the VARAN-like mode: routes every system call of a registered replica to
// its in-process monitor; there is no broker, no tokens, and no CP fallback.
class VaranGate : public SyscallGate {
 public:
  VaranGate(Kernel* kernel, IpMon* mon) : kernel_(kernel), mon_(mon) {}
  bool Intercept(Thread* t) override;

 private:
  Kernel* kernel_;
  IpMon* mon_;
};

class Remon {
 public:
  Remon(Kernel* kernel, const RemonOptions& options);
  ~Remon();
  Remon(const Remon&) = delete;
  Remon& operator=(const Remon&) = delete;

  // Launches the replica set running `body`. Each replica executes the MVEE prologue
  // (sync-agent + IP-MON initialization, as configured) before the workload body.
  void Launch(ProgramFn body, const std::string& name = "app");

  // Checkpoints the leader at a quiescent flush point and attaches a replacement
  // replica for `replica_index` — a remote replica whose link died — at the
  // current (post-bump) stream epoch: fresh agent on a generation-distinct port,
  // snapshot frames leading the new connection's stream. Returns false when there
  // is nothing to replace (not remote, link still live, MVEE shutting down).
  // Invoked automatically on remote death under respawn_dead_replicas.
  // `target_machine` >= 0 places the replacement there instead of the machine the
  // replica ran on (respawn-as-migration): a still-live link is retired quietly
  // first (no death event, no respawn-budget charge), and the join attestation
  // must present the new placement. -1 keeps the current placement.
  bool SpawnReplacement(int replica_index, int target_machine = -1);
  // The basis `replica_index`'s replacement checkpoint is cut against: the
  // transport's ack-folded basis when reseed_mode allows and the basis is usable
  // (same RB reset generation), else the empty basis. Counts the decision in
  // rb_snapshot_delta_captures / rb_snapshot_full_fallbacks. Exposed so tests
  // and benches can exercise the decision directly.
  RbDeltaBasis ReseedBasis(int replica_index);
  // Replacement attempts launched so far (joins completed are per-agent: see
  // RemoteSyncAgent::joins()).
  uint64_t respawns() const { return respawns_; }
  // Respawn attempts currently charged against the replica, after budget decay.
  int respawn_attempts(int replica_index) const {
    return replica_index >= 0 &&
                   replica_index < static_cast<int>(respawn_attempts_.size())
               ? respawn_attempts_[static_cast<size_t>(replica_index)]
               : 0;
  }

  const RemonOptions& options() const { return options_; }
  Ghumvee* ghumvee() const { return ghumvee_.get(); }
  IkBroker* broker() const { return broker_.get(); }
  IpMon* ipmon(int replica_index) const {
    return replica_index < static_cast<int>(ipmons_.size())
               ? ipmons_[static_cast<size_t>(replica_index)].get()
               : nullptr;
  }
  SyncAgent* sync_agent(int replica_index) const {
    return replica_index < static_cast<int>(agents_.size())
               ? agents_[static_cast<size_t>(replica_index)].get()
               : nullptr;
  }
  // Cross-machine plumbing (null / nullptr for all-local replica sets).
  RbTransport* transport() const { return transport_.get(); }
  RemoteSyncAgent* remote_agent(int replica_index) const {
    return replica_index < static_cast<int>(remote_agents_.size())
               ? remote_agents_[static_cast<size_t>(replica_index)].get()
               : nullptr;
  }
  Process* master() const { return replicas_.empty() ? nullptr : replicas_[0]; }
  const std::vector<Process*>& replicas() const { return replicas_; }

  bool divergence_detected() const {
    return ghumvee_ != nullptr && ghumvee_->divergence_detected();
  }
  // True when every replica has exited (normally or via shutdown).
  bool finished() const;

 private:
  Kernel* kernel_;
  RemonOptions options_;
  Rng layout_rng_;
  LayoutPlanner planner_;
  std::unique_ptr<Ghumvee> ghumvee_;
  std::unique_ptr<IkBroker> broker_;
  std::unique_ptr<TemporalExemptionState> temporal_;
  std::unique_ptr<FileMap> varan_file_map_;
  std::vector<std::unique_ptr<IpMon>> ipmons_;
  std::vector<std::unique_ptr<SyncAgent>> agents_;
  std::vector<std::unique_ptr<VaranGate>> varan_gates_;
  std::vector<Process*> replicas_;
  // Cross-machine replica sets: the leader-side frame pump and the per-replica
  // remote agents (slots for local replicas stay null). Declared after ipmons_ so
  // they are destroyed first — agents hold raw IpMon pointers.
  // Authenticated transport (rb_auth): shared key schedule + the config digest
  // every attested join must present. Transport and agents hold non-owning
  // pointers; declared before them so it outlives their destruction.
  std::unique_ptr<RbAuthContext> auth_;
  uint64_t config_digest_ = 0;
  std::unique_ptr<RbTransport> transport_;
  std::vector<std::unique_ptr<RemoteSyncAgent>> remote_agents_;
  // Replica re-seed bookkeeping: per-replica respawn attempts (capped), the join
  // generation (distinct agent ports), and scheduled-but-unfired respawn events
  // (cancelled at destruction so a torn-down MVEE cannot be called back).
  std::vector<int> respawn_attempts_;
  std::vector<int> join_generation_;
  std::vector<EventQueue::EventId> pending_respawns_;
  // When each replica last charged a respawn attempt — the decay anchor that
  // turns max_respawns_per_replica from a lifetime cap into a rate cap.
  std::vector<TimeNs> last_respawn_ns_;
  uint64_t respawns_ = 0;

  // Refunds respawn attempts earned by healthy time since the last charge
  // (respawn_budget_decay per attempt). Called before every cap check.
  void DecayRespawnBudget(int replica_index);
  // Serializes a leader checkpoint against `basis` for a replacement whose sync
  // replay resumes at `sync_read_cursor`.
  SnapshotPayloads CutCheckpoint(uint64_t sync_read_cursor, const RbDeltaBasis& basis);
};

}  // namespace remon

#endif  // SRC_CORE_REMON_H_
