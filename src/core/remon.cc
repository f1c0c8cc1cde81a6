#include "src/core/remon.h"

#include <algorithm>

#include "src/core/snapshot.h"
#include "src/kernel/syscall_meta.h"
#include "src/sim/check.h"

namespace remon {

namespace {

// Death-to-replacement delay (models provisioning the replacement instance).
// Must stay well under GHUMVEE's lockstep watchdog: peers parked at a monitored
// barrier wait for the rejoiner, and the watchdog outlasting the respawn is what
// makes recovery invisible to them.
constexpr DurationNs kRespawnDelay = 200 * kMicrosecond;

}  // namespace

std::string_view MveeModeName(MveeMode mode) {
  switch (mode) {
    case MveeMode::kNative: return "native";
    case MveeMode::kGhumveeOnly: return "ghumvee";
    case MveeMode::kRemon: return "remon";
    case MveeMode::kVaranLike: return "varan-like";
  }
  return "?";
}

bool VaranGate::Intercept(Thread* t) {
  if (!t->process()->ipmon.registered) {
    return false;  // Initialization prologue runs down the default path.
  }
  SyscallRequest req = t->cur_req;
  kernel_->RunOnThreadCore(t, kernel_->sim()->costs().ikb_route_ns, [this, t, req] {
    if (!t->alive()) {
      return;
    }
    kernel_->StartAuxCoroutine(
        t, mon_->HandleCall(t, req, /*token=*/0, /*temporal_exempt=*/false), nullptr);
  });
  return true;
}

Remon::Remon(Kernel* kernel, const RemonOptions& options)
    : kernel_(kernel),
      options_(options),
      layout_rng_(kernel->sim()->rng().Fork()),
      planner_(&layout_rng_) {
  REMON_CHECK(options_.replicas >= 1);
}

// The park hooks installed on replica processes capture the IpMon instances owned
// here; like Process::gate, they follow the convention that the monitor outlives
// the kernel's last event for its replicas (they die with the Process objects).
// Unfired respawn events capture `this` and must not outlive it.
Remon::~Remon() {
  for (EventQueue::EventId id : pending_respawns_) {
    kernel_->sim()->queue().Cancel(id);
  }
}

bool Remon::finished() const {
  for (const Process* p : replicas_) {
    if (!p->exited) {
      return false;
    }
  }
  return !replicas_.empty();
}

void Remon::Launch(ProgramFn body, const std::string& name) {
  REMON_CHECK(replicas_.empty());
  int n = options_.mode == MveeMode::kNative ? 1 : options_.replicas;
  kernel_->set_active_replicas(n);

  // Cross-machine placement: validate before any process exists.
  auto machine_for = [this](int i) {
    return options_.replica_machines.empty()
               ? options_.machine
               : options_.replica_machines[static_cast<size_t>(i)];
  };
  bool any_remote = false;
  if (!options_.replica_machines.empty() && options_.mode != MveeMode::kNative) {
    REMON_CHECK_MSG(static_cast<int>(options_.replica_machines.size()) == n,
                    "replica_machines must carry one entry per replica");
    REMON_CHECK_MSG(options_.replica_machines[0] == options_.machine,
                    "replica 0 (the leader) must run on RemonOptions::machine");
    for (int i = 0; i < n; ++i) {
      REMON_CHECK_MSG(machine_for(i) < kernel_->net()->machine_count(),
                      "replica placed on a machine the network does not know");
      any_remote |= machine_for(i) != options_.machine;
    }
  }
  if (any_remote) {
    REMON_CHECK_MSG(options_.mode == MveeMode::kRemon,
                    "cross-machine placement needs the RB transport (mode=remon)");
  }

  RelaxationPolicy policy(options_.level, options_.temporal);

  if (options_.mode == MveeMode::kGhumveeOnly || options_.mode == MveeMode::kRemon) {
    ghumvee_ = std::make_unique<Ghumvee>(kernel_);
    ghumvee_->set_rb_migration(options_.rb_migration);
  }
  if (options_.mode == MveeMode::kRemon) {
    broker_ = std::make_unique<IkBroker>(kernel_, policy);
    if (options_.temporal.enabled) {
      temporal_ = std::make_unique<TemporalExemptionState>(options_.temporal,
                                                           &kernel_->sim()->rng(), n);
      broker_->set_temporal(temporal_.get());
      ghumvee_->set_temporal(temporal_.get());
    }
  }
  if (options_.mode == MveeMode::kVaranLike) {
    varan_file_map_ = std::make_unique<FileMap>();
  }
  // Size the FD metadata map before any replica maps it (swarm-scale shards
  // outgrow the classic single page); tag drop warnings with the set's name.
  if (ghumvee_ != nullptr) {
    ghumvee_->file_map()->Configure(options_.file_map_pages, name);
  } else if (varan_file_map_ != nullptr) {
    varan_file_map_->Configure(options_.file_map_pages, name);
  }
  // Live growth: a workload that outgrows the configured map grows it instead of
  // silently dropping FD metadata past the boundary. Every replica re-publishes
  // the new geometry through the same fresh-range remap path RB migration uses,
  // so the larger map is visible at the next monitored call.
  if (FileMap* live_map = ghumvee_ != nullptr ? ghumvee_->file_map()
                                              : varan_file_map_.get()) {
    live_map->set_auto_grow(true);
    live_map->set_on_grow([this](int) {
      ++kernel_->stats().file_map_grows;
      for (auto& m : ipmons_) {
        m->RemapFileMap();
      }
    });
  }

  // Shared body anchor: every replica's prologue wrapper references the same callable.
  auto shared_body = std::make_shared<ProgramFn>(std::move(body));

  for (int i = 0; i < n; ++i) {
    LayoutPlan plan = planner_.PlanFor(i);
    Process* p = kernel_->CreateProcess(name + "-r" + std::to_string(i), machine_for(i),
                                        plan);
    p->replica_index = options_.mode == MveeMode::kNative ? -1 : i;
    p->mem_intensity = options_.mem_intensity;
    // A multi-page file map signals a high-connection-count workload: raise the
    // FD table to match, so the map's extra pages are actually reachable.
    if (options_.file_map_pages > 1) {
      p->fds().RaiseMaxFds(options_.file_map_pages * static_cast<int>(kPageSize));
    }
    // The IP-MON "shared library" text region (hidden from /proc/maps by GHUMVEE).
    if (options_.mode == MveeMode::kRemon || options_.mode == MveeMode::kVaranLike) {
      REMON_CHECK(p->mem().MapFixedLazy(plan.ipmon_base, plan.ipmon_size,
                                        kProtRead | kProtExec, "libipmon"));
    }
    replicas_.push_back(p);

    if (ghumvee_ != nullptr) {
      ghumvee_->AddReplica(p);
    }

    if (options_.mode == MveeMode::kRemon || options_.mode == MveeMode::kVaranLike) {
      IpMon::Config cfg;
      cfg.replica_index = i;
      cfg.num_replicas = n;
      cfg.rb_size = options_.rb_size;
      cfg.max_ranks = options_.max_ranks;
      cfg.mode =
          options_.mode == MveeMode::kVaranLike ? IpmonMode::kVaranLike : IpmonMode::kRemon;
      cfg.wait_mode = options_.wait_mode;
      cfg.rb_batch_max = options_.rb_batch_max;
      cfg.rb_batch_policy = options_.rb_batch_policy;
      FileMap* fm = options_.mode == MveeMode::kRemon ? ghumvee_->file_map()
                                                      : varan_file_map_.get();
      ipmons_.push_back(
          std::make_unique<IpMon>(kernel_, broker_.get(), policy, fm, cfg));
      if (options_.mode == MveeMode::kRemon) {
        ghumvee_->AttachIpmon(i, ipmons_.back().get());
        broker_->AttachReplica(p, ipmons_.back().get());
      } else {
        varan_gates_.push_back(
            std::make_unique<VaranGate>(kernel_, ipmons_.back().get()));
        p->gate = varan_gates_.back().get();
      }
    }

    if (options_.use_sync_agent && options_.mode != MveeMode::kNative) {
      SyncAgent::Config scfg;
      scfg.replica_index = i;
      scfg.num_replicas = n;
      scfg.log_size = options_.sync_log_size;
      agents_.push_back(std::make_unique<SyncAgent>(kernel_, scfg));
    }
  }

  // Set peer lists (IP-MONs need to know the replica set for barriers; sync
  // agents gate circular-log wraparound on the slowest peer's replay cursor).
  std::vector<IpMon*> peer_ptrs;
  for (auto& m : ipmons_) {
    peer_ptrs.push_back(m.get());
  }
  for (auto& m : ipmons_) {
    m->set_peers(peer_ptrs);
  }
  std::vector<SyncAgent*> agent_ptrs;
  for (auto& a : agents_) {
    agent_ptrs.push_back(a.get());
  }
  for (auto& a : agents_) {
    a->set_peers(agent_ptrs);
  }

  // Cross-machine replica sets: one RemoteSyncAgent per remote replica (listening
  // on that machine), one leader-side RbTransport pumping frames to all of them.
  if (any_remote) {
    // Authenticated wire (v4): one key schedule shared by the leader-side
    // transport and every remote agent, plus the config digest an attested join
    // must present — RB geometry, sync-log geometry, and the syscall descriptor
    // registry a well-formed peer would be built from.
    if (options_.rb_auth) {
      auth_ = std::make_unique<RbAuthContext>(options_.rb_auth_secret);
      config_digest_ = RbConfigDigest(
          options_.rb_size, static_cast<uint32_t>(options_.max_ranks),
          options_.use_sync_agent ? options_.sync_log_size : 0,
          DescriptorRegistryDigest());
    }
    RbTransport::Options topts;
    topts.max_inflight_frames = options_.rb_max_inflight_frames;
    topts.auth = auth_.get();
    topts.config_digest = config_digest_;
    transport_ = std::make_unique<RbTransport>(kernel_, options_.machine, topts);
    remote_agents_.resize(static_cast<size_t>(n));
    for (int i = 1; i < n; ++i) {
      if (machine_for(i) == options_.machine) {
        continue;
      }
      uint16_t port = static_cast<uint16_t>(kRbTransportPortBase + i);
      IpMon* mon = ipmons_[static_cast<size_t>(i)].get();
      auto agent =
          std::make_unique<RemoteSyncAgent>(kernel_, mon, machine_for(i), port);
      if (auth_ != nullptr) {
        agent->set_auth(auth_.get(), config_digest_);
      }
      agent->Start();  // Listener up before the transport's SYN can arrive.
      mon->set_rb_private_mirror(true);
      if (sync_agent(i) != nullptr) {
        agent->set_sync_agent(sync_agent(i));  // kSyncLog replays into its mirror.
        // The replay cursor travels back piggybacked on acks; a cursor advance a
        // wrapped master could be parked on additionally triggers a dedicated
        // cursor-bearing ack so the gate never waits for unrelated data traffic.
        RemoteSyncAgent* cursor_agent = agent.get();
        sync_agent(i)->set_on_consumed(
            [cursor_agent] { cursor_agent->SendCursorUpdate(); });
      }
      RemoteSyncAgent* agent_ptr = agent.get();
      mon->set_on_initialized([agent_ptr] { agent_ptr->OnReplicaRbReady(); });
      transport_->AddRemote(i, machine_for(i), port);
      remote_agents_[static_cast<size_t>(i)] = std::move(agent);
    }
    ipmons_[0]->set_transport(transport_.get());
    // Leader clock for the ack-horizon fold: every kEntries frame is stamped with
    // the leader's reset generation and file-map/epoll version counters at send
    // time, so a remote's acked horizon doubles as a delta-capture basis.
    IpMon* clock_mon = ipmons_[0].get();
    transport_->set_leader_clock([clock_mon] {
      return RbLeaderClock{clock_mon->rb_resets(), clock_mon->file_map()->version(),
                           clock_mon->epoll_shadow().version()};
    });
    if (!agents_.empty()) {
      // Master sync agent streams its appends over the transport; the coalescing
      // window borrows the master IP-MON's (adaptive) batch window, and IP-MON's
      // flush points + park hook bound how long a record can sit unstreamed.
      SyncAgent* master_agent = agents_[0].get();
      IpMon* master_mon = ipmons_[0].get();
      master_agent->set_transport(transport_.get());
      master_agent->set_coalesce_window(
          [master_mon](int rank) { return master_mon->SyncCoalesceWindow(rank); });
      master_mon->set_sync_log_flush([master_agent] { master_agent->FlushLogStream(); });
      // Wrap gate wakeups: a remote cursor advance arrives as an ack, not a
      // host-side read, so the transport pokes the parked master explicitly.
      transport_->set_on_sync_cursor(
          [master_agent](int) { master_agent->OnRemoteCursorAck(); });
      // Append-time transport stalls feed the same AIMD the flush-point stalls
      // do: a saturated link grows the coalescing window instead of letting the
      // pending stream grow without bound.
      master_agent->set_on_backpressure(
          [master_mon](int rank) { master_mon->ObserveTransportBackpressure(rank); });
    }
    respawn_attempts_.assign(static_cast<size_t>(n), 0);
    join_generation_.assign(static_cast<size_t>(n), 0);
    last_respawn_ns_.assign(static_cast<size_t>(n), 0);
    // A torn link ends the run with a divergence report — never a hang. Under
    // respawn_dead_replicas it instead schedules a replacement join (capped per
    // replica: a join that keeps failing *is* divergence). A link that dies during
    // the normal end-of-run teardown is not an event either way.
    transport_->set_on_remote_death([this](int idx) {
      if (ghumvee_ == nullptr || ghumvee_->shutdown_requested() || finished()) {
        return;
      }
      bool budget_ok = false;
      if (options_.respawn_dead_replicas && idx >= 0 &&
          static_cast<size_t>(idx) < respawn_attempts_.size()) {
        // Healthy time since the last charge refunds attempts first: the cap is a
        // rate limit on deaths in quick succession, not a lifetime budget.
        DecayRespawnBudget(idx);
        budget_ok = respawn_attempts_[static_cast<size_t>(idx)] <
                    options_.max_respawns_per_replica;
      }
      if (budget_ok) {
        ++respawn_attempts_[static_cast<size_t>(idx)];
        last_respawn_ns_[static_cast<size_t>(idx)] = kernel_->sim()->queue().now();
        // The event unregisters itself when it fires: ~Remon may only Cancel ids
        // that never ran (EventQueue trusts callers on that).
        auto id_cell = std::make_shared<EventQueue::EventId>(0);
        *id_cell = kernel_->sim()->queue().ScheduleAfter(
            kRespawnDelay, [this, idx, id_cell] {
              pending_respawns_.erase(std::remove(pending_respawns_.begin(),
                                                  pending_respawns_.end(), *id_cell),
                                      pending_respawns_.end());
              if (ghumvee_ == nullptr || ghumvee_->shutdown_requested() ||
                  finished()) {
                return;
              }
              // Respawn-as-migration policy: replacements optionally land on a
              // configured target machine instead of the one the replica died on.
              SpawnReplacement(idx, options_.respawn_target_machine);
            });
        pending_respawns_.push_back(*id_cell);
        return;
      }
      ghumvee_->Divergence(/*rank=*/-1, Sys::kInvalid,
                           "remote replica " + std::to_string(idx) +
                               " link down (stream epoch bumped)");
    });
    // Attested join (rb_auth): the leader checkpoints *after* the replacement
    // proved its identity + config digest, never before. The callback fires from
    // inside the transport's Pump; defer the (heavy) checkpoint one event so the
    // capture runs outside the frame-processing path. Uses the same cancellable
    // id_cell bookkeeping as the respawn events.
    transport_->set_on_attested_join([this](int idx, uint64_t attest_cursor) {
      auto id_cell = std::make_shared<EventQueue::EventId>(0);
      *id_cell = kernel_->sim()->queue().ScheduleAfter(
          0, [this, idx, attest_cursor, id_cell] {
            pending_respawns_.erase(std::remove(pending_respawns_.begin(),
                                                pending_respawns_.end(), *id_cell),
                                    pending_respawns_.end());
            if (ghumvee_ == nullptr || ghumvee_->shutdown_requested() || finished()) {
              return;
            }
            // The attested cursor is the peer's word, checked here at the point of
            // use: the checkpoint can only resume a replay cursor inside the
            // leader's occupied log lap. A claim outside it refuses the join.
            const SyncAgent* sync_master = sync_agent(0);
            if (sync_master != nullptr && sync_master->log_valid() &&
                !sync_master->CursorInLap(attest_cursor)) {
              transport_->RefuseAttestedJoin(
                  idx, "join attestation refused (sync cursor outside the log lap)");
              return;
            }
            RbDeltaBasis basis = ReseedBasis(idx);
            transport_->EnqueueSnapshot(idx, CutCheckpoint(attest_cursor, basis),
                                        basis.valid);
          });
      pending_respawns_.push_back(*id_cell);
    });
    if (ghumvee_ != nullptr) {
      // Reset/re-seed interlock: the RB flush round parks while a replacement
      // checkpoint is in flight, so a reset can never rebase the offsets an
      // in-flight image was cut against (it would doom the join on apply).
      ghumvee_->set_rb_flush_gate(
          [this] { return transport_ != nullptr && transport_->SnapshotInflight(); });
    }
  }

  // Spawn each replica's main thread: MVEE prologue, then the workload body.
  for (int i = 0; i < n; ++i) {
    IpMon* mon = ipmon(i);
    SyncAgent* agent = sync_agent(i);
    ProgramFn wrapped = [shared_body, mon, agent](Guest& g) -> GuestTask<void> {
      if (agent != nullptr) {
        co_await agent->Initialize(g);
      }
      if (mon != nullptr) {
        co_await mon->Initialize(g);
      }
      co_await (*shared_body)(g);
    };
    kernel_->SpawnThread(replicas_[static_cast<size_t>(i)], std::move(wrapped));
  }

  if (ghumvee_ != nullptr) {
    ghumvee_->Start();
  }
}

bool Remon::SpawnReplacement(int replica_index, int target_machine) {
  if (transport_ == nullptr || ghumvee_ == nullptr || ghumvee_->shutdown_requested() ||
      finished()) {
    return false;
  }
  if (replica_index <= 0 ||
      static_cast<size_t>(replica_index) >= remote_agents_.size() ||
      remote_agents_[static_cast<size_t>(replica_index)] == nullptr) {
    return false;  // Never a remote replica: nothing to re-seed.
  }
  IpMon* mon = ipmons_[static_cast<size_t>(replica_index)].get();
  uint32_t machine = options_.replica_machines[static_cast<size_t>(replica_index)];
  if (target_machine >= 0) {
    uint32_t target = static_cast<uint32_t>(target_machine);
    if (target == options_.machine ||
        target >= kernel_->net()->machine_count()) {
      return false;  // The leader's machine (and unknown ones) can't host a mirror.
    }
    machine = target;
  }
  // Respawn-as-migration: a still-live link is retired quietly — no death event,
  // no respawn-budget charge — before the replacement is placed. The delta basis
  // survives the detach, so a migrated replacement still re-seeds in O(delta).
  if (!transport_->RemoteLinkDead(replica_index)) {
    transport_->DetachForMigration(replica_index);
  }
  if (machine != options_.replica_machines[static_cast<size_t>(replica_index)]) {
    options_.replica_machines[static_cast<size_t>(replica_index)] = machine;
    ++kernel_->stats().rb_replica_migrations;
  }

  // Generation-distinct port: a half-dead predecessor agent can never shadow the
  // replacement's listener, and the leader's SYN cannot land on a stale socket.
  int generation = ++join_generation_[static_cast<size_t>(replica_index)];
  uint16_t port = static_cast<uint16_t>(kRbTransportPortBase + replica_index +
                                        512 * generation);
  remote_agents_[static_cast<size_t>(replica_index)]->Shutdown();
  auto agent = std::make_unique<RemoteSyncAgent>(kernel_, mon, machine, port);
  if (auth_ != nullptr) {
    agent->set_auth(auth_.get(), config_digest_);
  }
  agent->Start();  // Listener up before the transport's SYN can arrive.
  if (sync_agent(replica_index) != nullptr) {
    agent->set_sync_agent(sync_agent(replica_index));
    // Re-point the cursor-update channel at the replacement agent; the old
    // agent is shut down and must never carry another ack.
    RemoteSyncAgent* cursor_agent = agent.get();
    sync_agent(replica_index)
        ->set_on_consumed([cursor_agent] { cursor_agent->SendCursorUpdate(); });
  }

  if (auth_ != nullptr) {
    // Authenticated join: the leader holds the checkpoint until the replacement
    // presents a valid attestation (identity + config digest) as the first frame
    // on the new connection. The snapshot is captured by the on_attested_join
    // deferral, against the cursor the attestation itself carries.
    transport_->AddReplacementAwaitingAttest(replica_index, machine, port);
  } else {
    // Checkpoint and enqueue within one event: no publication can slip between
    // the captured image and the first data frame behind it on the new
    // connection. The capture's quiescent flush also drains the sync-log stream,
    // so the checkpoint's sync image ends exactly where the first post-snapshot
    // kSyncLog frame begins.
    SyncAgent* replica_agent = sync_agent(replica_index);
    RbDeltaBasis basis = ReseedBasis(replica_index);
    transport_->AddReplacement(
        replica_index, machine, port,
        CutCheckpoint(replica_agent != nullptr ? replica_agent->read_cursor() : 0, basis),
        basis.valid);
  }
  remote_agents_[static_cast<size_t>(replica_index)] = std::move(agent);
  ++respawns_;
  return true;
}

RbDeltaBasis Remon::ReseedBasis(int replica_index) {
  // The empty basis (--reseed=full, and the fallback) ships the whole leader
  // state; a usable acked horizon ships only what the replacement lacks. Usable
  // means it still describes the leader's current RB: a reset in between rebased
  // every offset. The sync log needs no check of its own: the replay cursor is
  // in the occupied lap (the wrap gate froze the dead replica's cursor, and an
  // attested one was checked), so the slice past it always fits one lap.
  if (options_.reseed_mode != ReseedMode::kDelta || transport_ == nullptr) {
    return RbDeltaBasis{};
  }
  RbDeltaBasis basis = transport_->DeltaBasisFor(replica_index);
  if (!basis.valid || basis.reset_generation != ipmons_[0]->rb_resets()) {
    ++kernel_->stats().rb_snapshot_full_fallbacks;
    return RbDeltaBasis{};
  }
  ++kernel_->stats().rb_snapshot_delta_captures;
  return basis;
}

SnapshotPayloads Remon::CutCheckpoint(uint64_t sync_read_cursor,
                                      const RbDeltaBasis& basis) {
  return SerializeSnapshot(CaptureLeaderSnapshot(ipmons_[0].get(), ghumvee_.get(),
                                                 sync_agent(0), sync_read_cursor, basis));
}

void Remon::DecayRespawnBudget(int replica_index) {
  int& attempts = respawn_attempts_[static_cast<size_t>(replica_index)];
  if (options_.respawn_budget_decay <= 0 || attempts <= 0) {
    return;
  }
  TimeNs& anchor = last_respawn_ns_[static_cast<size_t>(replica_index)];
  int64_t refunds = static_cast<int64_t>(
      (kernel_->sim()->queue().now() - anchor) / options_.respawn_budget_decay);
  if (refunds <= 0) {
    return;
  }
  int refunded = refunds < attempts ? static_cast<int>(refunds) : attempts;
  attempts -= refunded;
  // Advance the anchor by whole intervals only: partial healthy time keeps
  // accruing toward the next refund instead of being forfeited.
  anchor += static_cast<TimeNs>(refunded) * options_.respawn_budget_decay;
}

}  // namespace remon
