#include "src/sim/cpu.h"

namespace remon {

CpuPool::RunGrant CpuPool::Acquire(uint64_t entity, TimeNs ready_at, DurationNs duration,
                                   int preferred_core) {
  REMON_CHECK(duration >= 0);
  // Pick the preferred core if reusing it does not delay the start versus the best
  // alternative; otherwise pick the earliest-free core (migration). A preferred
  // core that is already free at `ready_at` starts the entity at `ready_at`, which
  // no other core can beat, so it is granted without the scan.
  bool has_preferred = preferred_core >= 0 && preferred_core < num_cores();
  int chosen = preferred_core;
  if (!has_preferred || cores_[static_cast<size_t>(preferred_core)].free_until > ready_at) {
    int best = 0;
    TimeNs best_free = kTimeNever;
    for (size_t i = 0; i < cores_.size(); ++i) {
      if (cores_[i].free_until < best_free) {
        best_free = cores_[i].free_until;
        best = static_cast<int>(i);
      }
    }
    chosen = best;
    if (has_preferred) {
      TimeNs pref_start =
          std::max(ready_at, cores_[static_cast<size_t>(preferred_core)].free_until);
      if (pref_start <= std::max(ready_at, best_free)) {
        chosen = preferred_core;
      }
    }
  }

  Core& core = cores_[static_cast<size_t>(chosen)];
  TimeNs start = std::max(ready_at, core.free_until);
  bool switched = core.last_entity != entity;
  if (switched) {
    start += context_switch_cost_;
    ++context_switches_;
  }
  TimeNs end = start + duration;
  total_busy_ += end - std::max(ready_at, core.free_until);
  core.free_until = end;
  core.last_entity = entity;
  return RunGrant{chosen, start, end, switched};
}

}  // namespace remon
