// Spans, the timed/sliced run loop, percentiles and the SimStats -> layer map.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

int Tracer::Begin(const std::string& name, int parent, TimeNs virt) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.name = name;
  s.host_start = HostNow() - origin_;
  s.virt_start = virt;
  spans_.push_back(s);
  return s.id;
}

void Tracer::End(int id, TimeNs virt) {
  Span& s = span(id);
  s.host_end = HostNow() - origin_;
  s.virt_end = virt;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                 "\"host_start_s\": %.9f, \"host_end_s\": %.9f, "
                 "\"virt_start_ns\": %lld, \"virt_end_ns\": %lld, "
                 "\"syscalls\": %llu, \"events\": %llu, \"frames\": %llu, "
                 "\"snapshot_bytes\": %llu}%s\n",
                 s.id, s.parent, s.name.c_str(), s.host_start, s.host_end,
                 static_cast<long long>(s.virt_start),
                 static_cast<long long>(s.virt_end),
                 static_cast<unsigned long long>(s.syscalls),
                 static_cast<unsigned long long>(s.events),
                 static_cast<unsigned long long>(s.frames),
                 static_cast<unsigned long long>(s.snapshot_bytes),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void TimedRun(World* w, Tracer* tracer, int parent, const std::string& label,
              DurationNs slice, RunTotals* totals) {
  remon::Simulator& sim = w->sim;
  const remon::SimStats& st = sim.stats();
  uint64_t events0 = sim.queue().executed_count();
  uint64_t syscalls0 = st.syscalls_total;
  int run_span = tracer != nullptr ? tracer->Begin(label, parent, sim.now()) : -1;
  auto reference = [&] {
    int span = tracer != nullptr ? tracer->Begin("calib.reference", run_span) : -1;
    double s = ReferenceKernelSeconds();
    totals->reference_s.push_back(s);
    if (tracer != nullptr) {
      tracer->End(span);
    }
    return s;
  };
  // The run goes in chunks of kChunkEvents events, each between two runs of the
  // reference kernel, and each chunk's CPU time is scaled by the mean of those
  // two. Chunks end on an event count, so where they end is deterministic too.
  // Slicing is invisible to the model: RunUntil stops before the first event
  // past the deadline without moving the clock, so the next slice resumes
  // exactly where this one stopped.
  TimeNs boundary = sim.now();
  double before = reference();
  while (!sim.queue().empty()) {
    uint64_t chunk0 = sim.queue().executed_count();
    double chunk_c0 = CpuNow();
    while (!sim.queue().empty() && sim.queue().executed_count() - chunk0 < kChunkEvents) {
      boundary += slice;
      if (tracer == nullptr) {
        sim.Run(boundary);
        continue;
      }
      // Traced: one span per slice. The host time charged is the whole slicing
      // loop, bookkeeping included — that difference against an untraced rep
      // is the tracing overhead.
      uint64_t e0 = sim.queue().executed_count();
      uint64_t s0 = st.syscalls_total;
      uint64_t f0 = st.rb_frames_sent;
      uint64_t b0 = st.rb_snapshot_bytes_sent;
      TimeNs v0 = sim.now();
      double h0 = HostNow();
      double c0 = CpuNow();
      sim.Run(boundary);
      double c1 = CpuNow();
      double h1 = HostNow();
      uint64_t events = sim.queue().executed_count() - e0;
      if (events == 0) {
        continue;  // An idle stretch of virtual time: nothing ran, no span.
      }
      int id = tracer->Begin("slice", run_span, v0);
      Span& s = tracer->span(id);
      s.host_end = s.host_start;
      s.host_start -= h1 - h0;
      s.virt_end = sim.now();
      s.syscalls = st.syscalls_total - s0;
      s.events = events;
      s.frames = st.rb_frames_sent - f0;
      s.snapshot_bytes = st.rb_snapshot_bytes_sent - b0;
      if (s.snapshot_bytes > 0) {
        totals->reseed_host_s += c1 - c0;
        totals->reseed_events += events;
      }
    }
    double chunk = CpuNow() - chunk_c0;
    double after = reference();
    totals->host_s += chunk;
    totals->scaled_host_s += chunk * kReferenceNominalS / ((before + after) / 2);
    before = after;
  }
  if (tracer != nullptr) {
    tracer->End(run_span, sim.now());
    Span& rs = tracer->span(run_span);
    rs.syscalls = st.syscalls_total - syscalls0;
    rs.events = sim.queue().executed_count() - events0;
  }
  totals->events += sim.queue().executed_count() - events0;
  totals->syscalls += st.syscalls_total - syscalls0;
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return xs[rank - 1];
}

double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

namespace {

volatile uint64_t g_reference_sink = 0;

}  // namespace

double ReferenceKernelSeconds() {
  constexpr int kSteps = 100000;
  constexpr size_t kArenaBytes = size_t{256} << 10;
  constexpr size_t kCopyBytes = 512;
  struct Event {
    uint64_t at;
    uint32_t id;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  double t0 = CpuNow();
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_map<uint64_t, uint64_t> table;
  table.reserve(size_t{1} << 12);
  std::vector<uint8_t> arena(kArenaBytes, 1);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint32_t i = 0; i < 1024; ++i) {
    queue.push({next() & 0xffff, i});
  }
  uint64_t sum = 0;
  for (int i = 0; i < kSteps; ++i) {
    Event e = queue.top();
    queue.pop();
    uint64_t r = next();
    table[r & 0xfff] += e.at;
    size_t from = (r >> 16) % (kArenaBytes - kCopyBytes);
    size_t to = (r >> 40) % (kArenaBytes - kCopyBytes);
    std::memcpy(&arena[to], &arena[from], kCopyBytes);
    if ((r & 7) == 0) {
      std::vector<uint8_t> scratch((r >> 8) & 1023, 1);
      sum += scratch.size();
    }
    queue.push({e.at + (r & 0xfff) + 1, e.id});
    sum += arena[from];
  }
  g_reference_sink = sum + table.size();
  return CpuNow() - t0;
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void Add(RepResult* r, const char* name, double value, const char* unit,
         uint64_t samples = 0) {
  r->layers.push_back(Metric{name, value, unit, samples});
}

}  // namespace

void AddStatsLayers(const remon::SimStats& s, const remon::CpuPool& cpus,
                    TimeNs virt_elapsed, RepResult* r) {
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  Add(r, "sim.cpu_util",
      Ratio(d(static_cast<uint64_t>(cpus.total_busy())),
            static_cast<double>(cpus.num_cores()) * static_cast<double>(virt_elapsed)),
      "share");
  Add(r, "sim.context_switches", d(cpus.context_switches()), "count");
  Add(r, "kernel.futex_waits", d(s.futex_waits), "count");
  Add(r, "ikb.tokens_issued", d(s.tokens_issued), "count");
  Add(r, "ikb.fast_path_share",
      Ratio(d(s.ikb_forward_ipmon), d(s.ikb_forward_ipmon + s.ikb_forward_ghumvee)),
      "share", s.ikb_forward_ipmon + s.ikb_forward_ghumvee);
  Add(r, "ipmon.unmonitored", d(s.syscalls_unmonitored), "count");
  Add(r, "ipmon.mastercalls", d(s.syscalls_mastercall), "count");
  Add(r, "rb.entries", d(s.rb_entries), "count");
  Add(r, "rb.bytes", d(s.rb_bytes), "bytes");
  Add(r, "rb.resets", d(s.rb_resets), "count");
  Add(r, "rb.spin_waits", d(s.rb_spin_waits), "count");
  Add(r, "rb.futex_waits", d(s.rb_futex_waits), "count");
  Add(r, "rb.futex_wakes_elided", d(s.rb_futex_wakes_elided), "count");
  // Per-entry publication (the default, rb_batch_max = 0) flushes every entry
  // on its own: one entry per flush.
  Add(r, "rb.entries_per_flush",
      s.rb_batch_flushes > 0 ? Ratio(d(s.rb_entries), d(s.rb_batch_flushes))
                             : (s.rb_entries > 0 ? 1.0 : 0.0),
      "ratio", s.rb_batch_flushes);
  Add(r, "ghumvee.monitored", d(s.syscalls_monitored), "count");
  Add(r, "ghumvee.ptrace_stops", d(s.ptrace_stops), "count");
  Add(r, "ghumvee.vm_copy_bytes", d(s.vm_copy_bytes), "bytes");
  Add(r, "transport.frames", d(s.rb_frames_sent), "count");
  Add(r, "transport.bytes", d(s.rb_frame_bytes_sent), "bytes");
  Add(r, "transport.stalls_per_frame",
      Ratio(d(s.rb_transport_stalls), d(s.rb_frames_sent)), "ratio", s.rb_frames_sent);
  Add(r, "auth.frames_sealed", d(s.rb_auth_frames_sealed), "count");
  Add(r, "snapshot.joins", d(s.rb_replica_joins), "count");
  Add(r, "snapshot.join_share", Ratio(d(s.rb_replica_joins), d(s.rb_replica_respawns)),
      "share", s.rb_replica_respawns);
  Add(r, "snapshot.kib_per_join",
      Ratio(d(s.rb_snapshot_bytes_sent) / 1024.0, d(s.rb_replica_joins)), "KiB",
      s.rb_replica_joins);
  Add(r, "snapshot.full_fallbacks", d(s.rb_snapshot_full_fallbacks), "count");
  Add(r, "sync.records_streamed", d(s.sync_log_records_streamed), "count");
  Add(r, "sync.wrap_stalls", d(s.sync_log_wrap_stalls), "count");
  Add(r, "sync.append_stalls", d(s.sync_log_append_stalls), "count");
}

void FillProbeInputs(const remon::SimStats& s, uint64_t rb_size, int ranks_used,
                     ProbeInputs* in) {
  in->rb_size = rb_size;
  in->rb_ranks_used = std::max(1, ranks_used);
  in->rb_mean_entry_bytes =
      s.rb_entries > 0 ? static_cast<double>(s.rb_bytes) / static_cast<double>(s.rb_entries)
                       : 0;
  in->rb_bytes_per_rank = static_cast<double>(s.rb_bytes) / in->rb_ranks_used;
  in->mean_frame_bytes =
      s.rb_frames_sent > 0
          ? static_cast<double>(s.rb_frame_bytes_sent) / static_cast<double>(s.rb_frames_sent)
          : 0;
  in->kib_per_join = s.rb_replica_joins > 0
                         ? static_cast<double>(s.rb_snapshot_bytes_sent) / 1024.0 /
                               static_cast<double>(s.rb_replica_joins)
                         : 0;
}

}  // namespace perfbench
