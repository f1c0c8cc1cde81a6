// Layer probes: host time of one public entry point per layer, at the sizes and
// counts the workload's own counters reported (a nominal size where the workload
// never exercised the layer, so every probe always measures). Each probe runs one
// warm-up batch, then reports the median of its timed batches in thread CPU time,
// scaled by the reference kernel run just before and just after them (as the
// workloads' run times are; see TimedRun).

#include <algorithm>

#include "bench.h"
#include "src/core/rb_auth.h"
#include "src/core/rb_wire.h"
#include "src/core/replication_buffer.h"
#include "src/core/snapshot.h"
#include "src/mem/layout.h"
#include "src/net/load_balancer.h"

namespace perfbench {

using namespace remon;

namespace {

constexpr int kBatches = 7;

// Host ns per op: `batch(n)` runs n ops; one warm-up batch is discarded.
// Scaled by the reference kernel.
template <typename Fn>
double NsPerOp(Tracer* tracer, int parent, const char* name, uint64_t ops, Fn batch) {
  int span = tracer != nullptr ? tracer->Begin(name, parent) : -1;
  double before = ReferenceKernelSeconds();
  batch(ops);
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    double t0 = CpuNow();
    batch(ops);
    per.push_back((CpuNow() - t0) * 1e9 / static_cast<double>(ops));
  }
  double after = ReferenceKernelSeconds();
  if (tracer != nullptr) {
    tracer->End(span);
  }
  return Median(per) * kReferenceNominalS / ((before + after) / 2);
}

// A deterministic host-side stream for probe inputs (not the workload seed:
// probe inputs must not vary between runs of one workload).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

volatile uint64_t g_sink = 0;

// sim: ScheduleAt + RunOne on a queue holding a steady backlog of timers.
double ProbeEventQueue(Tracer* tracer, int parent) {
  EventQueue q;
  uint64_t fired = 0;
  uint64_t k = 0;
  for (int i = 0; i < 64; ++i) {
    q.ScheduleAt(static_cast<TimeNs>(Mix(k++) % 100000), [&fired] { ++fired; });
  }
  double ns = NsPerOp(tracer, parent, "probe.sim.event", 200000, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      q.ScheduleAt(q.now() + static_cast<TimeNs>(Mix(k++) % 100000), [&fired] { ++fired; });
      q.RunOne();
    }
  });
  g_sink = fired;
  return ns;
}

// mem: 8-byte RbView reads over the workload's RB geometry — rank write cursors
// interleaved with entry words spread over the bytes each rank published.
double ProbeRbRead(const ProbeInputs& in, Tracer* tracer, int parent) {
  World w(1);
  uint32_t machine = w.net.AddMachine("probe");
  LayoutPlanner planner(&w.sim.rng());
  Process* p = w.kernel.CreateProcess("probe", machine, planner.PlanFor(0));
  uint64_t size = in.rb_size > 0 ? in.rb_size : 16ull << 20;
  GuestAddr base = p->mem().FindFreeRange(0x7000'0000'0000ull, size);
  REMON_CHECK(base != 0);
  REMON_CHECK(p->mem().MapFixed(base, size, kProtRead | kProtWrite, true, "rb-probe"));
  RbView view(p, base, size, in.rb_max_ranks);
  uint64_t span = view.SubBufferSize() - kRbRankHeaderSize;
  if (in.rb_bytes_per_rank > 0) {
    span = std::min<uint64_t>(span, static_cast<uint64_t>(in.rb_bytes_per_rank));
  }
  span = std::max<uint64_t>(span, 4096);
  uint64_t step = in.rb_mean_entry_bytes > 0
                      ? static_cast<uint64_t>(in.rb_mean_entry_bytes)
                      : kRbEntryHeaderSize + 1024;
  step = std::max<uint64_t>(8, step & ~uint64_t{7});
  std::vector<uint64_t> offsets;
  for (uint64_t i = 0; i < 4096; ++i) {
    int rank = static_cast<int>(i % static_cast<uint64_t>(in.rb_ranks_used));
    offsets.push_back(view.RankStart(rank));
    offsets.push_back(view.RankDataStart(rank) + (i * step) % (span - 8) / 8 * 8);
  }
  return NsPerOp(tracer, parent, "probe.mem.rb_read", offsets.size() * 64, [&](uint64_t n) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; ++i) {
      acc += view.ReadU64(offsets[i % offsets.size()]);
    }
    g_sink = acc;
  });
}

// One kEntries frame of about `frame_bytes`, from entries of the workload's mean
// RB entry size.
std::vector<RbWireEntry> FrameEntries(const ProbeInputs& in, double frame_bytes) {
  uint64_t entry = in.rb_mean_entry_bytes > 0
                       ? static_cast<uint64_t>(in.rb_mean_entry_bytes)
                       : kRbEntryHeaderSize + 256;
  std::vector<RbWireEntry> entries;
  uint64_t total = 0;
  uint64_t off = 0;
  do {
    RbWireEntry e;
    e.entry_off = off;
    e.final_state = kRbResultsReady;
    e.image.resize(entry);
    for (size_t i = 0; i < e.image.size(); ++i) {
      e.image[i] = static_cast<uint8_t>(Mix(off + i));
    }
    off += entry;
    total += entry + 16;
    entries.push_back(std::move(e));
  } while (static_cast<double>(total) < frame_bytes);
  return entries;
}

}  // namespace

void RunProbes(const ProbeInputs& in, Tracer* tracer, int parent,
               std::vector<Metric>* out) {
  out->push_back(Metric{"sim.event_host_ns", ProbeEventQueue(tracer, parent), "ns",
                        200000ull * kBatches});
  out->push_back(Metric{"mem.rb_read_host_ns", ProbeRbRead(in, tracer, parent), "ns",
                        8192ull * 64 * kBatches});

  // wire: payload encode + frame stamp, then parse it back (CRC discipline).
  double frame_bytes = in.mean_frame_bytes > 0 ? in.mean_frame_bytes : 1024;
  std::vector<RbWireEntry> entries = FrameEntries(in, frame_bytes);
  std::vector<uint8_t> sample =
      RbWireCodec::EncodeEntries(1, 0, 1, entries);
  double kib = static_cast<double>(sample.size()) / 1024.0;
  uint64_t frames = std::max<uint64_t>(200, static_cast<uint64_t>(4096 / kib));
  uint64_t seq = 1;
  double wire_ns = NsPerOp(tracer, parent, "probe.wire.codec", frames, [&](uint64_t n) {
    RbFrameParser parser;
    RbWireFrame frame;
    uint64_t decoded = 0;
    for (uint64_t i = 0; i < n; ++i) {
      std::vector<uint8_t> payload = RbWireCodec::EncodeEntriesPayload(entries);
      std::vector<uint8_t> bytes = RbWireCodec::EntriesFrameFromPayload(
          1, 0, seq++, static_cast<uint32_t>(entries.size()), payload);
      parser.Feed(bytes.data(), bytes.size());
      decoded += parser.Next(&frame) == RbFrameParser::Status::kFrame ? 1 : 0;
    }
    REMON_CHECK_MSG(decoded == n, "wire probe: a frame failed to parse");
  });
  out->push_back(Metric{"wire.codec_host_ns_per_kib", wire_ns / kib, "ns/KiB",
                        frames * kBatches});

  // auth: seal then verify-and-open one frame of the same size.
  RbAuthContext auth("perfbench-probe-secret");
  double auth_ns = NsPerOp(tracer, parent, "probe.auth.seal_open", frames, [&](uint64_t n) {
    uint64_t opened = 0;
    for (uint64_t i = 0; i < n; ++i) {
      std::vector<uint8_t> f = sample;
      auth.SealFrame(&f, RbAuthDirection::kLeaderToReplica);
      opened += auth.VerifyAndOpen(&f, RbAuthDirection::kLeaderToReplica) ? 1 : 0;
    }
    REMON_CHECK_MSG(opened == n, "auth probe: a sealed frame failed to open");
  });
  out->push_back(Metric{"auth.seal_open_host_ns_per_kib", auth_ns / kib, "ns/KiB",
                        frames * kBatches});

  // snapshot: serialize a checkpoint of the workload's re-seed size, then
  // reassemble it (Begin / AddChunk / End) into the flat RB image.
  ReplicaSnapshot snap;
  snap.rb_size = in.rb_size > 0 ? in.rb_size : 16ull << 20;
  snap.max_ranks = in.rb_max_ranks;
  snap.cursors.assign(static_cast<size_t>(snap.max_ranks), kRbGlobalHeaderSize);
  snap.seqs.assign(static_cast<size_t>(snap.max_ranks), 0);
  snap.file_map.assign(kPageSize, 0);
  snap.rb_image.length = snap.rb_size;
  uint64_t image = static_cast<uint64_t>((in.kib_per_join > 0 ? in.kib_per_join : 16) * 1024);
  image = std::clamp<uint64_t>((image + kPageMask) & ~kPageMask, kPageSize, snap.rb_size);
  PageRun run;
  run.bytes.resize(image);
  for (size_t i = 0; i < run.bytes.size(); ++i) {
    run.bytes[i] = static_cast<uint8_t>(Mix(i));
  }
  snap.rb_image.runs.push_back(std::move(run));
  double snap_ns = NsPerOp(tracer, parent, "probe.snapshot.codec", 3, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      SnapshotPayloads p = SerializeSnapshot(snap);
      SnapshotAssembler a;
      bool ok = a.Begin(p.begin);
      for (const std::vector<uint8_t>& c : p.chunks) {
        ok = ok && a.AddChunk(c);
      }
      ok = ok && a.End(p.end);
      REMON_CHECK_MSG(ok && a.state() == SnapshotAssembler::State::kComplete,
                      "snapshot probe: reassembly failed");
    }
  });
  out->push_back(Metric{"snapshot.codec_host_us", snap_ns / 1e3, "us", 3ull * kBatches});

  // lb: consistent-hash routing of fresh client addresses at SYN time.
  Simulator sim;
  Network net(&sim);
  uint32_t vip_machine = net.AddMachine("vip");
  uint32_t client_machine = net.AddMachine("client");
  SockAddr vip{vip_machine, 9000};
  LoadBalancer lb(&net, vip, LoadBalancer::Policy::kConsistentHash);
  int backends = in.lb_backends > 0 ? in.lb_backends : 2;
  for (int b = 0; b < backends; ++b) {
    lb.AddBackend(static_cast<uint64_t>(b),
                  SockAddr{net.AddMachine("backend-" + std::to_string(b)), 9000});
  }
  uint16_t port = 1;
  double lb_ns = NsPerOp(tracer, parent, "probe.lb.route", 200000, [&](uint64_t n) {
    SockAddr target;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; ++i) {
      SockAddr client{client_machine, port++};
      REMON_CHECK(net.ResolveVirtual(vip, client, &target));
      acc += target.machine;
    }
    g_sink = acc;
  });
  out->push_back(Metric{"lb.route_host_ns", lb_ns, "ns", 200000ull * kBatches});
}

}  // namespace perfbench
