#include "sim/activity.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>

#include "netlist/topo.h"
#include "obs/obs.h"
#include "sim/packed_sim.h"
#include "sim/stimulus.h"

namespace adq::sim {

namespace {

/// One pre-generated stimulus stream per input bus. The base streams
/// are shared by every accuracy mode: the Rng draw order depends only
/// on the bus list, never on zeroed_lsbs, so lane masking can be
/// applied afterwards without disturbing determinism.
struct BusStream {
  const netlist::Bus* bus = nullptr;
  bool scalable = false;
  std::vector<std::uint64_t> data;
};

std::vector<BusStream> GenerateStreams(const gen::Operator& op, int cycles,
                                       std::uint64_t seed,
                                       StimulusKind kind) {
  util::Rng rng(seed);
  std::vector<BusStream> streams;
  for (const netlist::Bus& bus : op.nl.input_buses()) {
    BusStream s;
    s.bus = &bus;
    if (bus.name == "clr") {
      // Accumulator framing: one-cycle clear pulse at the operator's
      // output-sample cadence (e.g. ceil(taps/MACs) for the folded
      // FIR). The spec must declare it — a silent default would bake
      // the wrong frame length into the activity profile.
      const int period = op.spec.accumulation_cycles;
      ADQ_CHECK_MSG(period > 0,
                    "operator has a clr bus but no accumulation_cycles");
      s.data.resize(static_cast<std::size_t>(cycles));
      for (int i = 0; i < cycles; ++i)
        s.data[static_cast<std::size_t>(i)] = (i % period) == 0;
    } else {
      s.data = (kind == StimulusKind::kUniform)
                   ? UniformStream(rng, bus.width(), cycles)
                   : CorrelatedStream(rng, bus.width(), cycles);
      s.scalable = std::find(op.spec.scalable_buses.begin(),
                             op.spec.scalable_buses.end(),
                             bus.name) != op.spec.scalable_buses.end();
    }
    streams.push_back(std::move(s));
  }
  return streams;
}

/// Canonical encoding of everything the simulation result depends
/// on, one 64-bit word per field: topology (cell kinds and pin nets),
/// bus framing and the stimulus-relevant spec fields. Drive strengths
/// are deliberately excluded — sizing changes electrical data only, so
/// a resized copy of an operator (each grid's implementation of the
/// same operator is one) encodes identically and hits the cache entries the explorer
/// populated. The encoding itself is part of the cache key (full-key
/// comparison), so a digest collision between two different operators
/// degrades to a cache miss, never to a wrong profile.
using Canon = std::vector<std::uint64_t>;

void PutStr(Canon* c, std::string_view str) {
  for (std::size_t i = 0; i < str.size(); i += 8) {
    std::uint64_t w = 0;
    for (std::size_t j = i; j < std::min(str.size(), i + 8); ++j)
      w |= static_cast<std::uint64_t>(static_cast<unsigned char>(str[j]))
           << (8 * (j - i));
    c->push_back(w);
  }
  c->push_back(str.size());  // length word: "ab"+"c" != "a"+"bc"
}

Canon CanonicalStructure(const gen::Operator& op) {
  const netlist::Netlist& nl = op.nl;
  Canon canon;
  canon.reserve(nl.num_instances() * 5 + 64);
  canon.push_back(nl.num_nets());
  canon.push_back(nl.num_instances());
  for (const netlist::Instance& inst : nl.instances()) {
    canon.push_back(static_cast<std::uint64_t>(inst.kind));
    for (int p = 0; p < inst.num_inputs(); ++p)
      canon.push_back(inst.in[static_cast<std::size_t>(p)].value);
    for (int o = 0; o < inst.num_outputs(); ++o)
      canon.push_back(inst.out[static_cast<std::size_t>(o)].value);
  }
  for (const netlist::Bus& bus : nl.input_buses()) {
    PutStr(&canon, bus.name);
    for (const netlist::NetId bit : bus.bits) canon.push_back(bit.value);
  }
  for (const std::string& name : op.spec.scalable_buses)
    PutStr(&canon, name);
  canon.push_back(static_cast<std::uint64_t>(op.spec.data_width));
  canon.push_back(static_cast<std::uint64_t>(op.spec.accumulation_cycles));
  return canon;
}

bool g_force_hash_collisions = false;

/// Digest of the canonical encoding, one word per multiply-xorshift
/// step. Only an index accelerator of this process's cache —
/// correctness rests on the canonical words in the key — so it is
/// free to change between builds.
std::uint64_t StructuralDigest(const Canon& canon) {
  if (g_force_hash_collisions) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : canon) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return h;
}

// (zeroed_lsbs, cycles, seed, kind) of one profile of a structure.
using ModeKey = std::tuple<int, int, std::uint64_t, int>;

ModeKey MakeKey(int zeroed_lsbs, int cycles, std::uint64_t seed,
                StimulusKind kind) {
  return ModeKey(zeroed_lsbs, cycles, seed, static_cast<int>(kind));
}

/// Every profile cached for one operator structure. The canonical
/// encoding is held once here, not copied into each profile's key;
/// lookups compare it in full, so the cache stays full-key exact.
struct StructureEntry {
  std::string name;
  Canon canon;
  std::map<ModeKey, ActivityProfile> profiles;
  /// Case analyses by zeroed LSB count (ModeCaseAnalyses).
  std::map<int, std::shared_ptr<const netlist::CaseAnalysis>> cases;
};

struct ActivityCache {
  std::mutex mu;
  // Structures by digest; two share a digest only on a hash collision.
  std::multimap<std::uint64_t, StructureEntry> structures;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  /// The entry of (name, digest, canon), or nullptr. Caller holds mu.
  StructureEntry* Find(std::string_view name, std::uint64_t digest,
                       const Canon& canon) {
    const auto [lo, hi] = structures.equal_range(digest);
    for (auto it = lo; it != hi; ++it)
      if (it->second.name == name && it->second.canon == canon)
        return &it->second;
    return nullptr;
  }

  /// The entry of (name, digest, canon), created empty if missing
  /// (`canon` is moved from then). Caller holds mu.
  StructureEntry& FindOrAdd(const std::string& name, std::uint64_t digest,
                            Canon& canon) {
    if (StructureEntry* e = Find(name, digest, canon)) return *e;
    return structures
        .emplace(digest, StructureEntry{name, std::move(canon), {}, {}})
        ->second;
  }
};

ActivityCache& TheCache() {
  static ActivityCache* cache = new ActivityCache;
  return *cache;
}

void CheckArgs(const gen::Operator& op, std::span<const int> zeroed_lsbs,
               int cycles) {
  // cycles == 1 only establishes the toggle baseline (sim.cycles()
  // stays 0) and would silently produce an all-zero profile.
  ADQ_CHECK_MSG(cycles >= 2, "activity extraction needs cycles >= 2");
  ADQ_CHECK(!zeroed_lsbs.empty());
  for (const int zs : zeroed_lsbs)
    ADQ_CHECK(zs >= 0 && zs <= op.spec.data_width);
}

/// Register stages of a netlist: over every register, the fewest
/// registers on any path from a primary input through it (a pipeline's
/// depth; a feedback register counts once). Registers not reachable
/// from an input are skipped.
int RegisterStages(const netlist::Netlist& nl) {
  // hops[n]: fewest registers crossed from a primary input to net n,
  // -1 while unreached. Each pass settles the combinational cloud,
  // then lets registers adopt one more hop; hops only ever shrink.
  std::vector<int> hops(nl.num_nets(), -1);
  for (const netlist::NetId pi : nl.primary_inputs()) hops[pi.index()] = 0;
  std::vector<netlist::InstId> comb;
  std::vector<netlist::InstId> regs;
  for (const netlist::InstId id : netlist::TopologicalOrder(nl))
    (nl.inst(id).is_sequential() ? regs : comb).push_back(id);
  for (bool changed = true; changed;) {
    changed = false;
    for (const netlist::InstId id : comb) {
      const netlist::Instance& inst = nl.inst(id);
      int h = -1;
      for (int p = 0; p < inst.num_inputs(); ++p) {
        const int in = hops[inst.in[static_cast<std::size_t>(p)].index()];
        if (in >= 0 && (h < 0 || in < h)) h = in;
      }
      for (int o = 0; o < inst.num_outputs(); ++o)
        hops[inst.out[static_cast<std::size_t>(o)].index()] = h;
    }
    for (const netlist::InstId id : regs) {
      const netlist::Instance& inst = nl.inst(id);
      const int d = hops[inst.in[0].index()];
      int& q = hops[inst.out[0].index()];
      if (d >= 0 && (q < 0 || d + 1 < q)) {
        q = d + 1;
        changed = true;
      }
    }
  }
  int stages = 0;
  for (const netlist::InstId id : regs)
    stages = std::max(stages, hops[nl.inst(id).out[0].index()]);
  return stages;
}

/// Lanes [0, count) of a word.
std::uint64_t LowLanes(int count) {
  return count >= PackedLogicSim::kLanes ? ~0ULL : (1ULL << count) - 1ULL;
}

struct SlicedRun {
  std::vector<ActivityProfile> profiles;  // one per mode
  std::uint64_t seam_failures = 0;        // bit j: mode j must re-run
};

/// Simulates `zs.size()` accuracy modes in one packed run, split into
/// `slices` time slices. Slice g occupies lanes [g*M, (g+1)*M) (lane
/// g*M + j carries mode j, M = zs.size()) and counts transitions
/// g*S+1 .. (g+1)*S of the cycles-1 transitions an unsliced run
/// counts (S = ceil((cycles-1)/slices), the last slice ends early).
/// Slices g >= 1 start `warmup` cycles before their window from the
/// reset state, so one run takes about S + warmup + 1 ticks instead of
/// `cycles`. Stimulus is the shared base stream with a per-bus, per-bit
/// lane keep mask applied, so every lane sees exactly the inputs a
/// scalar run of its mode sees at that cycle.
///
/// Seam check: a slice's counts are exact when its registers at cycle
/// g*S equal those of slice g-1 at that cycle (inputs agree, so from
/// there on the state agrees with the unsliced run; slice 0 starts
/// from reset like the unsliced run, so by induction every slice
/// whose seams all hold is exact). A mode whose registers differ at
/// any seam is flagged in seam_failures. With slices == 1 there is no
/// seam and the schedule is the unsliced run itself.
SlicedRun RunPackedChunk(const gen::Operator& op,
                         const std::vector<BusStream>& streams,
                         std::span<const int> zs, int cycles, int slices,
                         int warmup) {
  const netlist::Netlist& nl = op.nl;
  const int modes = static_cast<int>(zs.size());
  ADQ_CHECK(modes >= 1 && slices >= 1 &&
            modes * slices <= PackedLogicSim::kLanes);
  const int last = cycles - 1;  // last counted transition
  const int span = (last + slices - 1) / slices;
  ADQ_CHECK((slices - 1) * span < last);  // no empty slice
  const std::uint64_t mode_lanes = LowLanes(modes);
  const auto lanes_of = [&](int g) { return mode_lanes << (g * modes); };

  // Per slice: first simulated cycle and counted window, in ticks.
  std::vector<int> start(static_cast<std::size_t>(slices));
  std::vector<int> count_from(start.size());
  std::vector<int> count_to(start.size());
  int ticks = 0;
  for (int g = 0; g < slices; ++g) {
    const std::size_t gi = static_cast<std::size_t>(g);
    start[gi] = std::max(0, g * span - warmup);
    count_from[gi] = g * span + 1 - start[gi];
    count_to[gi] = std::min((g + 1) * span, last) - start[gi];
    ticks = std::max(ticks, count_to[gi] + 1);
  }

  std::vector<std::vector<std::uint64_t>> keep(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const BusStream& s = streams[i];
    keep[i].assign(static_cast<std::size_t>(s.bus->width()), ~0ULL);
    if (!s.scalable) continue;
    for (int bit = 0; bit < s.bus->width(); ++bit) {
      std::uint64_t m = 0;
      for (int j = 0; j < modes; ++j)
        if (bit >= zs[static_cast<std::size_t>(j)]) m |= 1ULL << j;
      std::uint64_t all = 0;
      for (int g = 0; g < slices; ++g) all |= m << (g * modes);
      keep[i][static_cast<std::size_t>(bit)] = all;
    }
  }

  PackedLogicSim sim(nl);
  sim.Reset();
  std::vector<netlist::NetId> regs;
  for (const netlist::Instance& inst : nl.instances())
    if (inst.is_sequential()) regs.push_back(inst.out[0]);
  // Register words at each seam cycle g*S: `seam_in` holds slice g's
  // lanes (g >= 1), `seam_out` slice g-1's (in its own lanes).
  std::vector<std::uint64_t> seam_in(regs.size(), 0);
  std::vector<std::uint64_t> seam_out(regs.size(), 0);
  const auto snapshot = [&](std::vector<std::uint64_t>& into,
                            std::uint64_t lanes) {
    for (std::size_t r = 0; r < regs.size(); ++r)
      into[r] |= sim.LaneWord(regs[r]) & lanes;
  };

  std::vector<std::uint64_t> now(static_cast<std::size_t>(slices));
  for (int t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      // Past the stimulus end a slice only finishes the run uncounted
      // and beyond its seams; it holds the last sample.
      for (int g = 0; g < slices; ++g)
        now[static_cast<std::size_t>(g)] = streams[i].data[
            static_cast<std::size_t>(
                std::min(start[static_cast<std::size_t>(g)] + t, last))];
      const std::vector<netlist::NetId>& bits = streams[i].bus->bits;
      for (std::size_t b = 0; b < bits.size(); ++b) {
        std::uint64_t w = 0;
        for (int g = 0; g < slices; ++g)
          if ((now[static_cast<std::size_t>(g)] >> b) & 1ULL)
            w |= lanes_of(g);
        sim.SetInput(bits[b], w & keep[i][b]);
      }
    }
    std::uint64_t count = 0;
    for (int g = 0; g < slices; ++g) {
      const std::size_t gi = static_cast<std::size_t>(g);
      if (t >= count_from[gi] && t <= count_to[gi]) count |= lanes_of(g);
    }
    sim.Tick(count);
    for (int g = 0; g < slices; ++g) {
      const std::size_t gi = static_cast<std::size_t>(g);
      if (g > 0 && t == count_from[gi] - 1)
        snapshot(seam_in, lanes_of(g));
      if (g + 1 < slices && t == count_to[gi])
        snapshot(seam_out, lanes_of(g));
    }
  }

  SlicedRun run;
  if (slices > 1) {
    std::uint64_t diff = 0;
    for (std::size_t r = 0; r < regs.size(); ++r)
      diff |= seam_in[r] ^ (seam_out[r] << modes);
    for (int g = 1; g < slices; ++g)
      run.seam_failures |= (diff >> (g * modes)) & mode_lanes;
  }
  run.profiles.resize(zs.size());
  for (ActivityProfile& prof : run.profiles) {
    prof.cycles = static_cast<std::uint64_t>(last);
    prof.toggle_rate.resize(nl.num_nets(), 0.0);
  }
  const double denom = static_cast<double>(last);
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    const std::span<const std::uint64_t> row =
        sim.LaneToggles(netlist::NetId(static_cast<std::uint32_t>(n)));
    for (int j = 0; j < modes; ++j) {
      std::uint64_t toggles = 0;
      for (int g = 0; g < slices; ++g)
        toggles += row[static_cast<std::size_t>(g * modes + j)];
      run.profiles[static_cast<std::size_t>(j)].toggle_rate[n] =
          static_cast<double>(toggles) / denom;
    }
  }
  return run;
}

}  // namespace

ActivityProfile ExtractActivityScalar(const gen::Operator& op,
                                      int zeroed_lsbs, int cycles,
                                      std::uint64_t seed,
                                      StimulusKind kind) {
  ADQ_TRACE_SCOPE2("sim.extract_activity_scalar",
                   op.spec.name + " lsb0=" + std::to_string(zeroed_lsbs));
  const int zs[1] = {zeroed_lsbs};
  CheckArgs(op, zs, cycles);
  const netlist::Netlist& nl = op.nl;

  std::vector<BusStream> streams = GenerateStreams(op, cycles, seed, kind);
  for (BusStream& s : streams)
    if (s.scalable) MaskStream(s.data, s.bus->width(), zeroed_lsbs);

  LogicSim sim(nl);
  sim.Reset();
  for (int t = 0; t < cycles; ++t) {
    for (const BusStream& s : streams)
      sim.SetBus(*s.bus, s.data[static_cast<std::size_t>(t)]);
    sim.Tick();
  }

  ActivityProfile prof;
  prof.cycles = sim.cycles();
  prof.toggle_rate.resize(nl.num_nets(), 0.0);
  const double denom = static_cast<double>(std::max<std::uint64_t>(
      1, sim.cycles()));
  for (std::size_t n = 0; n < nl.num_nets(); ++n)
    prof.toggle_rate[n] = static_cast<double>(sim.toggles()[n]) / denom;
  return prof;
}

int ActivitySlices(std::size_t modes, int cycles) {
  ADQ_CHECK(modes >= 1 &&
            modes <= static_cast<std::size_t>(PackedLogicSim::kLanes));
  ADQ_CHECK(cycles >= 2);
  const int transitions = cycles - 1;
  const int fit = PackedLogicSim::kLanes / static_cast<int>(modes);
  const int slices = std::min(fit, transitions);
  const int span = (transitions + slices - 1) / slices;
  return (transitions + span - 1) / span;  // drop empty trailing slices
}

std::vector<ActivityProfile> ExtractActivityPacked(
    const gen::Operator& op, std::span<const int> zeroed_lsbs, int cycles,
    std::uint64_t seed, StimulusKind kind, int* seam_fallbacks) {
  static obs::Counter& fallbacks =
      obs::GetCounter("sim.activity_seam_fallbacks");
  CheckArgs(op, zeroed_lsbs, cycles);
  const std::vector<BusStream> streams =
      GenerateStreams(op, cycles, seed, kind);
  const int warmup = RegisterStages(op.nl) + op.spec.accumulation_cycles;
  std::vector<ActivityProfile> out;
  out.reserve(zeroed_lsbs.size());
  int fell_back = 0;
  constexpr std::size_t kLanes = PackedLogicSim::kLanes;
  for (std::size_t at = 0; at < zeroed_lsbs.size(); at += kLanes) {
    const std::span<const int> zs =
        zeroed_lsbs.subspan(at, std::min(zeroed_lsbs.size() - at, kLanes));
    SlicedRun run = RunPackedChunk(op, streams, zs, cycles,
                                   ActivitySlices(zs.size(), cycles), warmup);
    if (run.seam_failures) {
      // A single slice is the unsliced schedule: exact by construction.
      std::vector<int> redo;
      for (std::size_t j = 0; j < zs.size(); ++j)
        if ((run.seam_failures >> j) & 1ULL) redo.push_back(zs[j]);
      SlicedRun whole = RunPackedChunk(op, streams, redo, cycles, 1, warmup);
      for (std::size_t j = 0, k = 0; j < zs.size(); ++j)
        if ((run.seam_failures >> j) & 1ULL)
          run.profiles[j] = std::move(whole.profiles[k++]);
      fell_back += static_cast<int>(redo.size());
    }
    for (ActivityProfile& prof : run.profiles) out.push_back(std::move(prof));
  }
  fallbacks.Add(static_cast<std::uint64_t>(fell_back));
  if (seam_fallbacks) *seam_fallbacks = fell_back;
  return out;
}

std::vector<ActivityProfile> ExtractActivityBatch(
    const gen::Operator& op, std::span<const int> zeroed_lsbs, int cycles,
    std::uint64_t seed, StimulusKind kind) {
  obs::TraceSpan span("sim.extract_activity_batch");
  static obs::Counter& extractions =
      obs::GetCounter("sim.activity_extractions");
  static obs::Counter& sim_cycles = obs::GetCounter("sim.activity_cycles");
  static obs::Counter& cache_hits =
      obs::GetCounter("sim.activity_cache_hits");
  static obs::Counter& cache_misses =
      obs::GetCounter("sim.activity_cache_misses");
  CheckArgs(op, zeroed_lsbs, cycles);
  extractions.Add(static_cast<std::uint64_t>(zeroed_lsbs.size()));
  sim_cycles.Add(static_cast<std::uint64_t>(cycles) * zeroed_lsbs.size());

  Canon canon = CanonicalStructure(op);
  const std::uint64_t digest = StructuralDigest(canon);
  ActivityCache& cache = TheCache();

  // Find the modes not yet cached (deduplicated, first-seen order).
  std::vector<int> missing;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    const StructureEntry* entry = cache.Find(op.spec.name, digest, canon);
    for (const int zs : zeroed_lsbs) {
      const bool cached =
          entry && entry->profiles.count(MakeKey(zs, cycles, seed, kind));
      if (!cached &&
          std::find(missing.begin(), missing.end(), zs) == missing.end())
        missing.push_back(zs);
    }
  }
  if (obs::TraceEnabled()) {
    const int slices =
        missing.empty()
            ? 0
            : ActivitySlices(std::min(missing.size(),
                                      static_cast<std::size_t>(
                                          PackedLogicSim::kLanes)),
                             cycles);
    span.SetDetail(op.spec.name + " modes=" +
                   std::to_string(zeroed_lsbs.size()) +
                   " slices=" + std::to_string(slices));
  }

  // Simulate the missing modes outside the lock.
  std::vector<ActivityProfile> fresh;
  if (!missing.empty())
    fresh = ExtractActivityPacked(op, missing, cycles, seed, kind);

  // Publish, then assemble results in request order.
  std::vector<ActivityProfile> out;
  out.reserve(zeroed_lsbs.size());
  std::uint64_t hits = 0;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    StructureEntry& entry = cache.FindOrAdd(op.spec.name, digest, canon);
    for (std::size_t j = 0; j < missing.size(); ++j)
      entry.profiles.try_emplace(MakeKey(missing[j], cycles, seed, kind),
                                 std::move(fresh[j]));
    for (const int zs : zeroed_lsbs) {
      const auto it = entry.profiles.find(MakeKey(zs, cycles, seed, kind));
      ADQ_CHECK(it != entry.profiles.end());
      out.push_back(it->second);
    }
    hits = zeroed_lsbs.size() - missing.size();
    cache.hits += hits;
    cache.misses += missing.size();
  }
  cache_hits.Add(hits);
  cache_misses.Add(static_cast<std::uint64_t>(missing.size()));
  static obs::Gauge& hit_rate = obs::GetGauge("sim.activity_cache_hit_rate");
  if (const long total = cache_hits.value() + cache_misses.value();
      total > 0)
    hit_rate.Set(static_cast<double>(cache_hits.value()) /
                 static_cast<double>(total));
  return out;
}

ActivityProfile ExtractActivity(const gen::Operator& op, int zeroed_lsbs,
                                int cycles, std::uint64_t seed,
                                StimulusKind kind) {
  const int zs[1] = {zeroed_lsbs};
  std::vector<ActivityProfile> profs =
      ExtractActivityBatch(op, zs, cycles, seed, kind);
  return std::move(profs[0]);
}

std::vector<std::shared_ptr<const netlist::CaseAnalysis>> ModeCaseAnalyses(
    const gen::Operator& op, std::span<const int> zeroed_lsbs) {
  Canon canon = CanonicalStructure(op);
  const std::uint64_t digest = StructuralDigest(canon);
  ActivityCache& cache = TheCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  StructureEntry& entry = cache.FindOrAdd(op.spec.name, digest, canon);
  // Build every missing mode (deduplicated) in one batch.
  std::vector<int> missing;
  std::vector<std::vector<netlist::ForcedValue>> forced;
  for (const int zs : zeroed_lsbs) {
    if (entry.cases.count(zs) ||
        std::find(missing.begin(), missing.end(), zs) != missing.end())
      continue;
    missing.push_back(zs);
    forced.push_back(gen::ForcedZeroLsbs(op, zs));
  }
  std::vector<netlist::CaseAnalysis> built =
      netlist::CaseAnalyses(op.nl, forced);
  for (std::size_t i = 0; i < missing.size(); ++i)
    entry.cases[missing[i]] =
        std::make_shared<const netlist::CaseAnalysis>(std::move(built[i]));
  std::vector<std::shared_ptr<const netlist::CaseAnalysis>> out;
  out.reserve(zeroed_lsbs.size());
  for (const int zs : zeroed_lsbs) out.push_back(entry.cases.at(zs));
  return out;
}

ActivityCacheStats GetActivityCacheStats() {
  ActivityCache& cache = TheCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  std::uint64_t entries = 0;
  for (const auto& [digest, entry] : cache.structures)
    entries += entry.profiles.size();
  return ActivityCacheStats{cache.hits, cache.misses, entries};
}

void ClearActivityCache() {
  ActivityCache& cache = TheCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.structures.clear();
  cache.hits = 0;
  cache.misses = 0;
}

void ForceActivityHashCollisionsForTest(bool on) {
  g_force_hash_collisions = on;
}

}  // namespace adq::sim
