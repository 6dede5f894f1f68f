#pragma once
/// \file exploration_store.h
/// \brief Persistent, append-only exploration store.
///
/// The design-space engines (core::ExploreDesignSpace and
/// core::FrontierExplore) spend essentially all their time producing
/// STA verdicts — "is (bitwidth, VDD, bias mask) feasible, and with
/// what worst slack" — that are pure functions of the implemented
/// design. This store persists those verdicts across processes: a
/// fleet of exploration workers (or a repeated run of the same 75-
/// config matrix) shares one store directory and starts warm instead
/// of re-deriving the same lattice.
///
/// This is the PR-4 process-wide activity cache promoted to disk,
/// with the keying bug of that cache fixed at the same time: an entry
/// is addressed by a 64-bit FNV-1a digest of its design key, but the
/// *full canonical key bytes* are stored alongside and verified on
/// every hash hit — a digest collision therefore degrades to a miss,
/// never to a verdict from a different design.
///
/// On-disk layout: a directory of immutable segment files
/// (`seg-*.adqstore`), each holding one design context (magic +
/// digest + full canonical key bytes + record count + fixed-size
/// records). Segments are written whole to a temporary name and
/// renamed into place, so a crashed writer can leave behind only (a)
/// a stale tmp file (ignored on load) or (b) nothing. Defensive
/// loading additionally salvages what it can from damaged files —
/// a truncated body keeps its complete records, a torn final record
/// is dropped, a stale or foreign schema is skipped entirely — so one
/// bad file never poisons the fleet. Writers pick unique segment
/// names (pid + sequence), so many processes can append to one
/// directory without coordination; Refresh() picks up segments other
/// writers landed since the store was opened.
///
/// Values are stored as exact IEEE-754 bit patterns, so a warm-
/// started exploration is bit-identical to a cold one (the engines'
/// contract, pinned by tests/test_frontier).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace adq::store {

/// Full key of one design context: the canonical byte encoding of
/// everything a stored verdict depends on, plus its 64-bit digest.
/// The digest is an index, never a proof — every lookup compares
/// `canonical` on a digest match (see file comment). Producers build
/// the encoding with core::ExploreStoreKey (or by hand in tests).
struct StoreKey {
  std::string canonical;
  std::uint64_t hash = 0;
};

/// FNV-1a digest of a canonical encoding (the store's index hash).
std::uint64_t StoreHash(const std::string& canonical);

/// Convenience: key with the digest filled in.
StoreKey MakeStoreKey(std::string canonical);

/// Plain always-on counters (independent of the obs metrics switch,
/// like sim::ActivityCacheStats).
struct StoreStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;            ///< fresh records accepted
  std::uint64_t duplicate_insertions = 0;  ///< already-known records
  std::uint64_t hash_collisions = 0;  ///< digest matched, canonical
                                      ///< differed (degraded to miss)
  std::uint64_t segments_loaded = 0;
  std::uint64_t records_loaded = 0;
  std::uint64_t segments_salvaged = 0;  ///< truncated body / torn
                                        ///< final record; complete
                                        ///< records kept
  std::uint64_t segments_ignored = 0;   ///< stale schema / unreadable
                                        ///< header; skipped whole
};

/// Thread-safe store handle over one directory. One process opens one
/// handle per directory; the engines share it via
/// ExploreOptions::store / FrontierOptions::store.
class ExplorationStore {
 public:
  /// Opens (creating the directory if needed) and loads every
  /// readable segment. Throws CheckError when the directory cannot
  /// be created or is not a directory.
  explicit ExplorationStore(std::string dir);

  /// Flushes pending records (best effort — errors are swallowed;
  /// call Flush() yourself to observe them).
  ~ExplorationStore();

  ExplorationStore(const ExplorationStore&) = delete;
  ExplorationStore& operator=(const ExplorationStore&) = delete;

  /// Interns a design context and returns its handle for the
  /// per-record calls below. Full-key verified: two keys with equal
  /// digests but different canonical bytes get distinct contexts.
  int Context(const StoreKey& key);

  /// Verdict lookup. True (and fills the outputs) only when the
  /// exact (bitwidth, vdd, mask) record exists in the context.
  /// `vdd` and the stored `wns_ns` round-trip as exact bit patterns.
  bool Lookup(int ctx, int bitwidth, double vdd, std::uint64_t mask,
              bool* feasible, double* wns_ns);

  /// Records one verdict; a record already present (from disk or an
  /// earlier Insert) is left untouched and counted as a duplicate.
  void Insert(int ctx, int bitwidth, double vdd, std::uint64_t mask,
              bool feasible, double wns_ns);

  /// Writes all pending records as fresh segments (one per context
  /// with pending data), each landed atomically via tmp+rename.
  /// Returns false if any segment failed to write (pending records
  /// are kept for a retry).
  bool Flush();

  /// Loads segments that appeared in the directory since open/last
  /// Refresh (other fleet writers); already-seen files are skipped.
  void Refresh();

  StoreStats stats() const;
  const std::string& dir() const { return dir_; }

  /// Total records held in memory (loaded + inserted), across all
  /// contexts.
  std::uint64_t num_records() const;

 private:
  struct Record {
    std::uint8_t feasible = 0;
    std::uint64_t wns_bits = 0;
  };
  using RecordKey = std::tuple<std::int32_t, std::uint64_t,
                               std::uint64_t>;  // (bw, vdd bits, mask)
  struct PendingRecord {
    RecordKey key;
    Record val;
  };
  struct RecordKeyHash {
    std::size_t operator()(const RecordKey& k) const {
      std::uint64_t h = static_cast<std::uint64_t>(std::get<0>(k));
      h = (h ^ std::get<1>(k)) * 0x9e3779b97f4a7c15ULL;
      h = (h ^ std::get<2>(k)) * 0x9e3779b97f4a7c15ULL;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  /// `records` answers lookups only; segments are written from
  /// `pending`, in insertion order, so no hash order reaches disk.
  struct ContextData {
    std::string canonical;
    std::uint64_t hash = 0;
    std::unordered_map<RecordKey, Record, RecordKeyHash> records;
    std::vector<PendingRecord> pending;
  };

  int ContextLocked(const std::string& canonical, std::uint64_t hash,
                    bool count_collisions);
  void LoadNewSegmentsLocked();
  bool LoadSegmentLocked(const std::string& path);

  mutable std::mutex mu_;
  std::string dir_;
  std::vector<std::unique_ptr<ContextData>> contexts_;
  std::unordered_multimap<std::uint64_t, int> by_hash_;
  std::unordered_set<std::string> seen_files_;
  StoreStats stats_;
};

}  // namespace adq::store
