#pragma once

/// @file key_cache.hpp
/// Bounded shared cache of expanded key-switch keys, the serving daemon's
/// counterpart to the seed-compressed records TenantSession keeps
/// resident. A request that needs a key asks the cache; on a miss the
/// cache regenerates the expanded evaluation-domain digits from the
/// tenant's compressed record (expand_key_switch_key — bit-identical to
/// the key registration consumed) and keeps them until capacity pressure
/// evicts them. The daemon's resident key footprint is therefore
/// O(compressed keys) per tenant plus ONE byte-bounded shared slice, no
/// matter how many tenants register.
///
/// Concurrency contract (the pieces tests/test_key_cache.cpp pins down):
///
///  * single-flight regeneration: N requests missing the same (tenant,
///    key) cost exactly one expand_key_switch_key — one thread builds
///    while the rest wait on the entry and share the result;
///  * pinning: get() returns a handle that pins the entry for the
///    handle's lifetime. Eviction skips pinned entries, so a key can
///    never be freed mid-key-switch; a pinned working set larger than
///    capacity overshoots the budget (documented, metered) rather than
///    deadlocking or handing out dangling keys;
///  * LRU eviction: when an insert pushes resident bytes past capacity,
///    unpinned entries are evicted in least-recently-used order until the
///    budget holds (or only pinned entries remain);
///  * failure hygiene: a regeneration throw (e.g. the server.key_regen
///    failpoint) propagates to every waiter of that flight as a typed
///    per-request error and *removes* the building entry — the cache is
///    never poisoned; an identical retry regenerates from scratch and
///    succeeds bit-identically.
///
/// Metrics: keycache.hits / keycache.misses / keycache.evictions
/// (counters; misses == regeneration count), keycache.regen_ns
/// (histogram) and keycache.resident_bytes (gauge).

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "ckks/serialize.hpp"
#include "obs/metrics.hpp"

namespace abc::server {

class KeyCache {
 public:
  /// @p capacity_bytes bounds the *expanded* bytes kept resident. Zero is
  /// rejected (InvalidArgument): a cache that cannot hold even one key in
  /// flight cannot serve — size the budget to at least one expanded key
  /// (a 1-byte cache still works: every key overshoots while pinned and
  /// is evicted on release, the maximal-thrash configuration the
  /// bit-identity tests run).
  explicit KeyCache(std::size_t capacity_bytes);

  KeyCache(const KeyCache&) = delete;
  KeyCache& operator=(const KeyCache&) = delete;

  /// The expanded key for @p rec, pinned until the returned handle drops.
  /// Hit: bumps recency and returns the resident key. Miss: regenerates
  /// (single-flight) under no lock, publishes, then evicts LRU entries
  /// over budget. Throws whatever regeneration throws (and the
  /// server.key_regen failpoint's injected error) — never caching it.
  std::shared_ptr<const ckks::KeySwitchKey> get(
      u64 tenant, const ckks::CompressedKeySwitchKey& rec,
      const std::shared_ptr<const ckks::CkksContext>& ctx);

  /// Drops every resident entry of @p tenant (unregistration). Entries
  /// pinned by in-flight requests leave the index and the byte budget
  /// immediately; the keys themselves stay alive until their pins drop.
  void drop_tenant(u64 tenant);

  std::size_t capacity_bytes() const noexcept { return capacity_; }

  /// Point-in-time snapshot of this cache's counters: its own keycache.*
  /// metric instances, read under the cache mutex they are bumped under.
  /// misses == number of regenerations ever run (the single-flight tests
  /// assert on this).
  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
    std::size_t resident_bytes = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

 private:
  struct Key {
    u64 tenant = 0;
    u32 galois_elt = 0;
    u8 kind = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      u64 h = k.tenant * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<u64>(k.galois_elt) << 8 | k.kind) +
           0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  struct Entry {
    std::shared_ptr<const ckks::KeySwitchKey> key;  // null while building
    std::size_t bytes = 0;
    std::size_t pins = 0;
    bool building = true;
    bool failed = false;
    std::exception_ptr error;
    u64 tick = 0;  // recency stamp for LRU
  };

  /// Pin holder: the shared_ptr<const KeySwitchKey> get() returns aliases
  /// one of these, so releasing the last copy unpins the entry (and lets
  /// eviction reconsider it).
  struct PinGuard {
    KeyCache* cache;
    std::shared_ptr<Entry> entry;
    ~PinGuard() { cache->unpin(entry); }
  };

  std::shared_ptr<const ckks::KeySwitchKey> pin_locked(
      const std::shared_ptr<Entry>& entry);
  void unpin(const std::shared_ptr<Entry>& entry);
  void evict_locked();

  const std::size_t capacity_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> entries_;
  std::size_t resident_ = 0;
  u64 tick_ = 0;
  // This cache's own instances, bumped under m_ so stats() reads them
  // exactly; the registry sums every cache's instances for the scrape.
  obs::Counter hits_ = obs::registry().counter(obs::catalog::kKeyCacheHits);
  obs::Counter misses_ =
      obs::registry().counter(obs::catalog::kKeyCacheMisses);
  obs::Counter evictions_ =
      obs::registry().counter(obs::catalog::kKeyCacheEvictions);
  obs::Histogram regen_ns_ =
      obs::registry().histogram(obs::catalog::kKeyCacheRegenNs);
  obs::Gauge resident_bytes_ =
      obs::registry().gauge(obs::catalog::kKeyCacheResidentBytes);
};

}  // namespace abc::server
