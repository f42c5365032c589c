#pragma once

/// @file session_registry.hpp
/// Multi-tenant state of the serving daemon: the warm CkksContext cache
/// keyed by parameter set, and the registry mapping tenant ids to their
/// registered (seed-compressed, now expanded) key material.
///
/// Cache semantics the tests pin down:
///  * two tenants with the *same* parameter set share one context — one
///    prime chain, one set of NTT tables, one context-wide stream/secret
///    counter pair — so per-tenant warm cost is keys only;
///  * different parameter sets never share (CkksParams::operator== is the
///    key, seed included);
///  * the shared counters stay monotone across tenants: registration and
///    serving never reserve ids themselves (deserialization regenerates
///    from *stored* stream ids), so client engines on a cached context
///    keep the never-alias guarantee no matter how many tenants join.
///
/// Server contexts deliberately use the process-wide ScalarBackend: the
/// daemon parallelizes across requests (one per core-worker), not inside
/// one, so nested pools never fight for cores.

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ckks/context.hpp"
#include "ckks/keygen.hpp"
#include "ckks/serialize.hpp"
#include "obs/metrics.hpp"

namespace abc::server {

class ContextCache {
 public:
  /// Returns the cached context for @p params, building it (scalar
  /// backend) on first use. Thread-safe.
  std::shared_ptr<const ckks::CkksContext> get_or_create(
      const ckks::CkksParams& params);

  std::size_t size() const;

 private:
  mutable std::mutex m_;
  // Param sets in service are few; a linear scan under the lock beats
  // hashing a 9-field struct.
  std::vector<std::pair<ckks::CkksParams,
                        std::shared_ptr<const ckks::CkksContext>>>
      entries_;
  obs::Counter hits_ =
      obs::registry().counter(obs::catalog::kContextCacheHits);
  obs::Counter misses_ =
      obs::registry().counter(obs::catalog::kContextCacheMisses);
};

/// One registered tenant: *seed-compressed* key records pinned to the
/// (shared) context they were registered under. The daemon no longer
/// materializes expanded key-switch keys per tenant — a request expands
/// the record it needs through the shared bounded KeyCache
/// (src/server/key_cache.hpp), so per-tenant resident state is
/// O(compressed keys), not O(2 L^2 n) words per key. The public key is
/// validated at registration and then *discarded*: no server operation
/// ever encrypts under a tenant's key, so holding it resident would be
/// pure overhead. Immutable after registration; workers read it lock-free
/// through a shared_ptr.
struct TenantSession {
  u64 id = 0;
  std::shared_ptr<const ckks::CkksContext> ctx;
  std::size_t slots = 0;  // step matching modulus (GaloisKeys semantics)
  ckks::CompressedKeySwitchKey rlk;
  std::vector<int> gk_steps;  // gk_steps[i] belongs to gks[i]
  std::vector<ckks::CompressedKeySwitchKey> gks;

  /// The compressed record covering @p step (ckks::find_rotation_step,
  /// the rule GaloisKeys::key_for uses); nullptr when absent.
  const ckks::CompressedKeySwitchKey* galois_record_for(
      int step) const noexcept;

  /// Bytes this session keeps resident for key material (packed payloads
  /// of the relin key + every Galois key).
  std::size_t compressed_key_bytes() const noexcept;

  /// Bytes the same key set held under the old eager scheme (every key
  /// fully expanded) — the baseline of the resident-memory reduction.
  std::size_t expanded_key_bytes() const noexcept;

  /// Eagerly expanded forms, for callers outside the serving hot path
  /// (tests, tooling). The hot path goes through the KeyCache instead.
  ckks::RelinKey expand_rlk() const;
  ckks::GaloisKeys expand_gks() const;
};

/// Parses a tenant's uploaded key bundle against @p ctx: the public key is
/// deserialized (full tamper validation) and dropped; the relinearization
/// key and the Galois keys — rotation steps recovered from their Galois
/// elements (the "ABCK" blobs carry 3^step mod 2N, not the step) — are
/// re-compressed into resident records. Throws InvalidArgument on any
/// malformed, tampered or wrong-kind blob — registration is
/// all-or-nothing.
TenantSession parse_tenant_bundle(
    const std::shared_ptr<const ckks::CkksContext>& ctx,
    const ckks::KeyBundleFrames& bundle);

class SessionRegistry {
 public:
  /// Registers @p session under a fresh id (returned, also written into
  /// the stored session). Ids are never reused.
  u64 add(TenantSession session);

  /// nullptr when unknown — the caller turns that into the typed
  /// kUnknownTenant response.
  std::shared_ptr<const TenantSession> find(u64 tenant) const;

  bool erase(u64 tenant);
  std::size_t size() const;

 private:
  mutable std::shared_mutex m_;
  std::unordered_map<u64, std::shared_ptr<const TenantSession>> tenants_;
  u64 next_id_ = 1;
  obs::Gauge resident_ =
      obs::registry().gauge(obs::catalog::kResidentTenants);
};

}  // namespace abc::server
