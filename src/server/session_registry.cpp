#include "server/session_registry.hpp"

#include <utility>

#include "common/check.hpp"

namespace abc::server {

std::shared_ptr<const ckks::CkksContext> ContextCache::get_or_create(
    const ckks::CkksParams& params) {
  std::lock_guard<std::mutex> lock(m_);
  for (const auto& [key, ctx] : entries_) {
    if (key == params) {
      hits_.inc();
      return ctx;
    }
  }
  misses_.inc();
  // Scalar backend on purpose (see the header): request-level parallelism
  // belongs to the daemon's per-core workers.
  auto ctx = ckks::CkksContext::create(params);
  entries_.emplace_back(params, ctx);
  return ctx;
}

std::size_t ContextCache::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return entries_.size();
}

const ckks::CompressedKeySwitchKey* TenantSession::galois_record_for(
    int step) const noexcept {
  const std::size_t i = ckks::find_rotation_step(gk_steps, step, slots);
  return i < gks.size() ? &gks[i] : nullptr;
}

std::size_t TenantSession::compressed_key_bytes() const noexcept {
  std::size_t total = rlk.resident_bytes();
  for (const ckks::CompressedKeySwitchKey& rec : gks) {
    total += rec.resident_bytes();
  }
  return total;
}

std::size_t TenantSession::expanded_key_bytes() const noexcept {
  if (ctx == nullptr) return 0;
  const std::size_t n = ctx->n();
  std::size_t total = rlk.expanded_bytes(n);
  for (const ckks::CompressedKeySwitchKey& rec : gks) {
    total += rec.expanded_bytes(n);
  }
  return total;
}

ckks::RelinKey TenantSession::expand_rlk() const {
  return ckks::RelinKey{ckks::expand_key_switch_key(ctx, rlk)};
}

ckks::GaloisKeys TenantSession::expand_gks() const {
  ckks::GaloisKeys out;
  out.slots = slots;
  out.steps = gk_steps;
  out.keys.reserve(gks.size());
  for (const ckks::CompressedKeySwitchKey& rec : gks) {
    out.keys.push_back(ckks::expand_key_switch_key(ctx, rec));
  }
  return out;
}

TenantSession parse_tenant_bundle(
    const std::shared_ptr<const ckks::CkksContext>& ctx,
    const ckks::KeyBundleFrames& bundle) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  TenantSession session;
  session.ctx = ctx;
  // Deserialized for validation only (tamper checks, regenerability
  // proof), then dropped: the daemon never encrypts under a tenant key.
  (void)deserialize_public_key(ctx, bundle.public_key);
  ckks::KeySwitchKey rlk = deserialize_key_switch_key(ctx, bundle.relin_key);
  ABC_CHECK_ARG(rlk.kind == ckks::KeySwitchKey::Kind::kRelin,
                "bundle relin slot holds a non-relin key");
  session.rlk = ckks::compress_key_switch_key(ctx, rlk);

  // Recover each Galois key's rotation step from its group element: walk
  // g = 3^s mod 2N once (the generator the encoder's slot order is built
  // on) and invert the map. O(slots) total, paid once per registration.
  const std::size_t n = ctx->n();
  const std::size_t slots = ctx->slots();
  std::unordered_map<u32, int> elt_to_step;
  elt_to_step.reserve(slots);
  u64 g = 1;
  for (std::size_t s = 1; s < slots; ++s) {
    g = (g * 3) % (2 * n);
    elt_to_step.emplace(static_cast<u32>(g), static_cast<int>(s));
  }

  session.slots = slots;
  session.gk_steps.reserve(bundle.galois_keys.size());
  session.gks.reserve(bundle.galois_keys.size());
  for (const std::vector<u8>& blob : bundle.galois_keys) {
    ckks::KeySwitchKey gk = deserialize_key_switch_key(ctx, blob);
    ABC_CHECK_ARG(gk.kind == ckks::KeySwitchKey::Kind::kGalois,
                  "bundle Galois slot holds a non-Galois key");
    const auto it = elt_to_step.find(gk.galois_elt);
    ABC_CHECK_ARG(it != elt_to_step.end(),
                  "Galois element is not a slot rotation for these "
                  "parameters");
    session.gk_steps.push_back(it->second);
    session.gks.push_back(ckks::compress_key_switch_key(ctx, gk));
  }
  return session;
}

u64 SessionRegistry::add(TenantSession session) {
  std::unique_lock<std::shared_mutex> lock(m_);
  const u64 id = next_id_++;
  session.id = id;
  tenants_.emplace(id,
                   std::make_shared<const TenantSession>(std::move(session)));
  resident_.add(1);
  return id;
}

std::shared_ptr<const TenantSession> SessionRegistry::find(u64 tenant) const {
  std::shared_lock<std::shared_mutex> lock(m_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second;
}

bool SessionRegistry::erase(u64 tenant) {
  std::unique_lock<std::shared_mutex> lock(m_);
  const bool erased = tenants_.erase(tenant) != 0;
  if (erased) resident_.sub(1);
  return erased;
}

std::size_t SessionRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(m_);
  return tenants_.size();
}

}  // namespace abc::server
