#include "server/key_cache.hpp"

#include <chrono>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace abc::server {

KeyCache::KeyCache(std::size_t capacity_bytes) : capacity_(capacity_bytes) {
  ABC_CHECK_ARG(capacity_bytes >= 1,
                "key cache capacity must be at least 1 byte");
}

std::shared_ptr<const ckks::KeySwitchKey> KeyCache::pin_locked(
    const std::shared_ptr<Entry>& entry) {
  ++entry->pins;
  entry->tick = ++tick_;
  // The returned handle aliases the guard: dropping the last copy runs
  // ~PinGuard, which unpins (and lets eviction reconsider the entry).
  auto guard = std::shared_ptr<PinGuard>(new PinGuard{this, entry});
  return std::shared_ptr<const ckks::KeySwitchKey>(std::move(guard),
                                                   entry->key.get());
}

void KeyCache::unpin(const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(m_);
  if (entry->pins > 0) --entry->pins;
  // A pinned working set larger than capacity overshoots the budget; the
  // overshoot is reclaimed here, the moment a pin drops.
  if (resident_ > capacity_) evict_locked();
}

void KeyCache::evict_locked() {
  while (resident_ > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& e = *it->second;
      if (e.building || e.pins != 0) continue;  // never evict in-use keys
      if (victim == entries_.end() || e.tick < victim->second->tick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // only pinned/building left
    resident_ -= victim->second->bytes;
    resident_bytes_.sub(static_cast<i64>(victim->second->bytes));
    evictions_.inc();
    entries_.erase(victim);
  }
}

std::shared_ptr<const ckks::KeySwitchKey> KeyCache::get(
    u64 tenant, const ckks::CompressedKeySwitchKey& rec,
    const std::shared_ptr<const ckks::CkksContext>& ctx) {
  ABC_CHECK_ARG(ctx != nullptr, "null context");
  const Key k{tenant, rec.galois_elt, static_cast<u8>(rec.kind)};
  std::unique_lock<std::mutex> lock(m_);
  const auto it = entries_.find(k);
  if (it != entries_.end()) {
    const std::shared_ptr<Entry> entry = it->second;
    if (entry->building) {
      // Another request is regenerating this key right now: join the
      // flight instead of duplicating the work.
      cv_.wait(lock, [&] { return !entry->building; });
      if (entry->failed) std::rethrow_exception(entry->error);
    }
    hits_.inc();
    return pin_locked(entry);
  }

  // Miss: claim the flight (a placeholder others can wait on), then
  // regenerate with the lock RELEASED — concurrent requests for other
  // keys proceed, and waiters for this one block on the entry, not on
  // the regeneration itself.
  misses_.inc();
  auto entry = std::make_shared<Entry>();
  entries_.emplace(k, entry);
  lock.unlock();

  std::shared_ptr<const ckks::KeySwitchKey> built;
  try {
    ABC_FAILPOINT(fail::points::kServerKeyRegen);
    const auto t0 = std::chrono::steady_clock::now();
    built = std::make_shared<const ckks::KeySwitchKey>(
        ckks::expand_key_switch_key(ctx, rec));
    const auto t1 = std::chrono::steady_clock::now();
    regen_ns_.record(static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  } catch (...) {
    lock.lock();
    entry->failed = true;
    entry->error = std::current_exception();
    entry->building = false;
    // Never poison the cache: the failed placeholder leaves the index, so
    // an identical retry regenerates from scratch.
    const auto self = entries_.find(k);
    if (self != entries_.end() && self->second == entry) {
      entries_.erase(self);
    }
    cv_.notify_all();
    throw;
  }

  // Actual resident size of the expansion: stored_digits pairs of
  // full-limb polys (the eager 2 L^2 baseline counts the dropped digit).
  const std::size_t bytes = 2 * static_cast<std::size_t>(rec.stored_digits) *
                            rec.limbs * ctx->n() * sizeof(u64);
  lock.lock();
  entry->key = std::move(built);
  entry->bytes = bytes;
  entry->building = false;
  // drop_tenant may have removed the placeholder while we were building;
  // waiters still get the key through their Entry handle, but an unmapped
  // entry must not enter the byte budget.
  const auto self = entries_.find(k);
  const bool mapped = self != entries_.end() && self->second == entry;
  if (mapped) {
    resident_ += bytes;
    resident_bytes_.add(static_cast<i64>(bytes));
  }
  std::shared_ptr<const ckks::KeySwitchKey> handle = pin_locked(entry);
  if (mapped) evict_locked();
  cv_.notify_all();
  return handle;
}

void KeyCache::drop_tenant(u64 tenant) {
  std::lock_guard<std::mutex> lock(m_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.tenant != tenant) {
      ++it;
      continue;
    }
    const Entry& e = *it->second;
    if (!e.building) {
      resident_ -= e.bytes;
      resident_bytes_.sub(static_cast<i64>(e.bytes));
    }
    // Pinned or building entries leave the index now; the Entry (and the
    // key) stay alive through outstanding handles until those drop.
    it = entries_.erase(it);
  }
}

KeyCache::Stats KeyCache::stats() const {
  Stats s;
  std::lock_guard<std::mutex> lock(m_);
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  s.resident_bytes = resident_;
  s.entries = entries_.size();
  return s;
}

}  // namespace abc::server
