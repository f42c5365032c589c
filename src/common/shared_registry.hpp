#pragma once

/// @file shared_registry.hpp
/// One live immutable object per key, shared by every caller: get() hands
/// out the object built for @p key while anyone still owns it, and builds a
/// new one otherwise. The registry holds only weak references, so it keeps
/// nothing alive on its own. Thread-safe; concurrent first calls for a key
/// build one object.

#include <map>
#include <memory>
#include <mutex>

namespace abc {

template <class Key, class T>
class SharedRegistry {
 public:
  /// The live object for @p key, or make()'s result, which becomes it.
  template <class Make>
  std::shared_ptr<const T> get(const Key& key, Make&& make) {
    const std::lock_guard lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      if (auto live = it->second.lock()) return live;
    }
    // Building under the lock keeps concurrent first calls to one object.
    // A miss also drops the entries whose objects have died, so the
    // registry stays as small as the set of live objects.
    std::erase_if(entries_,
                  [](const auto& entry) { return entry.second.expired(); });
    std::shared_ptr<const T> built = make();
    entries_[key] = built;
    return built;
  }

 private:
  std::mutex mutex_;
  std::map<Key, std::weak_ptr<const T>> entries_;
};

}  // namespace abc
