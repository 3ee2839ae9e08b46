/**
 * @file
 * OnceMap: a process-wide memo with one once-cell per key.
 *
 * The study's expensive, deterministic artifacts -- curves, op traces,
 * measured kernels, fetch replays -- are each built once per key and
 * then shared by every thread of a sweep.  A single mutex held across
 * a build would serialise the builds of unrelated keys; here the map
 * lock covers only finding (or inserting) a key's slot, and the build
 * itself runs under that slot's own mutex.  Threads asking for
 * different keys build concurrently; threads asking for the same key
 * wait for the one build.
 *
 * A build that throws leaves its slot empty and releases the slot
 * lock as the exception unwinds, so the exception reaches the caller
 * and the next caller retries: nothing is cached on failure.  (A
 * per-slot std::call_once would say the same, but under
 * ThreadSanitizer the call after a throwing build hangs.)
 *
 * Slots live in std::map nodes, which never move, so returned
 * references stay valid for the life of the map.
 */

#ifndef ULECC_BASE_ONCE_MAP_HH
#define ULECC_BASE_ONCE_MAP_HH

#include <map>
#include <mutex>
#include <optional>

namespace ulecc
{

template <class K, class V>
class OnceMap
{
  public:
    /**
     * The value for @p key, built by @p build() on first use.
     * @p build must not ask this map for the same key.
     */
    template <class Build>
    const V &
    get(const K &key, Build &&build)
    {
        Slot *slot;
        {
            std::lock_guard<std::mutex> lock(mtx_);
            slot = &slots_.try_emplace(key).first->second;
        }
        std::lock_guard<std::mutex> lock(slot->mtx);
        if (!slot->value)
            slot->value.emplace(build());
        return *slot->value;
    }

  private:
    struct Slot
    {
        std::mutex mtx;
        std::optional<V> value;
    };

    std::mutex mtx_;
    std::map<K, Slot> slots_;
};

} // namespace ulecc

#endif // ULECC_BASE_ONCE_MAP_HH
