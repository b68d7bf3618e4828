/**
 * @file
 * Sharded LRU cache of decoded GOPs under a byte budget.
 *
 * A GET_FRAMES miss pays the read path — cell read, BCH decode,
 * decrypt, reassembly and the entropy decode of the GOP's reference
 * closure (or of the whole video when it fills the cache); the hit
 * path serves the *pre-serialized* GET_FRAMES response payload of
 * the requested GOP straight from memory. Entries are refcounted
 * (`std::shared_ptr<const CachedGop>`): a hit pins the entry so the
 * event loop can write it to any number of sockets with zero copies
 * even if the entry is evicted mid-write. The payload CRC is
 * memoized at insert, so a hit costs neither a serialize nor a CRC
 * pass. Entries are keyed by (video name, GOP index, key id) so
 * different decryption keys never alias, and only *exact* reads
 * (no error injection) are cached — an injected read is a stochastic
 * experiment whose result must not be replayed.
 *
 * Sharding: the key hashes to one of kShards independent LRU lists,
 * each guarded by its own mutex with its own slice of the byte
 * budget, so concurrent server workers rarely contend. Eviction is
 * LRU within the shard; an entry bigger than a shard's whole budget
 * is simply not cached. PUT invalidates the video's entries, SCRUB
 * invalidates everything (repair rewrites cells archive-wide).
 *
 * Telemetry (server.cache.*): hits, misses, evictions, plus
 * insert/invalidate counts; bytes() and entries() back the HEALTH
 * probe.
 */

#ifndef VIDEOAPP_SERVER_FRAME_CACHE_H_
#define VIDEOAPP_SERVER_FRAME_CACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "server/wire.h"

namespace videoapp {

/** Cache key: one GOP of one video decoded under one key. */
struct GopKey
{
    std::string video;
    u32 gop = 0;
    /** Key-management id (0 = unencrypted read). */
    u32 keyId = 0;

    bool
    operator==(const GopKey &o) const
    {
        return gop == o.gop && keyId == o.keyId && video == o.video;
    }
};

/** One GOP with its frames already packed as I420, plus its response
 * fields: the input of makeCachedGop(const DecodedGop &). */
struct DecodedGop
{
    u16 width = 0;
    u16 height = 0;
    u32 firstFrame = 0;
    u32 frameCount = 0;
    /** Total GOPs of the parent video. */
    u32 gopCount = 0;
    u64 blocksCorrected = 0;
    u64 blocksUncorrectable = 0;
    Bytes i420;
};

/**
 * An immutable GET_FRAMES response payload, ready to hit the wire,
 * plus its memoized CRC. Cache entries carry fromCache = true; a
 * miss's own response (fromCache = false, never cached) takes the
 * same form so it reaches the socket without another copy. Handed
 * out as shared_ptr<const CachedGop>, so a response in flight keeps
 * its bytes alive past eviction.
 */
struct CachedGop
{
    /** The response's status byte, which is also the frame kind. */
    Status status = Status::Ok;
    /** Total GOPs of the parent video. */
    u32 gopCount = 0;
    /** Serialized GetFramesResponse payload. */
    Bytes payload;
    /** crc32(payload), computed once at build time. */
    u32 payloadCrc = 0;

    /** Budget charge: payload plus a small fixed overhead. */
    std::size_t
    chargedBytes() const
    {
        return payload.size() + 160;
    }
};

using CachedGopPtr = std::shared_ptr<const CachedGop>;

/** Serialize @p gop into an immutable wire-ready cache entry
 * (fromCache = true). */
CachedGopPtr makeCachedGop(const DecodedGop &gop);

/**
 * Pack one GOP straight out of a decoded video: @p head's fields,
 * then display frames [head.firstFrame, +head.frameCount) of @p video
 * (whose frames[0] is display frame @p video_first) copied once into
 * a payload reserved to its final size (head.i420 is ignored), CRC'd
 * once.
 */
CachedGopPtr makeCachedGop(const GetFramesResponse &head,
                           const Video &video,
                           std::size_t video_first = 0);

class FrameCache
{
  public:
    static constexpr unsigned kShards = 8;

    /** @p byte_budget is split evenly across the shards. */
    explicit FrameCache(std::size_t byte_budget);

    FrameCache(const FrameCache &) = delete;
    FrameCache &operator=(const FrameCache &) = delete;

    /** Hit: a pin on the cached entry (refreshed to MRU); nullptr on
     * miss. The entry stays valid after eviction until released. */
    CachedGopPtr get(const GopKey &key);

    /** True when a GOP of @p key's (video, key id) other than
     * key.gop is cached. Counts no hit or miss and refreshes no
     * entry: it scans every shard, as eraseVideo does. */
    bool holdsOtherGop(const GopKey &key);

    /** Insert (or refresh) @p gop, evicting LRU entries as needed.
     * Oversized entries (beyond one shard's budget) are skipped. */
    void put(const GopKey &key, CachedGopPtr gop);

    /** Convenience: serialize and insert a freshly decoded GOP. */
    void put(const GopKey &key, const DecodedGop &gop);

    /** Drop every GOP of @p video (all key ids). */
    void eraseVideo(const std::string &video);

    /** Drop everything (scrub invalidation). */
    void clear();

    std::size_t bytes() const { return bytes_.load(); }
    std::size_t entries() const { return entries_.load(); }
    u64 hits() const { return hits_.load(); }
    u64 misses() const { return misses_.load(); }
    u64 evictions() const { return evictions_.load(); }

  private:
    struct Entry
    {
        GopKey key;
        CachedGopPtr gop;
    };

    struct GopKeyHash
    {
        std::size_t operator()(const GopKey &k) const;
    };

    struct Shard
    {
        std::mutex mutex;
        /** Front = most recently used. */
        std::list<Entry> lru;
        std::unordered_map<GopKey, std::list<Entry>::iterator,
                           GopKeyHash>
            index;
        std::size_t bytes = 0;
    };

    Shard &shardFor(const GopKey &key);

    const std::size_t shardBudget_;
    std::vector<Shard> shards_;
    std::atomic<std::size_t> bytes_{0};
    std::atomic<std::size_t> entries_{0};
    std::atomic<u64> hits_{0};
    std::atomic<u64> misses_{0};
    std::atomic<u64> evictions_{0};
};

} // namespace videoapp

#endif // VIDEOAPP_SERVER_FRAME_CACHE_H_
