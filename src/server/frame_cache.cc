#include "server/frame_cache.h"

#include <functional>

#include "common/crc32.h"
#include "common/telemetry.h"
#include "server/wire.h"

namespace videoapp {

namespace {

CachedGopPtr
sealPayload(Status status, u32 gop_count, Bytes payload)
{
    auto entry = std::make_shared<CachedGop>();
    entry->status = status;
    entry->gopCount = gop_count;
    entry->payload = std::move(payload);
    entry->payloadCrc = crc32(entry->payload);
    return entry;
}

} // namespace

CachedGopPtr
makeCachedGop(const DecodedGop &gop)
{
    GetFramesResponse head;
    head.status =
        gop.blocksUncorrectable > 0 ? Status::Partial : Status::Ok;
    head.width = gop.width;
    head.height = gop.height;
    head.firstFrame = gop.firstFrame;
    head.frameCount = gop.frameCount;
    head.gopCount = gop.gopCount;
    head.fromCache = true;
    head.blocksCorrected = gop.blocksCorrected;
    head.blocksUncorrectable = gop.blocksUncorrectable;
    return sealPayload(head.status, head.gopCount,
                       serializeGetFramesResponse(head, gop.i420));
}

CachedGopPtr
makeCachedGop(const GetFramesResponse &head, const Video &video,
              std::size_t video_first)
{
    return sealPayload(head.status, head.gopCount,
                       serializeGetFramesResponse(head, video, video_first));
}

std::size_t
FrameCache::GopKeyHash::operator()(const GopKey &k) const
{
    std::size_t h = std::hash<std::string>{}(k.video);
    h ^= h >> 23;
    h = h * 0x9E3779B97F4A7C15ull + k.gop;
    h = h * 0x9E3779B97F4A7C15ull + k.keyId;
    return h;
}

FrameCache::FrameCache(std::size_t byte_budget)
    : shardBudget_((byte_budget > 0 ? byte_budget : 1) / kShards + 1),
      shards_(kShards)
{}

FrameCache::Shard &
FrameCache::shardFor(const GopKey &key)
{
    return shards_[GopKeyHash{}(key) % kShards];
}

CachedGopPtr
FrameCache::get(const GopKey &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        VA_TELEM_COUNT("server.cache.misses", 1);
        return nullptr;
    }
    // Refresh to MRU.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    VA_TELEM_COUNT("server.cache.hits", 1);
    return it->second->gop;
}

void
FrameCache::put(const GopKey &key, CachedGopPtr gop)
{
    if (!gop)
        return;
    const std::size_t charge = gop->chargedBytes();
    if (charge > shardBudget_)
        return; // would evict the whole shard for one entry
    Shard &shard = shardFor(key);
    std::lock_guard lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        // Replace in place (e.g. re-decode after an invalidation
        // race); adjust the byte accounting to the new size. The old
        // entry stays alive for any response still writing it.
        std::size_t old = it->second->gop->chargedBytes();
        shard.bytes -= old;
        bytes_.fetch_sub(old, std::memory_order_relaxed);
        it->second->gop = std::move(gop);
        shard.bytes += charge;
        bytes_.fetch_add(charge, std::memory_order_relaxed);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
    }
    while (shard.bytes + charge > shardBudget_ &&
           !shard.lru.empty()) {
        Entry &victim = shard.lru.back();
        std::size_t victim_bytes = victim.gop->chargedBytes();
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        shard.bytes -= victim_bytes;
        bytes_.fetch_sub(victim_bytes, std::memory_order_relaxed);
        entries_.fetch_sub(1, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        VA_TELEM_COUNT("server.cache.evictions", 1);
    }
    shard.lru.push_front(Entry{key, std::move(gop)});
    shard.index[key] = shard.lru.begin();
    shard.bytes += charge;
    bytes_.fetch_add(charge, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    VA_TELEM_COUNT("server.cache.inserts", 1);
}

void
FrameCache::put(const GopKey &key, const DecodedGop &gop)
{
    put(key, makeCachedGop(gop));
}

bool
FrameCache::holdsOtherGop(const GopKey &key)
{
    for (Shard &shard : shards_) {
        std::lock_guard lock(shard.mutex);
        for (const Entry &e : shard.lru)
            if (e.key.gop != key.gop && e.key.keyId == key.keyId &&
                e.key.video == key.video)
                return true;
    }
    return false;
}

void
FrameCache::eraseVideo(const std::string &video)
{
    for (Shard &shard : shards_) {
        std::lock_guard lock(shard.mutex);
        for (auto it = shard.lru.begin(); it != shard.lru.end();) {
            if (it->key.video != video) {
                ++it;
                continue;
            }
            std::size_t freed = it->gop->chargedBytes();
            shard.index.erase(it->key);
            it = shard.lru.erase(it);
            shard.bytes -= freed;
            bytes_.fetch_sub(freed, std::memory_order_relaxed);
            entries_.fetch_sub(1, std::memory_order_relaxed);
            VA_TELEM_COUNT("server.cache.invalidated", 1);
        }
    }
}

void
FrameCache::clear()
{
    for (Shard &shard : shards_) {
        std::lock_guard lock(shard.mutex);
        std::size_t dropped = shard.lru.size();
        bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
        entries_.fetch_sub(dropped, std::memory_order_relaxed);
        VA_TELEM_COUNT("server.cache.invalidated", dropped);
        shard.index.clear();
        shard.lru.clear();
        shard.bytes = 0;
    }
}

} // namespace videoapp
