#include "cluster/cluster_router.h"

#include <algorithm>

#include "common/telemetry.h"

namespace videoapp {

ClusterRouter::ClusterRouter(ClusterRouterConfig config)
    : config_(std::move(config))
{}

bool
ClusterRouter::refresh()
{
    // Known topology first (it usually still has live members),
    // then the bootstrap seeds.
    std::vector<ClusterShard> candidates;
    for (const auto &[id, shard] : shards_)
        candidates.push_back(shard);
    for (const ClusterShard &seed : config_.seeds)
        candidates.push_back(seed);
    for (const ClusterShard &addr : candidates) {
        VappClient client;
        if (!client.connect(addr.host, addr.port))
            continue;
        if (!client.send(Opcode::ClusterInfo, Bytes{}))
            continue;
        auto raw = client.receive();
        if (!raw || raw->kind != static_cast<u8>(Status::Ok))
            continue;
        ClusterInfoResponse info;
        if (!parseClusterInfoResponse(raw->payload, info) ||
            info.status != Status::Ok)
            continue;
        installTopology(info);
        VA_TELEM_COUNT("router.refreshes", 1);
        return true;
    }
    return false;
}

void
ClusterRouter::installTopology(const ClusterInfoResponse &info)
{
    // An epoch change can re-address a surviving shard id (a shard
    // rebuilt at a new port): cached connections would reconnect to
    // the old home forever, so drop them all. Same-epoch installs
    // only shed connections to shards that vanished.
    if (info.epoch != epoch_)
        clients_.clear();
    shards_.clear();
    std::vector<u32> ids;
    ids.reserve(info.shards.size());
    for (const ClusterShard &shard : info.shards) {
        shards_[shard.id] = shard;
        ids.push_back(shard.id);
    }
    ring_ = HashRing(ids, info.vnodes);
    epoch_ = info.epoch;
    for (auto it = clients_.begin(); it != clients_.end();)
        it = shards_.count(it->first) ? std::next(it)
                                      : clients_.erase(it);
}

bool
ClusterRouter::handleWrongEpoch(const Bytes &payload)
{
    VA_TELEM_COUNT("router.wrong_epoch", 1);
    ClusterInfoResponse info;
    if (parseClusterInfoResponse(payload, info) &&
        info.status == Status::WrongEpoch && info.epoch > epoch_) {
        // Monotonic: only ever move forward, so a straggler node's
        // stale refusal can never roll the ring back.
        installTopology(info);
        return true;
    }
    const u64 before = epoch_;
    return refresh() && epoch_ > before;
}

u32
ClusterRouter::ownerOf(const std::string &name) const
{
    return ring_.ownerOf(name);
}

VappClient *
ClusterRouter::clientFor(u32 shard)
{
    auto addr = shards_.find(shard);
    if (addr == shards_.end())
        return nullptr;
    VappClient &client = clients_[shard];
    if (!client.connected()) {
        client.setRetryPolicy(config_.retry);
        if (!client.connect(addr->second.host, addr->second.port))
            return nullptr;
    }
    return &client;
}

std::vector<u32>
ClusterRouter::routeOrder(const std::string &name)
{
    // Owner first; every other shard is a correct fallback entry
    // point because nodes forward mis-targeted requests themselves.
    std::vector<u32> order;
    order.reserve(shards_.size());
    const u32 owner = ring_.ownerOf(name);
    order.push_back(owner);
    for (const auto &[id, shard] : shards_)
        if (id != owner)
            order.push_back(id);
    return order;
}

std::optional<GetFramesResponse>
ClusterRouter::tryReplicaRead(const GetFramesRequest &request)
{
    std::vector<u32> successors =
        ring_.successors(request.name, 1);
    if (successors.empty())
        return std::nullopt;
    VappClient *client = clientFor(successors[0]);
    if (client == nullptr)
        return std::nullopt;
    GetFramesRequest degraded = request;
    degraded.allowReplica = true;
    degraded.ringEpoch = epoch_;
    // kWireFlagForwarded: serve locally off the replica blob; a
    // plain request would bounce back to the unreachable owner.
    std::optional<VappClient::RawResponse> raw;
    if (client->send(Opcode::GetFrames,
                     serializeGetFramesRequest(degraded), nullptr,
                     kWireFlagForwarded))
        raw = client->receive();
    if (!raw)
        return std::nullopt;
    GetFramesResponse response;
    if (!parseGetFramesResponse(std::move(raw->payload), response) ||
        (response.status != Status::Ok &&
         response.status != Status::Degraded))
        return std::nullopt;
    VA_TELEM_COUNT("client.replica_reads", 1);
    return response;
}

std::optional<GetFramesResponse>
ClusterRouter::getFrames(const GetFramesRequest &request)
{
    if (!ready() && !refresh())
        return std::nullopt;
    std::vector<u32> tried;
    // A resize mid-request bounces at most a few times (install,
    // re-route, maybe race the next install); beyond that something
    // is wrong and the normal failover budget applies.
    int epoch_bounces = 0;
    std::size_t failovers = 0;
    while (failovers <= shards_.size()) {
        u32 shard = 0;
        bool found = false;
        for (u32 candidate : routeOrder(request.name)) {
            if (std::find(tried.begin(), tried.end(), candidate) ==
                tried.end()) {
                shard = candidate;
                found = true;
                break;
            }
        }
        if (!found)
            break;
        const bool owner_attempt = tried.empty();
        if (VappClient *client = clientFor(shard)) {
            GetFramesRequest stamped = request;
            stamped.ringEpoch = epoch_;
            auto raw = client->callRaw(
                Opcode::GetFrames,
                serializeGetFramesRequest(stamped));
            if (raw) {
                if (raw->kind ==
                    static_cast<u8>(Status::WrongEpoch)) {
                    if (handleWrongEpoch(raw->payload) &&
                        ++epoch_bounces <= 3) {
                        // Fresh ring installed: every shard is a
                        // candidate again under the new placement.
                        tried.clear();
                        continue;
                    }
                } else {
                    GetFramesResponse response;
                    if (parseGetFramesResponse(
                            std::move(raw->payload), response))
                        return response;
                }
            }
        }
        if (owner_attempt) {
            // The owner itself is unreachable: a degraded replica
            // read beats forwarding fallbacks that would only loop
            // back to the same dead owner.
            if (auto replica = tryReplicaRead(request))
                return replica;
        }
        tried.push_back(shard);
        ++failovers;
        VA_TELEM_COUNT("router.failovers", 1);
        refresh();
    }
    return std::nullopt;
}

std::optional<PutResponse>
ClusterRouter::put(const PutRequest &request)
{
    if (!ready() && !refresh())
        return std::nullopt;
    std::vector<u32> tried;
    int epoch_bounces = 0;
    std::size_t failovers = 0;
    while (failovers <= shards_.size()) {
        u32 shard = 0;
        bool found = false;
        for (u32 candidate : routeOrder(request.name)) {
            if (std::find(tried.begin(), tried.end(), candidate) ==
                tried.end()) {
                shard = candidate;
                found = true;
                break;
            }
        }
        if (!found)
            break;
        if (VappClient *client = clientFor(shard)) {
            PutRequest stamped = request;
            stamped.ringEpoch = epoch_;
            auto raw =
                client->callRaw(Opcode::Put,
                                serializePutRequest(stamped));
            if (raw) {
                if (raw->kind ==
                    static_cast<u8>(Status::WrongEpoch)) {
                    if (handleWrongEpoch(raw->payload) &&
                        ++epoch_bounces <= 3) {
                        tried.clear();
                        continue;
                    }
                } else {
                    PutResponse response;
                    if (parsePutResponse(raw->payload, response))
                        return response;
                }
            }
        }
        tried.push_back(shard);
        ++failovers;
        VA_TELEM_COUNT("router.failovers", 1);
        refresh();
    }
    return std::nullopt;
}

std::optional<StatResponse>
ClusterRouter::stat()
{
    if (!ready() && !refresh())
        return std::nullopt;
    StatResponse merged;
    merged.status = Status::Ok;
    bool any = false;
    for (const auto &[id, shard] : shards_) {
        VappClient *client = clientFor(id);
        if (client == nullptr)
            continue;
        if (auto response = client->stat()) {
            any = true;
            merged.videos.insert(merged.videos.end(),
                                 response->videos.begin(),
                                 response->videos.end());
        }
    }
    if (!any)
        return std::nullopt;
    std::sort(merged.videos.begin(), merged.videos.end(),
              [](const ArchiveVideoStat &a,
                 const ArchiveVideoStat &b) {
                  return a.name < b.name;
              });
    return merged;
}

std::optional<ScrubResponse>
ClusterRouter::scrub(const ScrubRequest &request)
{
    if (!ready() && !refresh())
        return std::nullopt;
    ScrubResponse total;
    total.status = Status::Ok;
    bool any = false;
    for (const auto &[id, shard] : shards_) {
        VappClient *client = clientFor(id);
        if (client == nullptr)
            continue;
        if (auto response = client->scrub(request)) {
            any = true;
            total.videos += response->videos;
            total.streams += response->streams;
            total.blocksRead += response->blocksRead;
            total.blocksRewritten += response->blocksRewritten;
            total.bitsCorrected += response->bitsCorrected;
            total.blocksUncorrectable +=
                response->blocksUncorrectable;
            total.streamsMiscorrected +=
                response->streamsMiscorrected;
            total.streamsDamaged += response->streamsDamaged;
        }
    }
    if (!any)
        return std::nullopt;
    return total;
}

} // namespace videoapp
