#include "checker/state_store.hh"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace cxl
{

StateStore::StateStore(const StoreConfig &config)
    : mode_(config.mode)
{
    if ((mode_ == StoreMode::Full) !=
        (config.backend == StoreBackend::InRam)) {
        throw std::invalid_argument(
            "StateStore: full mode runs on the in-RAM backend and "
            "compact mode on the mmap backend (store kinds ram and "
            "mmap-compact)");
    }
    // The per-shard ceiling from a total-state capacity: hashing
    // spreads entries near-uniformly, so the first shard to fill does
    // so at roughly capacity/kNumShards — close enough for a budget.
    std::uint32_t limit = kOffsetMask;
    if (config.capacityLimit != 0) {
        const std::uint64_t per = std::max<std::uint64_t>(
            1, config.capacityLimit / kNumShards);
        limit = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(per, kOffsetMask));
    }
    const std::size_t per_shard_buckets =
        config.initialBuckets / kNumShards;
    for (Shard &shard : shards_) {
        shard.limit = limit;
        shard.mem = makeShardMem(config.backend, config.dir);
        shard.arena.init(shard.mem.get(), mode_, kOffsetMask);
        // Fingerprints are the identity in compact mode.
        shard.cols.init(shard.mem.get(), mode_ == StoreMode::Compact,
                        per_shard_buckets);
    }
}

void
StateStore::reserveStates(std::uint64_t expected)
{
    const auto per_shard =
        static_cast<std::size_t>(expected / kNumShards + 1);
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.cols.reserveEntries(per_shard);
    }
}

void
StateStore::admitDevicesSlow(std::uint8_t ndev)
{
    std::uint8_t held = 0;
    if (ndev >= 1 && ndev <= kMaxDevices &&
        (ndev_.compare_exchange_strong(held, ndev,
                                       std::memory_order_relaxed) ||
         held == ndev))
        return;
    throw std::invalid_argument(
        "StateStore: a full-mode store keeps one device count; it "
        "holds " +
        std::to_string(held) + "-device states, cannot insert a " +
        std::to_string(ndev) + "-device state");
}

std::pair<std::uint32_t, bool>
StateStore::insert(const SystemState &state, std::uint64_t hash,
                   std::uint32_t parent, std::uint16_t rule_id,
                   std::uint32_t depth)
{
    // Route by the top bits; probe by the low bits, so the two index
    // streams stay independent.  The verification fingerprint is
    // computed before the lock is taken.
    const auto shard_idx =
        static_cast<std::uint32_t>(hash >> (64 - kShardBits));
    admitDevices(state);
    const std::uint64_t verify =
        mode_ == StoreMode::Compact ? state.fingerprint() : 0;
    Shard &shard = shards_[shard_idx];

    std::lock_guard<std::mutex> lock(shard.mutex);
    return probeInsertLocked(shard_idx, shard, state, hash, verify,
                             parent, rule_id, depth);
}

void
StateStore::insertBatch(BatchItem *items, std::size_t count)
{
    if (count == 0)
        return;

    constexpr std::uint32_t kEnd = 0xffffffffu;

    // Device counts are admitted, so a bad batch inserts nothing, and
    // fingerprints computed, before any lock.  (Cell compression
    // happens under the lock instead, but only for the ~third of
    // successors that turn out to be new — cheaper in aggregate than
    // encoding every duplicate up front.)
    for (std::size_t i = 0; i < count; ++i) {
        admitDevices(items[i].state);
        if (mode_ == StoreMode::Compact)
            items[i].verify_ = items[i].state.fingerprint();
    }

    // Group by destination shard: per-shard singly-linked chains
    // through the items themselves, preserving batch order so
    // in-batch duplicates resolve exactly as sequential inserts.
    std::uint32_t head[kNumShards];
    std::uint32_t tail[kNumShards];
    for (std::uint32_t s = 0; s < kNumShards; ++s)
        head[s] = kEnd;
    for (std::size_t i = 0; i < count; ++i) {
        const auto s = static_cast<std::uint32_t>(
            items[i].hash >> (64 - kShardBits));
        items[i].next_ = kEnd;
        if (head[s] == kEnd)
            head[s] = static_cast<std::uint32_t>(i);
        else
            items[tail[s]].next_ = static_cast<std::uint32_t>(i);
        tail[s] = static_cast<std::uint32_t>(i);
    }

    // One lock acquisition per destination shard per batch.
    for (std::uint32_t s = 0; s < kNumShards; ++s) {
        if (head[s] == kEnd)
            continue;
        Shard &shard = shards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (std::uint32_t i = head[s]; i != kEnd;
             i = items[i].next_) {
            BatchItem &item = items[i];
            std::tie(item.id, item.inserted) = probeInsertLocked(
                s, shard, item.state, item.hash, item.verify_,
                item.parent, item.rule, item.depth);
        }
    }
}

std::pair<std::uint32_t, bool>
StateStore::probeInsertLocked(std::uint32_t shard_idx, Shard &shard,
                              const SystemState &state,
                              std::uint64_t hash, std::uint64_t verify,
                              std::uint32_t parent,
                              std::uint16_t rule_id,
                              std::uint32_t depth)
{
    ShardColumns &cols = shard.cols;
    // Grow at 3/4 load; power-of-two capacity keeps the probe a mask.
    cols.maybeGrow();

    std::uint64_t slot = hash & cols.mask();
    for (;;) {
        const std::uint32_t bucket = cols.bucketAt(slot);
        if (bucket == 0)
            break;
        const std::uint32_t off = bucket - 1;
        if (cols.hashAt(off) == hash) {
            // Identity: in compact mode the verification fingerprint,
            // in full mode the state bytes.  A probe-hash match with
            // an identity mismatch is a detected collision — the
            // states stay distinct and the probe continues.
            const bool same =
                mode_ == StoreMode::Compact
                    ? cols.verifyAt(off) == verify
                    : std::memcmp(shard.arena.fullSlot(off), &state,
                                  shard.arena.fullStride()) == 0;
            if (same)
                return {(shard_idx << kOffsetBits) | off, false};
            cols.bumpCollisions();
        }
        slot = (slot + 1) & cols.mask();
    }

    // kOffsetMask itself is unusable: shard kNumShards-1 would pack
    // it to the kNoParent sentinel.  The per-run limit (when set) is
    // always <= that.
    if (cols.count() >= shard.limit) {
        throw StoreFullError(
            shard_idx,
            "StateStore shard " + std::to_string(shard_idx) +
                " full (per-shard limit " +
                std::to_string(shard.limit) +
                " entries); pre-size with --expect-states, raise the "
                "run's state budget, or pick the other store kind "
                "(--store=ram|mmap-compact: mmap-compact cuts "
                "bytes/state ~10x and pages sealed levels out of "
                "core)");
    }

    const std::uint32_t off =
        cols.append(hash, verify, parent, rule_id, depth);
    if (mode_ == StoreMode::Full)
        shard.arena.placeFull(off, state);
    else
        shard.arena.appendCell(shard_idx, off, state);

    cols.setBucket(slot, off + 1);
    total_.fetch_add(1, std::memory_order_release);
    return {(shard_idx << kOffsetBits) | off, true};
}

void
StateStore::sealLevel()
{
    if (mode_ == StoreMode::Full)
        return; // full-mode slots are never released
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.arena.seal();
    }
}

std::uint64_t
StateStore::probeCollisions() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.cols.collisions();
    return total;
}

std::uint64_t
StateStore::mappedBytes() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.mem->mappedBytes();
    return total;
}

std::uint64_t
StateStore::backingFileBytes() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.mem->backingFileBytes();
    return total;
}

} // namespace cxl
