/**
 * @file
 * Visited-state store of the explicit-state checker: the engine-facing
 * façade over three layers.
 *
 * The store is sharded for concurrency: a state's 64-bit probe hash
 * routes it (top bits) to one of kNumShards lock-striped shards, each
 * a power-of-two open-addressing table.  This façade owns the
 * probe/insert/batch algorithm, packed-id semantics and the
 * per-shard locks; the data lives in two layers below it, both
 * allocated from a per-shard memory backend:
 *
 *  - ShardColumns (store_columns.hh): the struct-of-arrays entry
 *    columns — probe hash, verification fingerprint, rule, and
 *    parent paired with depth, each a flat array — plus the bucket
 *    array.  Shard growth rehashes from the stored probe hashes,
 *    never from state bytes.
 *  - StateArena (store_arena.hh): the state bytes, as full-mode
 *    slots at the active-prefix stride or zero-RLE compact cells,
 *    with the sealLevel() block-release machinery.
 *  - ShardMem (store_mem.hh): where both layers get memory: the heap
 *    (InRam) or per-shard file-backed growable mappings (Mmap;
 *    anonymous memfd, or files under an explicit directory).
 *
 * Two store kinds, each one storage mode (StoreMode, declared with
 * the arena) on its one backend:
 *
 *  - Full on InRam (`ram`): the classic Murphi layout.  States are
 *    kept verbatim, so deduplication is exact and counterexample
 *    traces can be rebuilt from the breadcrumbs.  Only the active
 *    prefix is stored (SystemState::activeBytes()), so one full-mode
 *    store holds states of one device count: the first insert fixes
 *    it and a state with another ndev throws std::invalid_argument.
 *  - Compact on Mmap (`mmap-compact`): Murphi hash compaction.  Only
 *    a second 64-bit verification fingerprint is kept per entry; the
 *    state bytes live zero-RLE-compressed in a byte arena whose old
 *    BFS levels are unmapped at each sealLevel, so address space and
 *    residency track the frontier window while the backing file keeps
 *    every cell — memory per state drops by roughly an order of
 *    magnitude and traces can still be rebuilt.  A probe-hash
 *    collision is *detected* by the fingerprint mismatch (counted in
 *    probeCollisions()) and the states stay distinct; an undetected
 *    merge requires both 64-bit values to collide — expected
 *    occurrences ~ n^2 / 2^65 for n states.
 *
 * The other two (mode, backend) pairings are rejected at
 * construction.
 *
 * State identifiers are (shard, offset) pairs packed into a u32:
 * the top kShardBits select the shard, the low kOffsetBits index the
 * shard's entry columns.  Packed ids are stable for the lifetime of
 * the store, identical across backends, and never collide with
 * kNoParent.
 *
 * Thread-safety: insert() and insertBatch() may be called
 * concurrently from any number of threads.  stateInto() is safe
 * concurrently with inserts *for ids published before the current
 * expansion phase began* (the arena blocks holding them are fixed,
 * and the block/offset spines never reallocate).  depthAt(),
 * parentAt(), ruleAt() and sealLevel() must only be used while the
 * store is quiescent — the explorer calls them between depth
 * barriers or after termination.
 *
 * A duplicate insert leaves the stored entry's breadcrumbs (depth,
 * parent, rule) untouched: the first path to reach a state wins.
 * Under the depth-synchronized BFS no duplicate arrives shallower
 * than the entry it matches.
 */

#ifndef CXL_CHECKER_STATE_STORE_HH
#define CXL_CHECKER_STATE_STORE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "checker/store_arena.hh"
#include "checker/store_columns.hh"
#include "checker/store_mem.hh"
#include "protocol/state.hh"

namespace cxl
{

/**
 * A StateStore shard ran out of room: its entry count reached the
 * capacity limit (architectural 2^28 per shard, or the smaller
 * per-run limit derived from ExploreOptions::storeCapacity), or a
 * compact-mode shard exhausted its 32-bit arena offset space.  The
 * explorer catches this and converts it into a graceful governed stop
 * (StopReason::ShardFull) — the explored prefix stays a valid
 * partial result.  what() names the shard, its computed entry limit
 * and the available --store kinds.
 */
class StoreFullError : public std::length_error
{
  public:
    StoreFullError(std::uint32_t shard, const std::string &what)
        : std::length_error(what), shard_(shard)
    {
    }

    /** Index of the shard that filled first. */
    std::uint32_t shard() const { return shard_; }

  private:
    std::uint32_t shard_;
};

/** Construction parameters of a StateStore (see the file comment for
 * what each axis selects). */
struct StoreConfig {
    /** Total bucket hint, split across shards. */
    std::size_t initialBuckets = 1 << 16;
    /** Full (verbatim states) or Compact (hash compaction). */
    StoreMode mode = StoreMode::Full;
    /** Heap or file-backed (out-of-core) shard memory; must be InRam
     * for Full and Mmap for Compact. */
    StoreBackend backend = StoreBackend::InRam;
    /** Mmap backend: backing directory; "" = anonymous in-memory
     * files (memfd). */
    std::string dir;
    /**
     * Total-state ceiling enforced per shard (each shard holds at
     * most max(1, capacityLimit / kNumShards) entries; inserts beyond
     * that throw StoreFullError).  0 means the architectural
     * per-shard maximum.  Exists so the shard-full path is testable
     * without 2^28 inserts, and as the contract point for bounded
     * runs.
     */
    std::uint64_t capacityLimit = 0;
};

/** Sharded dense store of deduplicated states with BFS breadcrumbs. */
class StateStore
{
  public:
    /** Sentinel parent index for root states. */
    static constexpr std::uint32_t kNoParent = 0xffffffffu;

    /** log2 of the shard count. */
    static constexpr std::uint32_t kShardBits = 4;
    /** Number of lock-striped shards. */
    static constexpr std::uint32_t kNumShards = 1u << kShardBits;
    /** Bits of a packed id addressing within a shard. */
    static constexpr std::uint32_t kOffsetBits = 32 - kShardBits;
    /** Mask extracting the offset from a packed id. */
    static constexpr std::uint32_t kOffsetMask =
        (1u << kOffsetBits) - 1;

    /**
     * One pending insert of a batched flush.  The caller fills state,
     * hash (the state's probe hash) and the breadcrumbs; insertBatch
     * fills id and inserted.
     */
    struct BatchItem {
        SystemState state;
        std::uint64_t hash = 0;
        std::uint32_t parent = kNoParent;
        std::uint32_t depth = 0;
        std::uint16_t rule = 0;
        // Filled by insertBatch:
        std::uint32_t id = 0;
        bool inserted = false;

      private:
        friend class StateStore;
        std::uint64_t verify_ = 0; ///< fingerprint (compact)
        std::uint32_t next_ = 0;   ///< shard-chain scratch
    };

    /** @throws std::invalid_argument for a (mode, backend) pairing
     * other than (Full, InRam) or (Compact, Mmap). */
    explicit StateStore(const StoreConfig &config);

    /** Convenience: the mode's backend, anonymous backing files. */
    explicit StateStore(std::size_t initial_buckets = 1 << 16,
                        StoreMode mode = StoreMode::Full,
                        std::uint64_t capacity_limit = 0)
        : StateStore(StoreConfig{initial_buckets, mode,
                                 mode == StoreMode::Full
                                     ? StoreBackend::InRam
                                     : StoreBackend::Mmap,
                                 std::string(), capacity_limit})
    {
    }

    StateStore(const StateStore &) = delete;
    StateStore &operator=(const StateStore &) = delete;

    /**
     * Pre-size every shard for ~expected/kNumShards entries: bucket
     * arrays sized for <= 0.5 load at the hint and entry columns
     * reserved, so a run of the expected size performs no rehash and
     * no column reallocation.  Callable only while quiescent.
     */
    void reserveStates(std::uint64_t expected);

    /**
     * Insert a state if new (probe hash computed internally).
     *
     * @return (packed id, inserted): id of the canonical entry for the
     *         state, and whether this call created it.
     */
    std::pair<std::uint32_t, bool>
    insert(const SystemState &state, std::uint32_t parent,
           std::uint16_t rule_id, std::uint32_t depth)
    {
        return insert(state, state.hash(), parent, rule_id, depth);
    }

    /**
     * Insert with a precomputed probe hash.  Parallel workers hash
     * outside the shard lock and pass the value here so the lock only
     * covers the probe/append.  (The verification fingerprint, where
     * kept, is always computed internally from the state bytes — it
     * is the identity, not a routing hint, so it cannot be forged.)
     */
    std::pair<std::uint32_t, bool>
    insert(const SystemState &state, std::uint64_t hash,
           std::uint32_t parent, std::uint16_t rule_id,
           std::uint32_t depth);

    /**
     * Batched insert: deduplicate/insert every item, taking each
     * destination shard's lock once per batch instead of once per
     * item.  Items are grouped by shard (counting sort on the hash's
     * top bits) and processed in batch order within a shard, so
     * duplicate items inside one batch resolve exactly as sequential
     * inserts would.  Results are returned through item.id /
     * item.inserted.
     */
    void insertBatch(BatchItem *items, std::size_t count);

    /**
     * Copy/decode the state bytes for a packed id into @p out — the
     * store's only read path.  The active prefix is copied (full) or
     * decoded (compact) and the inactive device slots are left as
     * default bytes.  A compact entry from a sealed level is remapped
     * from the backing file first, so such reads must be quiescent
     * or hold the shard lock.
     */
    void
    stateInto(std::uint32_t id, SystemState &out) const
    {
        shards_[shardOf(id)].arena.stateInto(id & kOffsetMask, out);
    }

    /** Breadcrumb accessors; quiescent use only (the columns may
     * reallocate during concurrent inserts). */
    std::uint32_t
    parentAt(std::uint32_t id) const
    {
        return shards_[shardOf(id)].cols.parentAt(id & kOffsetMask);
    }
    std::uint16_t
    ruleAt(std::uint32_t id) const
    {
        return shards_[shardOf(id)].cols.ruleAt(id & kOffsetMask);
    }

    /** BFS depth of @p id; quiescent use only. */
    std::uint32_t
    depthAt(std::uint32_t id) const
    {
        return shards_[shardOf(id)].cols.depthAt(id & kOffsetMask);
    }

    /**
     * BFS level barrier hook; call only while quiescent.  In compact
     * mode, unmaps the arena blocks of states older than the level
     * that just finished expanding (their bytes are no longer on the
     * hot path; the backing file keeps them and reads remap them)
     * and records the new level boundary.  No-op in full mode.
     */
    void sealLevel();

    /** Total states across all shards. */
    std::size_t
    size() const
    {
        return total_.load(std::memory_order_acquire);
    }

    /** Storage mode selected at construction. */
    StoreMode mode() const { return mode_; }

    /** Bytes currently mapped by file-backed shard memory (0 on
     * InRam).  Readable from any thread (relaxed counters). */
    std::uint64_t mappedBytes() const;

    /** Total size of the shards' backing files (0 on InRam). */
    std::uint64_t backingFileBytes() const;

    /**
     * Probe-hash collisions observed so far: inserts whose 64-bit
     * probe hash matched an existing entry holding a different state
     * (full mode: state bytes differed; compact mode: verification
     * fingerprint differed).  Each one is a state pair that
     * probe-hash-only compaction would have merged silently.
     * Quiescent use only.
     */
    std::uint64_t probeCollisions() const;

    /** Shard a packed id belongs to. */
    static constexpr std::uint32_t
    shardOf(std::uint32_t id)
    {
        return id >> kOffsetBits;
    }

  private:
    struct alignas(64) Shard {
        mutable std::mutex mutex;
        std::unique_ptr<ShardMem> mem;
        ShardColumns cols;
        StateArena arena;
        /** Entry ceiling; inserting past it throws StoreFullError. */
        std::uint32_t limit = kOffsetMask;
    };

    /** Probe for @p state and append it if new; the shard lock must
     * be held.  @return (packed id, inserted), as insert(). */
    std::pair<std::uint32_t, bool>
    probeInsertLocked(std::uint32_t shard_idx, Shard &shard,
                      const SystemState &state, std::uint64_t hash,
                      std::uint64_t verify, std::uint32_t parent,
                      std::uint16_t rule_id, std::uint32_t depth);

    /** Full mode: admit @p state's device count, fixing it on the
     * first insert.  @throws std::invalid_argument on a mismatch. */
    void
    admitDevices(const SystemState &state)
    {
        if (mode_ == StoreMode::Full &&
            state.ndev != ndev_.load(std::memory_order_relaxed))
            admitDevicesSlow(state.ndev);
    }
    void admitDevicesSlow(std::uint8_t ndev);

    Shard shards_[kNumShards];
    std::atomic<std::uint64_t> total_{0};
    /** Full mode: device count of every stored state (0 = none yet). */
    std::atomic<std::uint8_t> ndev_{0};
    StoreMode mode_;
};

} // namespace cxl

#endif // CXL_CHECKER_STATE_STORE_HH
