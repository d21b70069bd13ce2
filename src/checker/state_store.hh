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
 *  - ShardMem (store_mem.hh): where both layers get memory.  InRam
 *    is the classic heap layout; Mmap gives every shard file-backed
 *    growable mappings (anonymous memfd, or files under an explicit
 *    directory) so sealed BFS levels can be unmapped — address space
 *    and residency track the frontier window, the backing file keeps
 *    every byte, and dropped blocks are remapped on demand.
 *
 * Two storage modes (StoreMode, declared with the arena):
 *
 *  - Full: the classic Murphi layout.  States are kept verbatim, so
 *    deduplication is exact and counterexample traces can be rebuilt
 *    from the breadcrumbs.  Only the active prefix is stored
 *    (SystemState::activeBytes()), so one full-mode store holds
 *    states of one device count: the first insert fixes it and a
 *    state with another ndev throws std::invalid_argument.  (On the
 *    Mmap backend, entries whose blocks have been sealed cold are
 *    deduplicated by their stored 64-bit verification fingerprint
 *    instead of refaulting the block — detected-collision semantics
 *    identical to compact mode for exactly those entries; the mapped
 *    window still compares bytes.)
 *  - Compact: Murphi hash compaction.  Only a second 64-bit
 *    verification fingerprint is kept per entry; the frontier's state
 *    bytes live zero-RLE-compressed in a transient byte arena whose
 *    old BFS levels are released (sealLevel), cutting memory per
 *    state by roughly an order of magnitude.  A probe-hash collision
 *    is *detected* by the fingerprint mismatch (counted in
 *    probeCollisions()) and the states stay distinct; an undetected
 *    merge requires both 64-bit values to collide — expected
 *    occurrences ~ n^2 / 2^65 for n states.  Traces cannot be
 *    rebuilt in this mode on the InRam backend; on Mmap the sealed
 *    cells persist in the backing file, so they can.
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
    /** Heap or file-backed (out-of-core) shard memory. */
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

    /** Layer constants re-exported for existing callers/tests. */
    static constexpr std::uint32_t kBlockBits =
        StateArena::kFullBlockBitsRam;
    static constexpr std::uint32_t kBlockSize = 1u << kBlockBits;
    static constexpr std::uint32_t kByteBlockBits =
        StateArena::kByteBlockBits;
    static constexpr std::uint32_t kByteBlockSize =
        1u << kByteBlockBits;
    static constexpr std::size_t kMaxEncodedState =
        StateArena::kMaxEncodedState;

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
        std::uint64_t verify_ = 0; ///< fingerprint (compact/mmap)
        std::uint32_t next_ = 0;   ///< shard-chain scratch
    };

    explicit StateStore(const StoreConfig &config);

    /** Legacy convenience: InRam backend with the given knobs. */
    explicit StateStore(std::size_t initial_buckets = 1 << 16,
                        StoreMode mode = StoreMode::Full,
                        std::uint64_t capacity_limit = 0)
        : StateStore(StoreConfig{initial_buckets, mode,
                                 StoreBackend::InRam, std::string(),
                                 capacity_limit})
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
     * default bytes.  The entry must still be retained (see
     * stateRetained — on recoverable backends every entry is, with
     * sealed blocks remapped on demand, in which case the call must
     * hold no expectation of lock-freedom: quiescent or shard-lock
     * use only).
     */
    void
    stateInto(std::uint32_t id, SystemState &out) const
    {
        shards_[shardOf(id)].arena.stateInto(id & kOffsetMask, out);
    }

    /** True iff the state bytes of @p id are still readable: always
     * in full mode and on recoverable (Mmap) backends; in InRam
     * compact mode, until sealLevel releases the enclosing arena
     * block. */
    bool
    stateRetained(std::uint32_t id) const
    {
        if (mode_ == StoreMode::Full)
            return true;
        return shards_[shardOf(id)].arena.cellRetained(id &
                                                       kOffsetMask);
    }

    /** True iff stateInto works for *every* id ever returned — i.e.
     * counterexample traces are reconstructible: full mode, or a
     * recoverable backend whose sealed cells persist in the backing
     * file. */
    bool
    statesAlwaysReadable() const
    {
        return mode_ == StoreMode::Full ||
               shards_[0].arena.recoverable();
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
     * BFS level barrier hook; call only while quiescent.  Releases
     * the arena blocks of states older than the level that just
     * finished expanding (their bytes are no longer on the hot path)
     * and records the new level boundary.  InRam compact mode frees
     * them for good; Mmap backends unmap them — file keeps the bytes,
     * reads recover them — in both modes.  No-op for InRam full.
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

    /** Memory backend selected at construction. */
    StoreBackend backend() const { return backend_; }

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
    StoreBackend backend_;
    bool needsVerify_;
};

} // namespace cxl

#endif // CXL_CHECKER_STATE_STORE_HH
