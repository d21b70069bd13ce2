/**
 * @file
 * Shard-column layer of the visited-state store.
 *
 * One ShardColumns instance holds a shard's struct-of-arrays entry
 * columns — probe hash, verification fingerprint, parent, rule, and
 * the chunked atomic depth column — plus the open-addressing bucket
 * array, all allocated from the shard's ShardMem backend
 * (store_mem.hh).  The probe/insert *algorithm* stays in the
 * StateStore façade; this layer only owns the memory layout:
 *
 *  - the hash/verify/parent/rule columns and the bucket array are
 *    backend flats — they may move when grown, so they are touched
 *    only under the shard lock (or quiescent), matching the façade's
 *    published thread-safety contract;
 *  - the depth column lives in fixed-size chunks (backend chunkAlloc,
 *    addresses never move) behind a fully-reserved spine, so column
 *    growth never copies it.
 *
 * Growth doubles the entry capacity (realloc-style, preserved by the
 * backend) and rehashes buckets from the stored probe hashes only —
 * state bytes are never touched, which is what lets the arena layer
 * drop them independently.
 */

#ifndef CXL_CHECKER_STORE_COLUMNS_HH
#define CXL_CHECKER_STORE_COLUMNS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "checker/store_mem.hh"

namespace cxl
{

/** One shard's SoA entry columns + probe buckets (see file comment). */
class ShardColumns
{
  public:
    /** log2 of entries per depth-column chunk. */
    static constexpr std::uint32_t kDepthChunkBits = 16;
    static constexpr std::uint32_t kDepthChunkSize =
        1u << kDepthChunkBits;

    /**
     * Bind to a backend and size the initial bucket array.
     * @p keep_verifies stores the 64-bit verification fingerprint per
     * entry (compact mode, and full-mode backends that dedup sealed
     * entries by fingerprint).  @p max_entries bounds the depth-chunk
     * spine reservation.
     */
    void init(ShardMem *mem, bool keep_verifies,
              std::size_t initial_buckets, std::uint32_t max_entries);

    std::uint32_t count() const { return count_; }
    std::uint64_t mask() const { return mask_; }

    std::uint32_t bucketAt(std::uint64_t slot) const
    {
        return buckets_[slot];
    }
    void setBucket(std::uint64_t slot, std::uint32_t v)
    {
        buckets_[slot] = v;
    }

    std::uint64_t hashAt(std::uint32_t off) const
    {
        return hashes_[off];
    }
    std::uint64_t verifyAt(std::uint32_t off) const
    {
        return verifies_[off];
    }
    std::uint32_t parentAt(std::uint32_t off) const
    {
        return parents_[off];
    }
    std::uint16_t ruleAt(std::uint32_t off) const
    {
        return rules_[off];
    }

    /** Lock-free-readable depth cell (chunked atomics; see file
     * comment). */
    std::atomic<std::uint32_t> &
    depthCell(std::uint32_t off) const
    {
        return depths_[off >> kDepthChunkBits]
                      [off & (kDepthChunkSize - 1)];
    }

    /** Detected probe-hash collision counter (façade-maintained). */
    void bumpCollisions() { ++collisions_; }
    std::uint64_t collisions() const { return collisions_; }

    /** Grow buckets at 3/4 load so the next append keeps probes
     * short; call before probing. */
    void
    maybeGrow()
    {
        if ((static_cast<std::uint64_t>(count_) + 1) * 4 >=
            (mask_ + 1) * 3)
            sizeBuckets((mask_ + 1) * 2);
    }

    /**
     * Append one entry's column values (not the bucket link — the
     * façade writes that after the arena append succeeds, so a thrown
     * arena-full error cannot publish a half-made entry).
     * @return the new entry's offset.
     */
    std::uint32_t append(std::uint64_t hash, std::uint64_t verify,
                         std::uint32_t parent, std::uint16_t rule,
                         std::uint32_t depth);

    /** Pre-size columns for @p entries and buckets for <=0.5 load. */
    void reserveEntries(std::size_t entries);

  private:
    void sizeBuckets(std::size_t cap);
    void growColumns(std::size_t need);

    ShardMem *mem_ = nullptr;
    std::uint64_t *hashes_ = nullptr;
    std::uint64_t *verifies_ = nullptr;
    std::uint32_t *parents_ = nullptr;
    std::uint16_t *rules_ = nullptr;
    std::uint32_t *buckets_ = nullptr;
    /** Depth-chunk spine; fully reserved, so push_back never moves
     * the chunk pointers lock-free readers are walking. */
    std::vector<std::atomic<std::uint32_t> *> depths_;
    std::uint64_t mask_ = 0;
    std::uint32_t count_ = 0;
    std::size_t entryCap_ = 0;
    std::uint64_t collisions_ = 0;
    bool keepVerifies_ = false;
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_COLUMNS_HH
