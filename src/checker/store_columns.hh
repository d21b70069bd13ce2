/**
 * @file
 * Shard-column layer of the visited-state store.
 *
 * One ShardColumns instance holds a shard's struct-of-arrays entry
 * columns — probe hash, verification fingerprint, rule, and parent
 * paired with depth — plus the open-addressing bucket array, all
 * allocated as backend flats from the shard's ShardMem
 * (store_mem.hh).  Depth shares the parent flat, one {parent, depth}
 * pair per entry, because each flat is one backing file per shard on
 * the Mmap backend and files cost store start-up time.  The
 * probe/insert *algorithm* stays in the StateStore façade; this layer
 * only owns the memory layout.  Flats may move when grown, so every
 * column is touched only under the shard lock or while the store is
 * quiescent — the BFS reads depths only between levels (POR sleep
 * masks, violation resolution).
 *
 * Growth doubles the entry capacity (realloc-style, preserved by the
 * backend) and rehashes buckets from the stored probe hashes only —
 * state bytes are never touched, which is what lets the arena layer
 * drop them independently.
 */

#ifndef CXL_CHECKER_STORE_COLUMNS_HH
#define CXL_CHECKER_STORE_COLUMNS_HH

#include <cstddef>
#include <cstdint>

#include "checker/store_mem.hh"

namespace cxl
{

/** One shard's SoA entry columns + probe buckets (see file comment). */
class ShardColumns
{
  public:
    /**
     * Bind to a backend and size the initial bucket array.
     * @p keep_verifies stores the 64-bit verification fingerprint per
     * entry (compact mode).
     */
    void init(ShardMem *mem, bool keep_verifies,
              std::size_t initial_buckets);

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
        return crumbs_[off].parent;
    }
    std::uint16_t ruleAt(std::uint32_t off) const
    {
        return rules_[off];
    }

    std::uint32_t depthAt(std::uint32_t off) const
    {
        return crumbs_[off].depth;
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
    /** One entry's BFS breadcrumb (the kFlatParents element). */
    struct Crumb {
        std::uint32_t parent;
        std::uint32_t depth;
    };

    void sizeBuckets(std::size_t cap);
    void growColumns(std::size_t need);

    ShardMem *mem_ = nullptr;
    std::uint64_t *hashes_ = nullptr;
    std::uint64_t *verifies_ = nullptr;
    Crumb *crumbs_ = nullptr;
    std::uint16_t *rules_ = nullptr;
    std::uint32_t *buckets_ = nullptr;
    std::uint64_t mask_ = 0;
    std::uint32_t count_ = 0;
    std::size_t entryCap_ = 0;
    std::uint64_t collisions_ = 0;
    bool keepVerifies_ = false;
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_COLUMNS_HH
