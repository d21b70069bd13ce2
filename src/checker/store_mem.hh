/**
 * @file
 * Backend memory layer of the visited-state store.
 *
 * StateStore's shard columns and state arenas (store_columns.hh,
 * store_arena.hh) never allocate directly: each shard owns one
 * ShardMem that hands out the three allocation shapes the store
 * needs, and the backend choice — plain heap or per-shard
 * file-backed mappings — is made once here, invisibly to the layers
 * above:
 *
 *  - flats: amortised-growable arrays (the SoA entry columns and the
 *    probe bucket array).  Growing may move the base, so callers
 *    re-read the returned pointer; flats are only touched under the
 *    shard lock (or quiescent), matching that contract.
 *  - chunks: fixed-size allocations whose address never moves; they
 *    serve only the compact-mode state-offset column, which
 *    workers read lock-free for frontier entries while peers insert.
 *  - blocks: fixed-size, index-addressed arena blocks.  On a backend
 *    with a backing file they can be dropped (sealLevel) and
 *    recovered later, because the bytes persist in the file.
 *
 * The two backends pair with the two store modes (state_store.hh):
 * full-mode stores allocate from the heap (InRam), compact-mode
 * stores from the Mmap backend, which gives every shard its own
 * anonymous backing files (memfd, or O_TMPFILE/unlinked files under
 * an explicit directory for true spill-to-disk), grown with ftruncate
 * and mapped afresh at the new size.  Dropping a sealed block munmaps
 * it — address space and residency shrink, the file keeps the bytes —
 * after advising the kernel the pages have gone cold, so a bounded
 * mapped window walks the (unbounded) file as BFS levels seal.
 * Running out of address space (ENOMEM from mmap or ftruncate)
 * throws std::bad_alloc, like the heap backend, so the explorer can
 * end the run as a governed memory stop.
 *
 * Thread-safety: all allocation calls are made under the owning
 * shard's lock (or while quiescent).  The byte counters are atomics
 * readable from any thread (bench/progress sampling).
 */

#ifndef CXL_CHECKER_STORE_MEM_HH
#define CXL_CHECKER_STORE_MEM_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace cxl
{

/** Which memory backend a StateStore's shards allocate from. */
enum class StoreBackend : std::uint8_t {
    InRam, ///< heap allocations (full-mode stores)
    Mmap,  ///< per-shard file-backed mappings (compact-mode stores)
};

/** One shard's allocator (see the file comment for the shapes). */
class ShardMem
{
  public:
    /** Flat-region slots a shard uses (one growable array each). */
    enum FlatId : unsigned {
        kFlatHashes = 0,
        kFlatVerifies,
        kFlatParents, ///< {parent, depth} pairs
        kFlatRules,
        kFlatBuckets,
        kFlatCount,
    };

    virtual ~ShardMem() = default;

    /**
     * Grow flat region @p id to at least @p bytes (first call
     * creates it).  Contents are preserved; the base may move —
     * callers re-read the return value.  Never shrinks.
     */
    virtual void *flatGrow(unsigned id, std::size_t bytes) = 0;

    /** Allocate @p bytes at an address that never moves. */
    virtual void *chunkAlloc(std::size_t bytes) = 0;

    /**
     * Allocate arena block @p index (@p bytes each); blocks are
     * created in index order, each at a stable address.
     */
    virtual void *blockAlloc(std::uint32_t index,
                             std::size_t bytes) = 0;

    /**
     * Release block @p index's mapping; the backing file keeps its
     * bytes for blockRecover.  @return false, keeping the block
     * allocated, on a backend without a backing file (InRam).
     */
    virtual bool
    blockDrop(std::uint32_t index)
    {
        (void)index;
        return false;
    }

    /** Re-map a block that blockDrop released.  Callers hold the
     * shard lock or are quiescent. */
    virtual void *
    blockRecover(std::uint32_t index)
    {
        (void)index;
        return nullptr;
    }

    /** Bytes currently mapped/allocated by this shard's file-backed
     * regions (0 for InRam: nothing is file-backed). */
    virtual std::uint64_t mappedBytes() const { return 0; }

    /** Total size of this shard's backing files (0 for InRam). */
    virtual std::uint64_t backingFileBytes() const { return 0; }
};

/**
 * Build one shard's allocator.  @p dir names the backing directory
 * for StoreBackend::Mmap ("" = anonymous in-memory files); ignored
 * for InRam.  On platforms without the required mmap surface the
 * Mmap backend degrades to InRam, which never drops a block.
 *
 * @throws std::runtime_error when a backing file cannot be created.
 */
std::unique_ptr<ShardMem> makeShardMem(StoreBackend backend,
                                       const std::string &dir);

} // namespace cxl

#endif // CXL_CHECKER_STORE_MEM_HH
