/**
 * @file
 * State-arena layer of the visited-state store.
 *
 * One StateArena holds a shard's state bytes in fixed-size,
 * index-addressed blocks allocated from the shard's ShardMem backend
 * (store_mem.hh):
 *
 *  - Full mode: verbatim slots at the active-prefix stride
 *    (SystemState::activeBytes(): 123/182/241 bytes for 2/3/4
 *    devices), 2^kFullBlockBits slots per heap block.  The stride is
 *    fixed by the shard's first placeFull (the façade guarantees
 *    every full-mode insert has the same device count); the inactive
 *    device slots are default bytes in every state of a run, so they
 *    are not stored.  Full-mode blocks are never released.
 *  - Compact mode: zero-RLE cells in byte blocks, located by a
 *    chunked per-entry offset column (chunks never move, so workers
 *    may read frontier offsets while peers append).
 *
 * stateInto() is the only read path for both modes: it copies (or
 * decodes) the active prefix and zeroes the rest of the SystemState.
 *
 * The block-pointer spine is fully reserved at init so it never
 * reallocates — readers index it lock-free for entries published
 * before their expansion phase began, the same contract the
 * monolithic store had.
 *
 * seal() (compact mode): at a BFS level barrier the arena drops every
 * whole byte block that belongs to levels finished expanding.  On the
 * Mmap backend the mapped window shrinks to roughly the frontier and
 * its successors while the backing file keeps every byte, and a
 * dropped block is remapped on demand by stateInto() — which is why
 * counterexample traces stay reconstructible under compaction.
 * Recovered blocks are re-dropped at the next seal (the drop loop
 * rescans from block zero).  A backend without a backing file (the
 * heap fallback on platforms without mmap) declines every drop, so
 * its cells stay readable too.
 *
 * Thread-safety: placeFull/appendCell/seal and the cold (recovering)
 * reads run under the shard lock or quiescent; stateInto on frontier
 * entries follows the façade's lock-free reader contract.
 */

#ifndef CXL_CHECKER_STORE_ARENA_HH
#define CXL_CHECKER_STORE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "checker/store_mem.hh"
#include "protocol/state.hh"

namespace cxl
{

/** Storage policy of a StateStore (façade-level; see state_store.hh). */
enum class StoreMode : std::uint8_t {
    Full,    ///< keep every state; exact dedup; traces reconstructible
    Compact, ///< hash compaction: 64-bit fingerprints instead of states
};

/** One shard's state-byte arena (see the file comment). */
class StateArena
{
  public:
    /** log2 of slots per full-mode block: 1-2 MB heap blocks
     * (8192 slots of 123-241 bytes). */
    static constexpr std::uint32_t kFullBlockBits = 13;
    /** log2 of the compact-mode byte-block size (256 KiB). */
    static constexpr std::uint32_t kByteBlockBits = 18;

    /** log2 of entries per chunk of the compact offset column. */
    static constexpr std::uint32_t kOffChunkBits = 16;
    static constexpr std::uint32_t kOffChunkSize = 1u << kOffChunkBits;

    /**
     * Upper bound on one zero-RLE-encoded state cell: 2-byte payload
     * length plus, in the worst (incompressible) case, the literal
     * bytes emitted in <=255-byte chunks with 2 bytes of pair
     * overhead each.
     */
    static constexpr std::size_t kMaxEncodedState =
        2 + sizeof(SystemState) + 2 * (sizeof(SystemState) / 255 + 1);

    /** Bind to a backend; @p max_entries bounds the spine
     * reservations (full mode; compact reserves for its 4 GiB byte
     * space). */
    void init(ShardMem *mem, StoreMode mode, std::uint32_t max_entries);

    /**
     * Copy (full) or decode (compact) entry @p off's state into
     * @p out; bytes past the active prefix are zeroed.  A dropped
     * block is remapped first — then shard lock held or quiescent.
     */
    void stateInto(std::uint32_t off, SystemState &out) const;

    // --- Full mode ---------------------------------------------------

    /** Bytes per full-mode slot (the active prefix of the states this
     * shard holds); 0 before the first placeFull. */
    std::size_t fullStride() const { return stride_; }

    /** Entry @p off's slot bytes (fullStride() of them). */
    const std::byte *
    fullSlot(std::uint32_t off) const
    {
        return blocks_[off >> kFullBlockBits] + slotOffset(off);
    }

    /** Copy the active prefix of @p state into entry @p off's slot
     * (shard lock held).  The first call fixes the stride. */
    void placeFull(std::uint32_t off, const SystemState &state);

    // --- Compact mode ------------------------------------------------

    /**
     * Encode and append one state cell for entry @p off (shard lock
     * held).  @throws StoreFullError (shard @p shard_idx) when the
     * shard's 32-bit arena offset space is exhausted.
     */
    void appendCell(std::uint32_t shard_idx, std::uint32_t off,
                    const SystemState &state);

    // --- Level barrier -----------------------------------------------

    /**
     * BFS level barrier, compact mode (quiescent): drop every whole
     * byte block of levels finished expanding.
     */
    void seal();

  private:
    std::size_t
    slotOffset(std::uint32_t off) const
    {
        return static_cast<std::size_t>(off &
                                        ((1u << kFullBlockBits) - 1)) *
               stride_;
    }

    /** Block @p block's base, remapping it when dropped. */
    const std::byte *
    blockBase(std::uint32_t block) const
    {
        const std::byte *base = blocks_[block];
        return base ? base : recoverBlock(block);
    }

    std::uint32_t
    stateOffAt(std::uint32_t off) const
    {
        return stateOffs_[off >> kOffChunkBits]
                         [off & (kOffChunkSize - 1)];
    }

    std::byte *recoverBlock(std::uint32_t block) const;

    ShardMem *mem_ = nullptr;
    StoreMode mode_ = StoreMode::Full;
    std::size_t blockBytes_ = 0;
    std::size_t stride_ = 0; ///< full: bytes per slot (0 = unset)
    /**
     * Block-pointer cache, fully reserved (never reallocates; see the
     * file comment).  Null means dropped; mutable because cold reads
     * remap on demand without changing observable state.
     */
    mutable std::vector<std::byte *> blocks_;
    /** Compact offset column, in fixed chunks (never move). */
    std::vector<std::uint32_t *> stateOffs_;
    std::uint64_t byteCursor_ = 0; ///< compact: next free arena byte
    /** Compact: byte cursor at the previous seal. */
    std::uint64_t levelBoundary_ = 0;
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_ARENA_HH
