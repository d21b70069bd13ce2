#include "checker/store_arena.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "checker/state_store.hh"

namespace cxl
{
namespace
{

/**
 * Zero-RLE codec for compact-mode state cells.  Reachable states are
 * sparse — most channel slots are empty and InlineVec zeroes its
 * tail — so run-length-eliding the zero bytes shrinks a ~240-byte
 * record to a few tens of bytes.  Cell layout:
 *
 *   [payload_len:u16] ([zero_run:u8][lit_len:u8][lit bytes...])*
 *
 * Decoding starts from an all-zero record, so a cell reproduces the
 * active prefix bit-exactly.  If the greedy pair encoding would ever
 * exceed the all-literal fallback (pathologically alternating bytes),
 * the cell is emitted as plain <=255-byte literal chunks instead,
 * which is what bounds StateArena::kMaxEncodedState.
 */
std::uint16_t
encodeCell(const SystemState &state, std::byte *dst)
{
    const auto *src = reinterpret_cast<const unsigned char *>(&state);
    const std::size_t len = state.activeBytes();

    // Worst-case greedy output: 2 bytes of pair overhead per literal
    // island; islands are at least 1 byte, so 3x the input bounds it.
    unsigned char tmp[2 + 3 * sizeof(SystemState) + 8];
    std::size_t pos = 0;
    std::size_t i = 0;
    while (i < len) {
        std::size_t zeros = 0;
        while (i + zeros < len && src[i + zeros] == 0)
            ++zeros;
        if (i + zeros == len)
            break; // trailing zeros are implicit
        std::size_t lit = 0;
        while (i + zeros + lit < len && src[i + zeros + lit] != 0)
            ++lit;
        std::size_t z = zeros, l = lit, at = i + zeros;
        while (z > 255) {
            tmp[pos++] = 255;
            tmp[pos++] = 0;
            z -= 255;
        }
        while (l > 255) {
            tmp[pos++] = static_cast<unsigned char>(z);
            tmp[pos++] = 255;
            std::memcpy(tmp + pos, src + at, 255);
            pos += 255;
            at += 255;
            l -= 255;
            z = 0;
        }
        tmp[pos++] = static_cast<unsigned char>(z);
        tmp[pos++] = static_cast<unsigned char>(l);
        std::memcpy(tmp + pos, src + at, l);
        pos += l;
        i += zeros + lit;
    }

    // All-literal fallback size (the kMaxEncodedState bound).
    const std::size_t fallback = len + 2 * (len / 255 + 1);
    if (pos > fallback) {
        pos = 0;
        std::size_t at = 0, rest = len;
        while (rest > 0) {
            const std::size_t l = std::min<std::size_t>(rest, 255);
            tmp[pos++] = 0;
            tmp[pos++] = static_cast<unsigned char>(l);
            std::memcpy(tmp + pos, src + at, l);
            pos += l;
            at += l;
            rest -= l;
        }
    }

    const auto payload = static_cast<std::uint16_t>(pos);
    std::memcpy(dst, &payload, 2);
    std::memcpy(dst + 2, tmp, pos);
    return static_cast<std::uint16_t>(2 + pos);
}

/** Inverse of encodeCell; @p out is fully overwritten. */
void
decodeCell(const std::byte *cell, SystemState &out)
{
    std::memset(static_cast<void *>(&out), 0, sizeof(SystemState));
    auto *dst = reinterpret_cast<unsigned char *>(&out);
    std::uint16_t payload = 0;
    std::memcpy(&payload, cell, 2);
    const auto *src = reinterpret_cast<const unsigned char *>(cell) + 2;
    std::size_t pos = 0, at = 0;
    while (pos < payload) {
        at += src[pos];
        const std::size_t lit = src[pos + 1];
        std::memcpy(dst + at, src + pos + 2, lit);
        at += lit;
        pos += 2 + lit;
    }
}

} // namespace

void
StateArena::init(ShardMem *mem, StoreMode mode,
                 std::uint32_t max_entries)
{
    mem_ = mem;
    mode_ = mode;
    if (mode_ == StoreMode::Full) {
        // blockBytes_ waits for the stride, fixed by the first
        // placeFull.  Fully reserve the block spine: it must never
        // reallocate, because readers index it lock-free (see the
        // class comment).
        blocks_.reserve((max_entries >> kFullBlockBits) + 1);
    } else {
        // Compact cells are offset-addressed with 32 bits per shard:
        // up to 4 GiB of compressed frontier per shard, far beyond
        // the retained working set of any feasible run.
        blockBytes_ = std::size_t{1} << kByteBlockBits;
        blocks_.reserve((std::uint64_t{1} << 32) >> kByteBlockBits);
        stateOffs_.reserve((max_entries >> kOffChunkBits) + 1);
    }
}

std::byte *
StateArena::recoverBlock(std::uint32_t block) const
{
    auto *p = static_cast<std::byte *>(mem_->blockRecover(block));
    assert(p && "only a dropped block is recovered");
    blocks_[block] = p;
    return p;
}

void
StateArena::stateInto(std::uint32_t off, SystemState &out) const
{
    if (mode_ == StoreMode::Compact) {
        const std::uint32_t byte_off = stateOffAt(off);
        decodeCell(blockBase(byte_off >> kByteBlockBits) +
                       (byte_off & (blockBytes_ - 1)),
                   out);
        return;
    }
    auto *dst = reinterpret_cast<std::byte *>(&out);
    std::memcpy(dst, fullSlot(off), stride_);
    std::memset(dst + stride_, 0, sizeof(SystemState) - stride_);
}

void
StateArena::placeFull(std::uint32_t off, const SystemState &state)
{
    if (stride_ == 0) {
        stride_ = state.activeBytes();
        blockBytes_ = (std::size_t{1} << kFullBlockBits) * stride_;
    }
    assert(state.activeBytes() == stride_ &&
           "the façade admits one device count per full-mode store");
    const std::uint32_t block = off >> kFullBlockBits;
    if (block == blocks_.size()) {
        blocks_.push_back(static_cast<std::byte *>(
            mem_->blockAlloc(block, blockBytes_)));
    }
    std::memcpy(blocks_[block] + slotOffset(off), &state, stride_);
}

void
StateArena::appendCell(std::uint32_t shard_idx, std::uint32_t off,
                       const SystemState &state)
{
    std::byte enc[kMaxEncodedState];
    const std::uint16_t enc_len = encodeCell(state, enc);
    // A cell never straddles byte blocks; skip a too-small tail.
    std::uint64_t at = byteCursor_;
    if ((at & (blockBytes_ - 1)) + enc_len > blockBytes_)
        at = (at | (blockBytes_ - 1)) + 1;
    if (at + enc_len > (std::uint64_t{1} << 32)) {
        throw StoreFullError(
            shard_idx,
            "StateStore shard " + std::to_string(shard_idx) +
                " compact arena offset space exhausted (4 GiB of "
                "encoded frontier); pre-size with --expect-states so "
                "sealing keeps up, or lower the run's budgets");
    }
    const auto block = static_cast<std::uint32_t>(at >> kByteBlockBits);
    while (block >= blocks_.size()) {
        blocks_.push_back(static_cast<std::byte *>(mem_->blockAlloc(
            static_cast<std::uint32_t>(blocks_.size()), blockBytes_)));
    }
    std::memcpy(blocks_[block] + (at & (blockBytes_ - 1)), enc,
                enc_len);
    const std::uint32_t chunk = off >> kOffChunkBits;
    if (chunk == stateOffs_.size()) {
        stateOffs_.push_back(static_cast<std::uint32_t *>(
            mem_->chunkAlloc(kOffChunkSize * sizeof(std::uint32_t))));
    }
    stateOffs_[chunk][off & (kOffChunkSize - 1)] =
        static_cast<std::uint32_t>(at);
    byteCursor_ = at + enc_len;
}

void
StateArena::seal()
{
    // Blocks wholly below the previous level boundary belong to
    // levels whose expansion has finished; the frontier no longer
    // reads them.  Release whole blocks only — a partial tail block
    // is shared with the still-needed frontier.  The loop rescans
    // from zero so blocks recovered since the last seal go cold
    // again.
    const std::uint64_t floor_block = levelBoundary_ >> kByteBlockBits;
    for (std::uint64_t b = 0; b < floor_block; ++b) {
        if (blocks_[b] &&
            mem_->blockDrop(static_cast<std::uint32_t>(b)))
            blocks_[b] = nullptr;
    }
    levelBoundary_ = byteCursor_;
}

} // namespace cxl
