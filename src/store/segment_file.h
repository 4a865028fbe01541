/**
 * @file
 * SegmentFile: one append-only, mmap'd log file of the tiered store
 * (DESIGN.md §12). Records are CRC32-framed — [u64 len][payload]
 * [u32 crc] — and appended by memcpy into a fixed-capacity MAP_SHARED
 * mapping, so the page cache carries them across a SIGKILL and msync()
 * makes them power-loss durable.
 *
 * Segments are named seg-<generation>.log with a monotonically
 * increasing generation: the store appends to the highest generation
 * (the ACTIVE segment), seals it when full, and compaction copies the
 * live records of a garbage-heavy sealed segment forward into the
 * active one before unlinking it — generations only ever grow, so a
 * record's (generation, offset) address is unambiguous for the
 * sidecar index.
 *
 * Torn-tail recovery: the file is pre-truncated to its capacity, so
 * the bytes past the last durable record are zero. scanFrom() stops
 * at a zero length word (clean end) or a frame whose CRC does not
 * match (a record torn by the crash); appends resume over the torn
 * bytes. A record is therefore either completely durable or
 * invisible.
 *
 * Not internally synchronized: TieredStore serializes all access
 * under its own mutex.
 */
#ifndef POTLUCK_STORE_SEGMENT_FILE_H
#define POTLUCK_STORE_SEGMENT_FILE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace potluck::store {

/** Outcome of scanning a segment's record stream. */
struct SegmentScanReport
{
    size_t records = 0;    ///< complete, checksum-valid records seen
    bool torn_tail = false; ///< scan ended on a torn/corrupt frame
};

/** One append-only mmap'd segment of CRC-framed records. */
class SegmentFile
{
  public:
    /**
     * Open (creating if absent) the segment at `path`, mapped
     * read-write with a fixed byte capacity. An existing file keeps
     * its contents; capacity must match the original creation size.
     * @throws FatalError on I/O or mmap failure
     */
    SegmentFile(std::string path, uint64_t generation, size_t capacity);
    ~SegmentFile();

    /**
     * Non-throwing open for runtime rotation: a full or failing disk
     * at rotation time must degrade the store, not abort the daemon.
     * Returns nullptr with `error` filled on failure (including
     * injected open faults).
     */
    static std::unique_ptr<SegmentFile> tryOpen(std::string path,
                                                uint64_t generation,
                                                size_t capacity,
                                                std::string &error);

    SegmentFile(const SegmentFile &) = delete;
    SegmentFile &operator=(const SegmentFile &) = delete;

    uint64_t generation() const { return generation_; }
    const std::string &path() const { return path_; }

    /** Bytes the framed records occupy (the append cursor). */
    size_t tail() const { return tail_; }
    size_t capacity() const { return capacity_; }

    /** Whether a payload of `n` bytes still fits (frame included). */
    bool fits(size_t n) const;

    /**
     * Append one framed record, filling `offset` with the frame's
     * byte offset. Caller must check fits() first (panics otherwise).
     * Returns false when the write fails (injected EIO/ENOSPC/torn
     * write); the segment then holds no visible new frame — a torn
     * write leaves bytes past the tail that the zeroed length word
     * keeps invisible — and the caller must degrade gracefully.
     * Always succeeds in builds without fault injection.
     */
    bool append(const void *payload, size_t n, size_t &offset);

    /**
     * Read the payload of the frame at `offset` without verifying its
     * checksum (trusted path: offsets from the sidecar index or from
     * an in-process append). Returns a pointer into the mapping and
     * the payload size; nullptr when the frame header is implausible.
     * The pointer stays valid until the segment is destroyed.
     */
    const uint8_t *payloadAt(size_t offset, size_t &n) const;

    /** Verify the CRC of the frame at `offset` (the lazy fault-in
     * check promote() runs before trusting a value). */
    bool verifyAt(size_t offset) const;

    /**
     * Walk frames from `from` to the end, verifying each checksum,
     * and invoke `fn(offset, payload, n)` per valid record. Positions
     * the append cursor at the end of the last valid record, so
     * appends overwrite a torn tail.
     */
    SegmentScanReport scanFrom(
        size_t from,
        const std::function<void(size_t, const uint8_t *, size_t)> &fn);

    /** msync the mapped range (durability checkpoint). Returns false
     * when msync fails (real or injected EIO): the data may not be
     * power-loss durable and callers must not name it in the sidecar. */
    bool sync() const;

    /** Unmap, close and delete the backing file (compaction). */
    void destroy();

  private:
    std::string path_;
    uint64_t generation_;
    size_t capacity_;
    size_t tail_ = 0;
    uint8_t *map_ = nullptr;
    int fd_ = -1;
};

} // namespace potluck::store

#endif // POTLUCK_STORE_SEGMENT_FILE_H
