/**
 * @file
 * ColdIndexFile: the durable sidecar fingerprint index of the tiered
 * store (DESIGN.md §12). A small, atomically rewritten file mapping
 * content identity (key hash) to a record's (generation, offset)
 * address, plus the (function, key type) registrations and the byte
 * offset each segment has been indexed through.
 *
 * The sidecar is an ACCELERATOR, not the source of truth: everything
 * it holds is recoverable by scanning the segment logs from offset 0.
 * Its job is to make warm restart cheap — load it, parse only the
 * record headers it points at (values stay untouched until a promote
 * faults them in), and replay just the log tail written after the
 * last rewrite.
 *
 * Crash safety: write to a temp file, fsync, atomically rename over
 * the target, fsync the directory. A SIGKILL at any point leaves
 * either the previous sidecar or the new one; a missing or corrupt
 * sidecar merely forces a full log scan. The byte layout goes through
 * the store's one codec (store/codec.h).
 */
#ifndef POTLUCK_STORE_COLD_INDEX_H
#define POTLUCK_STORE_COLD_INDEX_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/function_table.h"

namespace potluck::store {

/** One persisted (function, key type) registration. */
struct SidecarRegistration
{
    std::string function;
    KeyTypeConfig config;
};

/** How far into a segment the sidecar's entries extend. */
struct SidecarSegment
{
    uint64_t generation = 0;
    uint64_t indexed_len = 0;
};

/** One live record address. */
struct SidecarEntry
{
    uint64_t key_hash = 0;
    uint64_t generation = 0;
    uint64_t offset = 0;
};

/** The sidecar's full contents. */
struct SidecarImage
{
    std::vector<SidecarRegistration> registrations;
    std::vector<SidecarSegment> segments;
    std::vector<SidecarEntry> entries;
};

/**
 * Atomically (re)write the sidecar at `path`.
 * @throws FatalError on I/O failure (the previous sidecar survives)
 */
void saveSidecar(const SidecarImage &image, const std::string &path);

/**
 * Load the sidecar at `path` into `image`.
 * @return false when the file is missing, not a sidecar, or fails its
 *         checksum — the caller falls back to a full log scan
 */
bool loadSidecar(SidecarImage &image, const std::string &path);

} // namespace potluck::store

#endif // POTLUCK_STORE_COLD_INDEX_H
