/**
 * @file
 * FsFaultInjector: deterministic filesystem fault injection for the
 * tiered store's write paths — the disk-side sibling of the transport
 * FaultInjector (src/ipc/fault_injection.h).
 *
 * Compiled only when the build defines POTLUCK_FAULT_INJECTION; in a
 * regular build every hook in SegmentFile / ColdIndex compiles away to
 * nothing, so release binaries pay zero cost.
 *
 * All randomness flows from the seeded Rng in the injector's Config,
 * so a failing chaos run reproduces bit-identically.
 *
 * Fault modes (probabilities are evaluated independently per event):
 *  - write_error:  a segment append fails as EIO would — the frame is
 *                  never written and the store must degrade to
 *                  RAM-only.
 *  - write_enospc: a segment append (or rotation to a new segment)
 *                  fails as ENOSPC would.
 *  - short_write:  an append writes the frame but reports failure
 *                  before publishing the length word — the on-disk
 *                  image is a torn tail, exactly what a crash mid-
 *                  msync leaves.
 *  - sync_error:   msync()/fsync() reports EIO; callers must treat
 *                  the data as not durable.
 *  - bit_flip:     one byte of a just-appended payload is XOR'd in
 *                  the mapping after its CRC was computed — durable
 *                  bit-rot for the scrubber to find. max_bit_flips
 *                  caps how many frames are rotted (0 = unlimited),
 *                  which chaos tests use to corrupt only the first N
 *                  writes and leave repair appends clean.
 *  - open_error:   creating/mapping a new segment file fails.
 *  - sidecar_error: the sidecar rewrite fails before naming any
 *                  bytes durable.
 *
 * The daemon installs an injector from the POTLUCK_FS_FAULTS
 * environment variable (comma-separated key=value pairs matching the
 * Config fields) so scripts/check.sh can chaos-test live daemons.
 */
#ifndef POTLUCK_UTIL_FS_FAULTS_H
#define POTLUCK_UTIL_FS_FAULTS_H

#ifdef POTLUCK_FAULT_INJECTION

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "util/rng.h"

namespace potluck {

/** Seeded, probabilistic filesystem fault source. */
class FsFaultInjector
{
  public:
    struct Config
    {
        uint64_t seed = 1;
        double write_error = 0.0;    ///< append fails (EIO)
        double write_enospc = 0.0;   ///< append fails (ENOSPC)
        double short_write = 0.0;    ///< append leaves a torn frame
        double sync_error = 0.0;     ///< msync/fsync fails (EIO)
        double bit_flip = 0.0;       ///< rot one byte of the payload
        double open_error = 0.0;     ///< new segment open/map fails
        double sidecar_error = 0.0;  ///< sidecar rewrite fails
        uint64_t max_bit_flips = 0;  ///< cap on rotted frames; 0 = none
    };

    /** Injected-fault tallies, for test assertions. */
    struct Counts
    {
        uint64_t write_errors = 0;
        uint64_t enospc = 0;
        uint64_t short_writes = 0;
        uint64_t sync_errors = 0;
        uint64_t bit_flips = 0;
        uint64_t open_errors = 0;
        uint64_t sidecar_errors = 0;
    };

    explicit FsFaultInjector(const Config &config)
        : cfg_(config), rng_(config.seed)
    {
    }

    /** What an append should do with the next frame. */
    enum class WriteAction
    {
        Pass,
        Eio,    ///< fail, nothing written
        Enospc, ///< fail, nothing written
        Torn,   ///< write payload but fail before publishing length
    };

    WriteAction onAppend();

    /**
     * Possibly rot the just-appended payload: on true, XOR the byte at
     * `index` (< n) with `mask` in the mapping. Never fires for n == 0
     * or once max_bit_flips frames have been rotted.
     */
    bool corruptPayload(size_t n, size_t &index, uint8_t &mask);

    /** @return true if this msync/fsync must report failure. */
    bool shouldFailSync();
    /** @return true if this segment open/map must fail. */
    bool shouldFailOpen();
    /** @return true if this sidecar rewrite must fail. */
    bool shouldFailSidecar();

    Counts counts() const;

    /**
     * Install (or, with nullptr, clear) the process-wide injector the
     * store hooks consult. The injector must outlive all store
     * activity while installed.
     */
    static void install(FsFaultInjector *injector);

    /** The installed injector, or nullptr. */
    static FsFaultInjector *active();

    /**
     * Parse POTLUCK_FS_FAULTS ("bit_flip=1.0,max_bit_flips=3,seed=7")
     * and install a process-lifetime injector from it. Unknown keys
     * are fatal (a typo'd chaos run must not silently test nothing).
     * @return true when an injector was installed.
     */
    static bool installFromEnv();

  private:
    mutable std::mutex mutex_;
    Config cfg_;
    Rng rng_;
    Counts counts_;
};

} // namespace potluck

#endif // POTLUCK_FAULT_INJECTION
#endif // POTLUCK_UTIL_FS_FAULTS_H
