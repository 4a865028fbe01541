/**
 * @file
 * Spans of the traced run. Every span is keyed by the op it belongs to
 * and names its parent span; the parent is the span of the same op with
 * that name, which may have been recorded in an earlier phase of the
 * traced run (a store span's parent is the in-process service span of
 * the same op). Spans stay in memory, in per-thread vectors, and are
 * written out once at the end.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds: the clock every span uses. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One name per layer boundary the benchmark wraps. */
enum class SpanName : uint8_t
{
    None,
    ClientLookup,     ///< phase 1: PotluckClient::lookup over the socket
    ClientPut,        ///< phase 1: PotluckClient::put
    ServiceLookup,    ///< phase 2: PotluckService::lookup, in process
    ServicePut,       ///< phase 2: PotluckService::put
    StoreAdmit,       ///< ColdTier::admit (write-through)
    StoreDemote,      ///< ColdTier::demote
    StorePromoteHit,  ///< ColdTier::promote that found a record
    StorePromoteMiss, ///< ColdTier::promote that found none
    IndexNearest,     ///< phase 2: Index::nearest on the mirror index
};

const char *spanNameString(SpanName name);

/** Op id of the i-th window op of generator thread `thread` in the
 * window of set-up `replica`: unique within a run. */
inline uint64_t
opId(size_t replica, size_t thread, size_t index)
{
    return (static_cast<uint64_t>(replica) << 48) |
           (static_cast<uint64_t>(thread) << 32) | index;
}

struct Span
{
    uint64_t op = 0;
    SpanName name = SpanName::None;
    SpanName parent = SpanName::None;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;

    double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

using SpanList = std::vector<Span>;

/** Write spans as TSV (op, name, parent, start_ns, end_ns); false on an
 * I/O error. */
bool writeSpansTsv(const std::string &path,
                   const std::vector<const SpanList *> &lists);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
