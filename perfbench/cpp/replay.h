/**
 * @file
 * Phases 2 and 3 of the traced run. Phase 2 applies the socket run's op
 * list in process to a PotluckService built from PotluckConfig{} plus
 * the workload's flags, with spans around every service call and, when
 * the workload has a store, around every cold-tier call. A mirror index
 * from makeIndex gets the service's index changes in the same order;
 * right after each lookup it is probed with the same key, so the probe
 * pairs with its lookup under the same machine conditions. Phase 3
 * replays the run's inputs through single layers on their own:
 * distance(), the wire codec and the eviction policy.
 */
#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <string>
#include <vector>

#include "ops.h"
#include "socket_run.h"
#include "spans.h"

namespace perfbench {

/** What phase 2 recorded. */
struct InProcessResult
{
    /** Per thread: service spans, the mirror-index probe after each
     * lookup, and cold-tier spans when the workload has a store. */
    std::vector<SpanList> spans;
    std::vector<std::vector<Outcome>> outcomes;
    /** Mirror probes that follow no index change, and the first probe
     * after one (which pays a lazy kd-tree rebuild). */
    std::vector<double> nearest_us;
    std::vector<double> nearest_after_insert_us;
    size_t index_entries = 0; ///< keys in the mirror index at the end
    /** Items in probe order: the distance replay's key pairs. */
    std::vector<uint32_t> probe_items;
    /** Items in put order, preload first. */
    std::vector<uint32_t> put_items;
    /** Sum of the service's own lookup.index_probe_ns spans (ns). */
    uint64_t index_probe_ns = 0;
    size_t entries = 0; ///< entries in RAM at the end
    /** Disk blocks the store allocated / key and value bytes put
     * (workloads with a store). */
    double store_bytes_per_user_byte = 0.0;
};

/**
 * Phase 2: the window of each thread, in process. A store, when the
 * workload has one, lives under `dir`.
 */
InProcessResult runInProcess(const OpList &ops, const std::string &dir);

/** What phase 3 measured. */
struct LayerReplays
{
    std::vector<double> distance_ns; ///< per call, one value per block
    std::vector<double> codec_us;    ///< per request: its four codec calls
    double request_bytes = 0.0;      ///< mean requestWireSize
    double reply_bytes = 0.0;        ///< mean replyWireSize
    std::vector<double> select_us;   ///< EvictionPolicy::selectVictim
};

/** Phase 3. */
LayerReplays runLayerReplays(const OpList &ops, const InProcessResult &p2);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
