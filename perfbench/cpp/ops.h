/**
 * @file
 * The benchmark's workloads as seeded, replayable op lists. Every input
 * (keys, ground-truth values, modelled compute costs and the request
 * order) is built here from the workload seed before any daemon starts.
 * A run holds one OpList per daemon set-up; the in-process replay and
 * the standalone layer replays consume the first set-up's.
 */
#ifndef PERFBENCH_OPS_H
#define PERFBENCH_OPS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/value.h"
#include "features/feature_vector.h"

namespace perfbench {

enum class Workload
{
    Recog,       ///< cross-app recognition: 768-float keys, kd-tree slot
    HotSmall,    ///< 100 B keys, hash slot, two shm connections
    ChurnTiered, ///< exact keys past a 2,000-entry RAM tier + disk store
};

/** Parse a workload name; returns false for an unknown one. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload w);

/**
 * One request of the closed loop: a lookup of `item`'s key by `app`,
 * followed by a put of the item's value when the lookup misses or is
 * dropped. Preload ops are puts only.
 */
struct Op
{
    uint32_t app = 0;
    uint32_t item = 0;
};

/** Everything one run of a workload sends, built from its seed. */
struct OpList
{
    Workload workload = Workload::Recog;
    uint64_t seed = 0;

    std::string function;
    std::string key_type;
    potluck::Metric metric = potluck::Metric::L2;
    potluck::IndexKind index_kind = potluck::IndexKind::Hash;

    /** App names; app i is driven by thread i when `threads` > 1. */
    std::vector<std::string> apps;
    /** Generator threads: 1 = every app alternately from one thread. */
    size_t threads = 1;
    /** Connect over the shared-memory ring instead of plain UDS. */
    bool shm = false;

    /// @name Per-item inputs.
    /// @{
    std::vector<potluck::FeatureVector> keys;
    /** The value an app puts for the item: the ground truth a hit is
     * checked against. */
    std::vector<potluck::Value> values;
    /** Modelled compute cost of the item (us), sent as the put's
     * compute_overhead_us. */
    std::vector<double> cost_us;
    /// @}

    /** Puts issued during set-up, in order. */
    std::vector<Op> preload;
    /** Window ops per generator thread. */
    std::vector<std::vector<Op>> window;

    /** Daemon capacity flag (0 = daemon default). */
    uint64_t max_entries = 0;
    /** Run the daemon with a fresh --store-dir. */
    bool store = false;
    /** churn_tiered's RAM tier at this scale: the capacity of the
     * eviction replay on every workload. */
    size_t ram_tier = 0;

    size_t windowOps() const;
};

/** Size of a run: `full` is the measured benchmark, `tiny` a smoke run. */
enum class Scale
{
    Full,
    Tiny,
};

/**
 * Build the op lists of one run of a workload: one per daemon set-up,
 * each an independent draw of the workload from its own seed, derived
 * from `seed`. A run thus averages over several draws of the keys,
 * costs and popularity, not over one draw repeated. The windows
 * together last about `seconds`: a window holds its share of requests
 * at the workload's nominal rate. A fixed count, not a deadline, ends
 * it, so a slow host stretches the window instead of shrinking the
 * work (and with it the daemon's memory) in it.
 */
std::vector<OpList> buildOps(Workload w, uint64_t seed, double seconds,
                             Scale scale);

/** Canonical byte image of an op list (the determinism self-test
 * compares these). */
std::vector<uint8_t> serializeOps(const OpList &ops);

} // namespace perfbench

#endif // PERFBENCH_OPS_H
