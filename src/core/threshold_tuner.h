/**
 * @file
 * The NN-based similarity-threshold tuning algorithm (Algorithm 1).
 *
 * One tuner exists per (function, key type) index. The threshold
 * starts at 0 and stays frozen until z entries have been inserted.
 * Then, on every put(), the nearest stored neighbour of the new key is
 * examined:
 *  - distance <= threshold but DIFFERENT value -> false positive: the
 *    threshold is too loose; tighten it by dividing by k.
 *  - distance >  threshold but SAME value      -> missed match: the
 *    threshold is too tight; loosen it towards the observed distance
 *    with an exponentially weighted moving average.
 *
 * The tighten case only arises when a lookup was dropped at random
 * (Section 3.4), which is exactly the dropout mechanism's purpose.
 */
#ifndef POTLUCK_CORE_THRESHOLD_TUNER_H
#define POTLUCK_CORE_THRESHOLD_TUNER_H

#include <atomic>
#include <cstddef>

#include "core/config.h"

namespace potluck {

/** Adaptive similarity threshold for one key index (Algorithm 1). */
class ThresholdTuner
{
  public:
    explicit ThresholdTuner(const PotluckConfig &config);

    /**
     * Feed one put() observation.
     * @param nn_dist     distance from the new key to its nearest
     *                    stored neighbour
     * @param values_equal whether the new value equals the neighbour's
     */
    void observe(double nn_dist, bool values_equal);

    /** Count an insertion towards the warm-up requirement. */
    void noteInsert() { ++inserts_; }

    /** Whether the warm-up phase has completed. */
    bool active() const { return inserts_ >= warmup_; }

    /**
     * Current threshold. 0 until warm-up completes, so the cache
     * degenerates to exact matching early on — matching the paper's
     * "initialize threshold <- 0". Safe to read concurrently with
     * observe(): lookups read this under the SHARED domain lock, or
     * with no lock at all (the cold-tier probe), while a put may be
     * tuning under the exclusive one — the value is a single atomic
     * double.
     */
    double
    threshold() const
    {
        return threshold_.load(std::memory_order_relaxed);
    }

    /** Manually reset (register() does this per the paper). */
    void reset();

    /** Override the threshold (used by fixed-threshold experiments). */
    void
    setThreshold(double value)
    {
        threshold_.store(value, std::memory_order_relaxed);
    }

    size_t observations() const { return observations_; }

  private:
    std::atomic<double> threshold_{0.0};
    double tighten_factor_;
    double loosen_ewma_;
    size_t warmup_;
    size_t inserts_ = 0;
    size_t observations_ = 0;
};

} // namespace potluck

#endif // POTLUCK_CORE_THRESHOLD_TUNER_H
