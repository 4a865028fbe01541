#include "core/threshold_tuner.h"

#include "util/logging.h"

namespace potluck {

ThresholdTuner::ThresholdTuner(const PotluckConfig &config)
    : tighten_factor_(config.tighten_factor),
      loosen_ewma_(config.loosen_ewma), warmup_(config.warmup_entries)
{
    POTLUCK_ASSERT(tighten_factor_ > 1.0,
                   "tighten factor must be > 1, got " << tighten_factor_);
    POTLUCK_ASSERT(loosen_ewma_ >= 0.0 && loosen_ewma_ < 1.0,
                   "loosen EWMA weight must be in [0, 1)");
}

void
ThresholdTuner::observe(double nn_dist, bool values_equal)
{
    if (!active())
        return;
    ++observations_;
    // observe() always runs under the owning domain's exclusive lock,
    // so this read-modify-write is single-writer; the atomic store only
    // protects concurrent threshold() readers.
    double current = threshold_.load(std::memory_order_relaxed);
    if (nn_dist <= current && !values_equal) {
        // False positive: too loose; tighten aggressively (line 7-8).
        threshold_.store(current / tighten_factor_,
                         std::memory_order_relaxed);
    } else if (nn_dist > current && values_equal) {
        // Missed dedup: too tight; loosen conservatively (line 9-10).
        threshold_.store((1.0 - loosen_ewma_) * nn_dist +
                             loosen_ewma_ * current,
                         std::memory_order_relaxed);
    }
}

void
ThresholdTuner::reset()
{
    threshold_.store(0.0, std::memory_order_relaxed);
    inserts_ = 0;
    observations_ = 0;
}

} // namespace potluck
