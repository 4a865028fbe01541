#include "core/potluck_service.h"

#include <algorithm>
#include <iterator>
#include <mutex>

#include "obs/span.h"
#include "util/logging.h"

namespace potluck {

PotluckService::PotluckService(PotluckConfig config, Clock *clock)
    : config_(config), clock_(clock),
      metrics_(std::make_unique<obs::MetricsRegistry>()), table_(config),
      eviction_(makeEvictionPolicy(config.eviction, config.seed)),
      demotion_policy_(config.demotion_min_ttl_us), rng_(config.seed),
      reputation_(config.reputation_ban_score,
                  config.reputation_min_observations)
{
    POTLUCK_ASSERT(clock_ != nullptr, "null clock");
    if (config_.dropout_probability < 0.0 ||
        config_.dropout_probability >= 1.0) {
        POTLUCK_FATAL("dropout probability must be in [0, 1), got "
                      << config_.dropout_probability);
    }
    if (config_.knn < 1)
        POTLUCK_FATAL("knn must be >= 1");

    // Resolve every hot-path metric once; lookup()/put() only touch
    // the lock-free objects through these cached pointers.
    obs::MetricsRegistry &reg = *metrics_;
    obs_.lookups = &reg.counter("service.lookups");
    obs_.hits = &reg.counter("service.hits");
    obs_.misses = &reg.counter("service.misses");
    obs_.dropouts = &reg.counter("service.dropouts");
    obs_.puts = &reg.counter("service.puts");
    obs_.evictions = &reg.counter("service.evictions");
    obs_.expirations = &reg.counter("service.expirations");
    obs_.tighten_events = &reg.counter("tuner.tighten");
    obs_.loosen_events = &reg.counter("tuner.loosen");
    obs_.rejected_puts = &reg.counter("service.rejected_puts");
    obs_.banned_hits_suppressed =
        &reg.counter("service.banned_hits_suppressed");
    obs_.saved_ms = &reg.counter("service.saved_ms");
    obs_.saved_flops_est = &reg.counter("service.saved_flops_est");
    obs_.entries = &reg.gauge("cache.entries");
    obs_.bytes = &reg.gauge("cache.bytes");
    obs_.uptime_seconds = &reg.gauge("service.uptime_seconds");
    obs_.heat_tracked = &reg.gauge("heat.tracked_slots");
    obs_.heat_dropped = &reg.gauge("heat.dropped_samples");
    if (config_.enable_tracing) {
        obs_.lookup_total_ns = &reg.histogram("lookup.total_ns");
        obs_.lookup_probe_ns = &reg.histogram("lookup.index_probe_ns");
        obs_.put_total_ns = &reg.histogram("put.total_ns");
        obs_.put_probe_ns = &reg.histogram("put.tuner_probe_ns");
        obs_.evict_ns = &reg.histogram("put.eviction_ns");
    }
    if (config_.enable_tracing && config_.enable_recorder) {
        obs::TraceConfig tc;
        tc.capacity = config_.recorder_capacity;
        tc.slo_ns = config_.trace_slo_ns;
        tc.sample_prob = config_.trace_sample_prob;
        recorder_ = std::make_unique<obs::FlightRecorder>(tc);
    }

    if (config_.enable_heat) {
        obs::HeatConfig hc;
        hc.stripes = std::max<size_t>(1, config_.heat_stripes);
        hc.capacity = std::max<size_t>(1, config_.heat_capacity);
        hc.half_life_us = config_.heat_half_life_us;
        hc.hot_threshold = config_.heat_hot_threshold;
        heat_ = std::make_unique<obs::HeatSketch>(hc);
    }
    start_us_ = clock_->nowUs();
}

PotluckService::SlotRef
PotluckService::findSlot(const std::string &function,
                         const std::string &key_type) const
{
    std::shared_lock lock(table_mutex_);
    FunctionDomain *domain = table_.domain(function);
    return {domain, domain ? domain->find(key_type) : nullptr};
}

PotluckService::SlotRef
PotluckService::resolve(const std::string &function,
                        const std::string &key_type, const char *verb) const
{
    SlotRef ref = findSlot(function, key_type);
    if (!ref.slot) {
        POTLUCK_FATAL(verb << " on unregistered (function='" << function
                           << "', key type='" << key_type << "')");
    }
    return ref;
}

std::vector<FunctionDomain *>
PotluckService::domains() const
{
    std::shared_lock lock(table_mutex_);
    return table_.domains();
}

void
PotluckService::registerKeyType(const std::string &function,
                                const KeyTypeConfig &cfg,
                                std::shared_ptr<FeatureExtractor> extractor)
{
    {
        // A new slot changes its domain's slot map, which readers walk
        // under the domain lock alone: hold both locks.
        std::unique_lock table_lock(table_mutex_);
        FunctionDomain &domain = table_.addFunction(function);
        std::unique_lock domain_lock(domain.mutex);
        KeyIndex &slot = table_.ensure(function, cfg);
        // Share one set of per-function metrics across the function's
        // slots (the registry returns the same object for the same
        // name). Assign them only when the slot is new: lookup() reads
        // these pointers through its resolved slot with no lock held,
        // so a re-registration (an app reconnecting, a replica
        // delivery) must never write them — the registry would hand
        // back the same objects anyway.
        if (!slot.fn_lookups) {
            slot.fn_lookups =
                &metrics_->counter("fn." + function + ".lookups");
            slot.fn_hits = &metrics_->counter("fn." + function + ".hits");
            slot.fn_misses = &metrics_->counter("fn." + function + ".misses");
            slot.fn_saved_ms =
                &metrics_->counter("fn." + function + ".saved_ms");
        }
        if (config_.enable_tracing && !slot.fn_lookup_ns) {
            slot.fn_lookup_ns =
                &metrics_->histogram("fn." + function + ".lookup_ns");
        }
        if (extractor)
            slot.extractor = std::move(extractor);
    }
    // Persist the registration so a warm restart rebuilds the slot
    // before any application reconnects (no service lock held here).
    if (ColdTier *tier = cold_tier_.load(std::memory_order_acquire))
        tier->noteRegistration(function, cfg);
    // A newly added key type covers entries inserted from now on;
    // retroactive back-fill would need the raw inputs, which the cache
    // deliberately does not retain (only keys and values are stored).
    // This matches the paper's prototype.
}

void
PotluckService::registerApp(const std::string &app)
{
    POTLUCK_ASSERT(!app.empty(), "empty app name");
    metrics_->counter("service.app_registrations").inc();
    // Section 4.3: registration "resets the input similarity
    // threshold". Reset every tuner; a fresh app changes the input
    // distribution, so previously learned diameters are suspect.
    for (FunctionDomain *domain : domains()) {
        std::unique_lock lock(domain->mutex);
        for (auto &[name, slot] : domain->slots)
            slot->tuner.reset();
    }
}

PotluckService::Probe
PotluckService::probeLocked(FunctionDomain &domain, KeyIndex &slot,
                            const FeatureVector &key, uint64_t now,
                            bool traced)
{
    Probe out;
    // Threshold-restricted nearest-neighbour query (Section 3.4).
    std::vector<Neighbor> neighbors;
    if (traced) {
        POTLUCK_TRACE_SPAN("lookup.index_probe", obs_.lookup_probe_ns);
        neighbors = slot.index->nearest(key, config_.knn);
    } else {
        neighbors = slot.index->nearest(key, config_.knn);
    }
    if (!neighbors.empty())
        out.result.nn_dist = neighbors.front().dist;
    double threshold = slot.tuner.threshold();
    for (const Neighbor &n : neighbors) {
        if (n.dist > threshold)
            continue;
        CacheEntry *entry = domain.storage.find(n.id);
        if (!entry)
            continue;
        if (entry->expiry_us <= now)
            continue; // expired but not yet swept
        if (config_.enable_reputation) {
            bool banned;
            {
                std::lock_guard<std::mutex> meta(meta_mutex_);
                banned = reputation_.banned(entry->app);
            }
            if (banned) {
                // Quarantined source: never serve its results.
                obs_.banned_hits_suppressed->inc();
                continue;
            }
        }
        // Bump the importance inputs under the SHARED lock (both
        // fields are atomic).
        entry->access_frequency.fetch_add(1, std::memory_order_relaxed);
        entry->last_access_us.store(now, std::memory_order_relaxed);
        out.result.hit = true;
        out.result.value = entry->value;
        out.result.id = n.id;
        out.result.nn_dist = n.dist;
        out.overhead_us = entry->compute_overhead_us;
        break;
    }
    return out;
}

LookupResult
PotluckService::lookup(const std::string &app, const std::string &function,
                       const std::string &key_type, const FeatureVector &key)
{
    // One pair of clock reads feeds both the global and the
    // per-function lookup histogram (the second sink is attached once
    // the slot is resolved) plus, when a trace is active on this
    // thread, a "service.lookup" span in the trace tree.
    POTLUCK_TRACE_NAMED_SPAN(lookup_span, "service.lookup",
                             obs_.lookup_total_ns, function.c_str());
    obs_.lookups->inc();

    auto [domain, slot] = resolve(function, key_type, "lookup");
    POTLUCK_SPAN_ATTACH(lookup_span, slot->fn_lookup_ns);
    slot->stats.lookups.fetch_add(1, std::memory_order_relaxed);
    slot->fn_lookups->inc();

    uint64_t now = clock_->nowUs();

    // Random dropout (Section 3.4): return a miss without querying, to
    // force a put() that recalibrates the threshold.
    if (config_.dropout_probability > 0.0) {
        bool drop;
        {
            std::lock_guard<std::mutex> meta(meta_mutex_);
            drop = rng_.bernoulli(config_.dropout_probability);
            if (drop)
                pending_miss_us_[{app, function}] = now;
        }
        if (drop) {
            obs_.dropouts->inc();
            LookupResult result;
            result.dropped = true;
            return result;
        }
    }

    Probe probe;
    {
        std::shared_lock lock(domain->mutex);
        probe = probeLocked(*domain, *slot, key, now);
    }

    if (probe.result.hit) {
        obs_.hits->inc();
        slot->stats.hits.fetch_add(1, std::memory_order_relaxed);
        slot->fn_hits->inc();
        accountSavings(*slot, app, probe.overhead_us);
        feedHeat(function, key_type, obs::HeatKind::Hit, now);
        return std::move(probe.result);
    }

    // Cold-tier probe (DESIGN.md §12), with no locks held: a match is
    // faulted in from disk, promoted back into RAM and served — a cold
    // hit is still a local HIT, so it lands before the miss counters
    // and before the cluster's miss handler gets a say.
    if (ColdTier *tier = cold_tier_.load(std::memory_order_acquire)) {
        ColdPromotion promo;
        if (tier->promote(function, key_type, key, slot->tuner.threshold(),
                          promo)) {
            promo.entry.access_frequency.fetch_add(
                1, std::memory_order_relaxed);
            Value value = promo.entry.value;
            double promoted_overhead_us = promo.entry.compute_overhead_us;
            EntryId id = insertPromoted(*domain, std::move(promo.entry), now);
            obs_.hits->inc();
            slot->stats.hits.fetch_add(1, std::memory_order_relaxed);
            slot->fn_hits->inc();
            accountSavings(*slot, app, promoted_overhead_us);
            feedHeat(function, key_type, obs::HeatKind::Hit, now);
            LookupResult result;
            result.hit = true;
            result.value = std::move(value);
            result.id = id;
            result.nn_dist = promo.dist;
            return result;
        }
    }

    obs_.misses->inc();
    slot->stats.misses.fetch_add(1, std::memory_order_relaxed);
    slot->fn_misses->inc();
    feedHeat(function, key_type, obs::HeatKind::Miss, now);
    MissHandler handler;
    {
        std::lock_guard<std::mutex> meta(meta_mutex_);
        pending_miss_us_[{app, function}] = now;
        handler = miss_handler_;
    }
    // Offer the miss to the handler with no locks held: it may
    // re-enter this service (to seed a remotely fetched value) or call
    // out to a peer. The local miss counters above stay bumped either
    // way — a remote hit is still a local miss (DESIGN.md §11).
    if (handler) {
        LookupResult remote;
        MissContext ctx{app, function, key_type, key};
        if (handler(ctx, remote)) {
            if (remote.nn_dist < 0.0)
                remote.nn_dist = probe.result.nn_dist;
            return remote;
        }
    }
    return std::move(probe.result);
}

std::vector<LookupResult>
PotluckService::lookupBatch(const std::string &app,
                            const std::string &function,
                            const std::string &key_type,
                            const std::vector<FeatureVector> &keys)
{
    std::vector<LookupResult> results(keys.size());
    if (keys.empty())
        return results;
    POTLUCK_TRACE_NAMED_SPAN(batch_span, "service.lookup_batch",
                             obs_.lookup_total_ns, function.c_str());
    const uint64_t n = keys.size();
    obs_.lookups->inc(n);

    auto [domain, slot] = resolve(function, key_type, "lookup");
    POTLUCK_SPAN_ATTACH(batch_span, slot->fn_lookup_ns);
    slot->stats.lookups.fetch_add(n, std::memory_order_relaxed);
    slot->fn_lookups->inc(n);

    uint64_t now = clock_->nowUs();

    // Random dropout (Section 3.4), drawn per key so batch traffic
    // recalibrates thresholds at the same rate as single lookups —
    // but under ONE meta-mutex acquisition for the whole batch.
    std::vector<uint8_t> dropped(keys.size(), 0);
    uint64_t n_dropped = 0;
    if (config_.dropout_probability > 0.0) {
        std::lock_guard<std::mutex> meta(meta_mutex_);
        for (size_t i = 0; i < keys.size(); ++i) {
            if (rng_.bernoulli(config_.dropout_probability)) {
                dropped[i] = 1;
                ++n_dropped;
            }
        }
        if (n_dropped > 0)
            pending_miss_us_[{app, function}] = now;
    }
    if (n_dropped > 0) {
        obs_.dropouts->inc(n_dropped);
        for (size_t i = 0; i < keys.size(); ++i)
            results[i].dropped = dropped[i] != 0;
        if (n_dropped == n)
            return results;
    }

    // Probe every key under one shared-lock acquisition. Hits complete
    // here, misses queue for the cold-tier / miss-handler passes below.
    // Savings and heat are tallied across the batch and accounted once
    // — accountSavings is additive in overhead_us (the carry logic
    // tracks the exact sum), and one weighted feedHeat takes the
    // stripe lock once instead of once per hit.
    uint64_t n_hits = 0;
    double hit_overhead_us = 0.0;
    std::vector<size_t> miss_indices;
    {
        std::shared_lock lock(domain->mutex);
        // One index-probe span for the whole pass; per-key spans would
        // cost two clock reads per key.
        POTLUCK_TRACE_SPAN("lookup.index_probe", obs_.lookup_probe_ns);
        for (size_t i = 0; i < keys.size(); ++i) {
            if (dropped[i])
                continue;
            Probe probe =
                probeLocked(*domain, *slot, keys[i], now, /*traced=*/false);
            if (probe.result.hit) {
                ++n_hits;
                if (probe.overhead_us > 0.0)
                    hit_overhead_us += probe.overhead_us;
            } else {
                miss_indices.push_back(i);
            }
            results[i] = std::move(probe.result);
        }
    }

    // Cold-tier probe per missed key (DESIGN.md §12).
    if (!miss_indices.empty()) {
        if (ColdTier *tier = cold_tier_.load(std::memory_order_acquire)) {
            double cold_threshold = slot->tuner.threshold();
            std::vector<size_t> still_missing;
            still_missing.reserve(miss_indices.size());
            for (size_t i : miss_indices) {
                ColdPromotion promo;
                if (!tier->promote(function, key_type, keys[i],
                                   cold_threshold, promo)) {
                    still_missing.push_back(i);
                    continue;
                }
                promo.entry.access_frequency.fetch_add(
                    1, std::memory_order_relaxed);
                Value value = promo.entry.value;
                double promoted_overhead_us = promo.entry.compute_overhead_us;
                EntryId id =
                    insertPromoted(*domain, std::move(promo.entry), now);
                ++n_hits;
                if (promoted_overhead_us > 0.0)
                    hit_overhead_us += promoted_overhead_us;
                results[i].hit = true;
                results[i].value = std::move(value);
                results[i].id = id;
                results[i].nn_dist = promo.dist;
            }
            miss_indices = std::move(still_missing);
        }
    }

    if (n_hits > 0) {
        obs_.hits->inc(n_hits);
        slot->stats.hits.fetch_add(n_hits, std::memory_order_relaxed);
        slot->fn_hits->inc(n_hits);
        accountSavings(*slot, app, hit_overhead_us);
        feedHeat(function, key_type, obs::HeatKind::Hit, now, n_hits);
    }

    if (!miss_indices.empty()) {
        uint64_t n_misses = miss_indices.size();
        obs_.misses->inc(n_misses);
        slot->stats.misses.fetch_add(n_misses, std::memory_order_relaxed);
        slot->fn_misses->inc(n_misses);
        feedHeat(function, key_type, obs::HeatKind::Miss, now, n_misses);
        MissHandler handler;
        {
            std::lock_guard<std::mutex> meta(meta_mutex_);
            pending_miss_us_[{app, function}] = now;
            handler = miss_handler_;
        }
        for (size_t i : miss_indices) {
            if (!handler)
                break;
            LookupResult remote;
            MissContext ctx{app, function, key_type, keys[i]};
            if (handler(ctx, remote)) {
                double nearest = results[i].nn_dist;
                results[i] = std::move(remote);
                if (results[i].nn_dist < 0.0)
                    results[i].nn_dist = nearest;
            }
        }
    }
    return results;
}

EntryId
PotluckService::put(const std::string &function, const std::string &key_type,
                    const FeatureVector &key, Value value,
                    const PutOptions &options)
{
    POTLUCK_ASSERT(!key.empty(), "put with empty key");
    POTLUCK_TRACE_NAMED_SPAN(put_span, "service.put", obs_.put_total_ns,
                             function.c_str());
    obs_.puts->inc();

    auto [domain, slot] = resolve(function, key_type, "put");

    if (config_.enable_reputation) {
        std::lock_guard<std::mutex> meta(meta_mutex_);
        if (reputation_.banned(options.app)) {
            // Barred apps can no longer pollute the cache (Section 3.5).
            obs_.rejected_puts->inc();
            return 0;
        }
    }
    slot->stats.puts.fetch_add(1, std::memory_order_relaxed);

    uint64_t now = clock_->nowUs();
    feedHeat(function, key_type, obs::HeatKind::Put, now);

    // Computation overhead: explicit override, else elapsed time since
    // this (app, function)'s last lookup miss (Section 3.3).
    double overhead_us = 0.0;
    if (options.compute_overhead_us) {
        overhead_us = *options.compute_overhead_us;
    } else {
        std::lock_guard<std::mutex> meta(meta_mutex_);
        auto pit = pending_miss_us_.find({options.app, function});
        if (pit != pending_miss_us_.end()) {
            overhead_us = static_cast<double>(now - pit->second);
            pending_miss_us_.erase(pit);
        }
    }

    // Shared section. Threshold tuning (Algorithm 1) observes the
    // nearest existing neighbour of the new key before inserting it;
    // the probe is skipped during warm-up — the algorithm only "kicks
    // into action" after z entries (Section 3.5), and skipping it
    // keeps bulk preloading cheap. The same section reads which of the
    // function's other key types the entry can carry (Section 3.7).
    std::map<std::string, FeatureVector> keys;
    keys[key_type] = key;
    std::vector<std::pair<std::string, std::shared_ptr<FeatureExtractor>>>
        extract;
    bool nn_valid = false;
    double nn_dist = 0.0;
    Value nn_value;
    std::string nn_app;
    {
        std::shared_lock lock(domain->mutex);
        if (slot->tuner.active()) {
            POTLUCK_TRACE_SPAN("put.tuner_probe", obs_.put_probe_ns);
            auto neighbors = slot->index->nearest(key, 1);
            const CacheEntry *nn = neighbors.empty()
                                       ? nullptr
                                       : domain->storage.find(
                                             neighbors.front().id);
            if (nn) {
                nn_valid = true;
                nn_dist = neighbors.front().dist;
                nn_value = nn->value;
                nn_app = nn->app;
            }
        }
        for (const auto &[type_name, extra_key] : options.extra_keys) {
            if (type_name != key_type && domain->find(type_name))
                keys[type_name] = extra_key;
        }
        if (options.raw_input) {
            for (const auto &[type_name, other] : domain->slots) {
                if (other->extractor && !keys.count(type_name))
                    extract.emplace_back(type_name, other->extractor);
            }
        }
    }
    // Key extraction runs with no lock held: a SIFT pass must not stall
    // the function's lookups.
    for (const auto &[type_name, extractor] : extract)
        keys[type_name] = extractor->extract(*options.raw_input);

    bool values_equal = false;
    if (nn_valid) {
        values_equal = slot->config.value_equals
                           ? slot->config.value_equals(nn_value, value)
                           : valueEquals(nn_value, value);
    }

    // Assemble the entry with a key for every registered type of this
    // function that we can derive (Section 3.7 propagation).
    CacheEntry entry;
    entry.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    entry.function = function;
    entry.keys = std::move(keys);
    entry.value = std::move(value);
    entry.app = options.app;
    entry.compute_overhead_us = overhead_us;
    entry.access_frequency = 1;
    entry.inserted_us = now;
    entry.last_access_us = now;
    entry.expiry_us = now + options.ttl_us.value_or(config_.default_ttl_us);

    if (options.access_frequency)
        entry.access_frequency = std::max<uint64_t>(1,
                                                    *options.access_frequency);

    const EntryId stored_id = entry.id;
    const size_t stored_bytes = entry.sizeBytes();
    Value stored_value = entry.value; // a shared_ptr: cheap copy
    ColdTier *tier = cold_tier_.load(std::memory_order_acquire);
    CacheEntry write_through; ///< copy for the cold tier (id != 0 = valid)
    if (tier)
        write_through = entry;

    double before = 0.0, after = 0.0;
    {
        std::unique_lock lock(domain->mutex);
        if (nn_valid) {
            before = slot->tuner.threshold();
            slot->tuner.observe(nn_dist, values_equal);
            after = slot->tuner.threshold();

            // Each observation is a vote on the neighbour's source app
            // (Section 3.5's reputation extension): an in-threshold
            // disagreement suggests a polluted entry; any confirmed
            // equivalence vouches for the source.
            if (config_.enable_reputation && nn_app != options.app) {
                std::lock_guard<std::mutex> meta(meta_mutex_);
                if (values_equal)
                    reputation_.recordPositive(nn_app);
                else if (nn_dist <= before)
                    reputation_.recordNegative(nn_app);
            }
        }
        // Index the entry under every key it carries, running each
        // index's own tuner warm-up accounting.
        domain->insert(std::move(entry));
        entries_total_.fetch_add(1, std::memory_order_relaxed);
        bytes_total_.fetch_add(stored_bytes, std::memory_order_relaxed);
    }
    if (after != before) {
        bool tightened = after < before;
        (tightened ? obs_.tighten_events : obs_.loosen_events)->inc();
        if (recorder_) {
            obs::recordDecision(
                recorder_.get(),
                tightened ? obs::DecisionKind::ThresholdTighten
                          : obs::DecisionKind::ThresholdLoosen,
                tightened ? "tuner.tighten" : "tuner.loosen",
                function + "/" + key_type, before, after, nn_dist, 0);
        }
    }

    // Durable write-through (DESIGN.md §12), outside every lock and
    // BEFORE capacity enforcement, so even an entry evicted by its own
    // put survives a crash. The segment log doubles as a WAL: a
    // SIGKILL'd daemon restarts warm from it, snapshot or no snapshot.
    if (tier)
        tier->admit(write_through);

    enforceCapacity();
    updateGlobalGauges();

    // Deliver put events outside every lock so observers may call back
    // into this or another service (the replication bridge does).
    std::vector<PutObserver> observers;
    {
        std::lock_guard<std::mutex> meta(meta_mutex_);
        observers = put_observers_;
    }
    if (!observers.empty()) {
        PutEvent event;
        event.function = function;
        event.key_type = key_type;
        event.key = key;
        event.value = std::move(stored_value);
        event.app = options.app;
        event.compute_overhead_us = overhead_us;
        for (const auto &observer : observers)
            observer(event);
    }
    return stored_id;
}

void
PotluckService::addPutObserver(PutObserver observer)
{
    POTLUCK_ASSERT(observer != nullptr, "null put observer");
    std::lock_guard<std::mutex> meta(meta_mutex_);
    put_observers_.push_back(std::move(observer));
}

void
PotluckService::setMissHandler(MissHandler handler)
{
    std::lock_guard<std::mutex> meta(meta_mutex_);
    miss_handler_ = std::move(handler);
}

double
PotluckService::reputationScore(const std::string &app) const
{
    std::lock_guard<std::mutex> meta(meta_mutex_);
    return reputation_.score(app);
}

bool
PotluckService::appBanned(const std::string &app) const
{
    std::lock_guard<std::mutex> meta(meta_mutex_);
    return reputation_.banned(app);
}

std::vector<std::string>
PotluckService::bannedApps() const
{
    std::lock_guard<std::mutex> meta(meta_mutex_);
    return reputation_.bannedApps();
}

CacheEntry
PotluckService::removeLocked(FunctionDomain &domain, EntryId id, bool expired)
{
    // Unindexing and destruction are separate steps: the entry is
    // moved OUT of storage so the caller can hand its keys and value
    // to the cold tier (or to the eviction log) without re-cloning
    // them, then let it drop when no tier wants it.
    CacheEntry removed = domain.remove(id);
    if (removed.id == 0)
        return removed;
    entries_total_.fetch_sub(1, std::memory_order_relaxed);
    bytes_total_.fetch_sub(removed.sizeBytes(), std::memory_order_relaxed);
    if (expired)
        obs_.expirations->inc();
    else
        obs_.evictions->inc();
    return removed;
}

void
PotluckService::setColdTier(ColdTier *tier)
{
    cold_tier_.store(tier, std::memory_order_release);
}

size_t
PotluckService::scrubColdTier()
{
    ColdTier *tier = cold_tier_.load(std::memory_order_acquire);
    return tier ? tier->scrubNow() : 0;
}

EntryId
PotluckService::insertPromoted(FunctionDomain &domain, CacheEntry entry,
                               uint64_t now)
{
    POTLUCK_ASSERT(!entry.keys.empty(), "promoted entry without keys");
    entry.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    entry.inserted_us = now;
    entry.last_access_us.store(now, std::memory_order_relaxed);
    const EntryId stored_id = entry.id;
    const size_t bytes = entry.sizeBytes();
    {
        std::unique_lock lock(domain.mutex);
        domain.insert(std::move(entry));
        entries_total_.fetch_add(1, std::memory_order_relaxed);
        bytes_total_.fetch_add(bytes, std::memory_order_relaxed);
    }
    enforceCapacity();
    updateGlobalGauges();
    return stored_id;
}

void
PotluckService::updateGlobalGauges()
{
    obs_.entries->set(
        static_cast<int64_t>(entries_total_.load(std::memory_order_relaxed)));
    obs_.bytes->set(
        static_cast<int64_t>(bytes_total_.load(std::memory_order_relaxed)));
}

void
PotluckService::recordEviction(const CacheEntry &victim)
{
    if (!recorder_)
        return;
    // Document WHY this entry lost: the importance-score inputs
    // (Section 3.3) at the moment of the decision. Reads the
    // moved-out victim, so no extra storage lookup under the lock.
    obs::recordDecision(
        recorder_.get(), obs::DecisionKind::Eviction, "evict",
        victim.function + "/" + victim.app, victim.compute_overhead_us,
        static_cast<double>(
            victim.access_frequency.load(std::memory_order_relaxed)),
        static_cast<double>(victim.sizeBytes()), victim.id);
}

namespace {

/**
 * Add `us` microseconds to a carry accumulator and return how many
 * WHOLE milliseconds the running total just crossed — the exact
 * increment for a ms-granularity counter (sub-ms amounts accumulate
 * instead of rounding to zero).
 */
uint64_t
carryWholeMs(std::atomic<uint64_t> &carry_us, uint64_t us)
{
    uint64_t before = carry_us.fetch_add(us, std::memory_order_relaxed);
    return (before + us) / 1000 - before / 1000;
}

} // namespace

void
PotluckService::accountSavings(KeyIndex &slot, const std::string &app,
                               double overhead_us)
{
    if (overhead_us <= 0.0)
        return; // unknown provenance (e.g. replica-seeded): no claim
    auto us = static_cast<uint64_t>(overhead_us);
    obs_.saved_flops_est->inc(
        static_cast<uint64_t>(overhead_us * config_.est_flops_per_us));

    // service.saved_ms: derive the whole-ms increment from the shared
    // us total so the counter tracks the exact sum, never the sum of
    // per-hit roundings.
    if (uint64_t delta_ms = carryWholeMs(saved_us_total_, us))
        obs_.saved_ms->inc(delta_ms);

    if (uint64_t fn_ms = carryWholeMs(slot.saved_us_carry, us))
        slot.fn_saved_ms->inc(fn_ms);

    // Per-app: shared-lock probe of the pointer cache; only an app's
    // FIRST saved hit takes the exclusive lock + registry probe.
    AppSavings *savings = nullptr;
    {
        std::shared_lock lock(app_savings_mutex_);
        auto it = app_savings_.find(app);
        if (it != app_savings_.end())
            savings = it->second.get();
    }
    if (!savings) {
        std::unique_lock lock(app_savings_mutex_);
        auto &slot = app_savings_[app];
        if (!slot) {
            slot = std::make_unique<AppSavings>();
            slot->saved_ms = &metrics_->counter("app." + app + ".saved_ms");
        }
        savings = slot.get();
    }
    if (uint64_t app_ms = carryWholeMs(savings->us_carry, us))
        savings->saved_ms->inc(app_ms);
}

void
PotluckService::feedHeat(const std::string &function,
                         const std::string &key_type, obs::HeatKind kind,
                         uint64_t now_us, uint64_t count)
{
    if (!heat_)
        return;
    if (heat_->feed(function, key_type, kind, now_us, count) && recorder_) {
        obs::recordDecision(recorder_.get(), obs::DecisionKind::HotSlot,
                            "hot_slot", function + "/" + key_type,
                            config_.heat_hot_threshold,
                            config_.heat_hot_threshold, 0.0,
                            obs::HeatSketch::slotHash(function, key_type));
    }
}

std::vector<obs::HotSlot>
PotluckService::hotSlots(size_t k) const
{
    if (!heat_)
        return {};
    return heat_->topK(k, clock_->nowUs());
}

void
PotluckService::publishObservability()
{
    uint64_t now = clock_->nowUs();
    obs_.uptime_seconds->set(
        static_cast<int64_t>((now - start_us_) / 1000000));
    if (!heat_)
        return;
    obs_.heat_tracked->set(static_cast<int64_t>(heat_->trackedSlots()));
    obs_.heat_dropped->set(static_cast<int64_t>(heat_->droppedSamples()));

    // Publish the top-k as gauge families so the hot-slot view rides
    // every existing snapshot surface (IPC stats, /metrics, cluster
    // fan-out). Slots that left the top-k zero out rather than
    // lingering at their last value.
    auto top = heat_->topK(16, now);
    std::lock_guard<std::mutex> lock(publish_mutex_);
    std::vector<std::string> current;
    current.reserve(top.size());
    for (const auto &slot : top) {
        std::string base = "heat.slot." + slot.label;
        current.push_back(base);
        metrics_->gauge(base + ".heat")
            .set(static_cast<int64_t>(slot.heat));
        metrics_->gauge(base + ".hits").set(static_cast<int64_t>(slot.hits));
        metrics_->gauge(base + ".misses")
            .set(static_cast<int64_t>(slot.misses));
        metrics_->gauge(base + ".puts").set(static_cast<int64_t>(slot.puts));
    }
    for (const auto &stale : published_heat_) {
        if (std::find(current.begin(), current.end(), stale) ==
            current.end()) {
            metrics_->gauge(stale + ".heat").set(0);
            metrics_->gauge(stale + ".hits").set(0);
            metrics_->gauge(stale + ".misses").set(0);
            metrics_->gauge(stale + ".puts").set(0);
        }
    }
    published_heat_ = std::move(current);
}

void
PotluckService::enforceCapacity()
{
    auto over = [&]() {
        if (config_.max_entries &&
            entries_total_.load(std::memory_order_relaxed) >
                config_.max_entries) {
            return true;
        }
        if (config_.max_bytes &&
            bytes_total_.load(std::memory_order_relaxed) > config_.max_bytes)
            return true;
        return false;
    };
    if (!over())
        return;
    // Serialize global eviction: concurrent puts would otherwise both
    // scan all domains and overshoot. No domain lock is held here;
    // domain locks are taken one at a time below.
    std::lock_guard<std::mutex> cap(capacity_mutex_);
    if (!over())
        return;
    POTLUCK_TRACE_SPAN("put.evict", obs_.evict_ns);
    ColdTier *tier = cold_tier_.load(std::memory_order_acquire);
    uint64_t now = tier ? clock_->nowUs() : 0;
    const std::vector<FunctionDomain *> all = domains();

    while (over()) {
        size_t total = entries_total_.load(std::memory_order_relaxed);
        if (total == 0)
            break;
        // Each non-empty domain nominates the policy's candidate under
        // its SHARED lock; the lowest score loses, ties to the lowest
        // id — the entry the policy would pick from all entries at
        // once. A positional policy (Random) instead draws once over
        // the total and the draw walks the domains in order.
        std::optional<size_t> position = eviction_->victimPosition(total);
        FunctionDomain *loser = nullptr;
        EntryId victim_id = 0;
        double lowest = 0.0;
        for (FunctionDomain *domain : all) {
            std::shared_lock lock(domain->mutex);
            const auto &entries = domain->storage.entries();
            if (entries.empty())
                continue;
            if (position) {
                if (*position >= entries.size()) {
                    *position -= entries.size();
                    continue;
                }
                loser = domain;
                victim_id = std::next(entries.begin(),
                                      static_cast<std::ptrdiff_t>(*position))
                                ->first;
                break;
            }
            EntryId id = eviction_->selectVictim(entries);
            double score = eviction_->victimScore(entries.at(id));
            if (!loser || score < lowest ||
                (score == lowest && id < victim_id)) {
                loser = domain;
                victim_id = id;
                lowest = score;
            }
        }
        if (!loser)
            continue; // the total moved under the draw: draw again
        CacheEntry victim;
        {
            std::unique_lock lock(loser->mutex);
            victim = removeLocked(*loser, victim_id, /*expired=*/false);
        }
        if (victim.id == 0)
            continue; // raced away between the scan and the removal
        // Log the decision, then hand the moved-out victim to the cold
        // tier (demotion instead of drop, DESIGN.md §12) with no
        // domain lock held — only capacity_mutex_, which the store
        // never takes.
        recordEviction(victim);
        if (!tier)
            continue;
        if (demotion_policy_.shouldDemote(victim, now))
            tier->demote(std::move(victim));
        else
            // A victim not worth demoting (expired, or below the TTL
            // floor) is gone from both tiers: drop its write-through
            // record too, or the log accumulates dead entries.
            tier->forget(victim);
    }
}

size_t
PotluckService::sweepExpired()
{
    uint64_t scan_start_ns = obs::spanNowNs();
    uint64_t now = clock_->nowUs();
    ColdTier *tier = cold_tier_.load(std::memory_order_acquire);
    size_t total = 0;
    // Swept entries are collected (moved, not copied) and their
    // durable records dropped only after every domain lock is released:
    // an expired entry must not resurrect on the next warm restart.
    std::vector<CacheEntry> forgotten;
    for (FunctionDomain *domain : domains()) {
        std::unique_lock lock(domain->mutex);
        auto expired = domain->storage.expiredAt(now);
        for (EntryId id : expired) {
            CacheEntry gone = removeLocked(*domain, id, /*expired=*/true);
            if (tier && gone.id != 0)
                forgotten.push_back(std::move(gone));
        }
        total += expired.size();
    }
    if (tier) {
        for (const CacheEntry &gone : forgotten)
            tier->forget(gone);
    }
    updateGlobalGauges();
    if (recorder_ && total > 0) {
        double scan_ns =
            static_cast<double>(obs::spanNowNs() - scan_start_ns);
        obs::recordDecision(recorder_.get(), obs::DecisionKind::ExpirySweep,
                            "expiry.sweep", "", scan_ns, 0.0, 0.0, total);
    }
    return total;
}

void
PotluckService::forEachEntry(
    const std::function<void(const CacheEntry &)> &fn) const
{
    for (FunctionDomain *domain : domains()) {
        std::shared_lock lock(domain->mutex);
        for (const auto &[id, entry] : domain->storage.entries())
            fn(entry);
    }
}

void
PotluckService::forEachKeyType(
    const std::function<void(const std::string &, const KeyTypeConfig &)>
        &fn) const
{
    // Slot maps change only under the table lock held exclusively.
    std::shared_lock lock(table_mutex_);
    for (const FunctionDomain *domain : table_.domains())
        for (const auto &[name, slot] : domain->slots)
            fn(domain->function, slot->config);
}

ServiceStats
PotluckService::stats() const
{
    // Counters are lock-free atomics; no service lock needed. The
    // struct is a snapshot view over the registry (see core/stats.h).
    ServiceStats s;
    s.lookups = obs_.lookups->value();
    s.hits = obs_.hits->value();
    s.misses = obs_.misses->value();
    s.dropouts = obs_.dropouts->value();
    s.puts = obs_.puts->value();
    s.evictions = obs_.evictions->value();
    s.expirations = obs_.expirations->value();
    s.tighten_events = obs_.tighten_events->value();
    s.loosen_events = obs_.loosen_events->value();
    s.rejected_puts = obs_.rejected_puts->value();
    s.banned_hits_suppressed = obs_.banned_hits_suppressed->value();
    return s;
}

double
PotluckService::functionHitRate(const std::string &function) const
{
    uint64_t hits = metrics_->counter("fn." + function + ".hits").value();
    uint64_t misses = metrics_->counter("fn." + function + ".misses").value();
    uint64_t answered = hits + misses;
    return answered ? static_cast<double>(hits) / answered : 0.0;
}

SlotStats
PotluckService::slotStats(const std::string &function,
                          const std::string &key_type) const
{
    const KeyIndex *slot = findSlot(function, key_type).slot;
    return slot ? slot->stats : SlotStats{};
}

double
PotluckService::threshold(const std::string &function,
                          const std::string &key_type) const
{
    const KeyIndex *slot = findSlot(function, key_type).slot;
    POTLUCK_ASSERT(slot, "threshold of unregistered slot");
    return slot->tuner.threshold();
}

void
PotluckService::setThreshold(const std::string &function,
                             const std::string &key_type, double value)
{
    auto [domain, slot] = findSlot(function, key_type);
    POTLUCK_ASSERT(slot, "setThreshold of unregistered slot");
    std::unique_lock lock(domain->mutex); // serialize with tuner.observe
    slot->tuner.setThreshold(value);
}

size_t
PotluckService::numEntries() const
{
    return entries_total_.load(std::memory_order_relaxed);
}

size_t
PotluckService::totalBytes() const
{
    return bytes_total_.load(std::memory_order_relaxed);
}

uint64_t
PotluckService::nextExpiryUs() const
{
    uint64_t next = 0;
    for (FunctionDomain *domain : domains()) {
        std::shared_lock lock(domain->mutex);
        uint64_t e = domain->storage.nextExpiryUs();
        if (e != 0 && (next == 0 || e < next))
            next = e;
    }
    return next;
}

} // namespace potluck
