#include "replay.h"

#include <sys/stat.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "core/eviction.h"
#include "core/index.h"
#include "core/potluck_service.h"
#include "ipc/message.h"
#include "store/tiered_store.h"

namespace perfbench {

using namespace potluck;

namespace {

/** Keeps replayed results alive so the compiler cannot drop the work. */
volatile double g_sink = 0.0;

/** Caps on the standalone replays, so a long window stays cheap. */
constexpr size_t kMaxCodecOps = 20000;
constexpr size_t kMaxDistancePairs = 1 << 16;
constexpr size_t kDistanceBlock = 256;

/** A cold-tier call that changed which keys the RAM index holds. */
struct IndexChange
{
    bool insert = false;
    /** The entry; 0 for a promoted entry, whose id the lookup returns. */
    EntryId id = 0;
};

/** What the calling thread is executing, for the cold-tier decorator. */
struct OpContext
{
    SpanList *spans = nullptr; ///< null: record no spans (preload)
    uint64_t op = 0;
    SpanName parent = SpanName::None;
    /** The op's index changes, in call order. */
    std::vector<IndexChange> changes;
};
thread_local OpContext t_ctx;

/**
 * The mirror index: fed the service's index changes in the same order,
 * and probed right after each lookup with the lookup's key.
 */
class MirrorIndex
{
  public:
    explicit MirrorIndex(const OpList &ops)
        : ops_(ops), index_(makeIndex(ops.index_kind, ops.metric))
    {}

    void
    probe(uint64_t op, uint32_t item, SpanList &spans)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const uint64_t t0 = nowNs();
        std::vector<Neighbor> nn = index_->nearest(ops_.keys[item], knn_);
        const uint64_t t1 = nowNs();
        g_sink = g_sink + static_cast<double>(nn.size());
        spans.push_back({op, SpanName::IndexNearest, SpanName::ServiceLookup,
                         t0, t1});
        (changed_ ? after_change_us_ : plain_us_).push_back(spans.back().us());
        probe_items_.push_back(item);
        changed_ = false;
    }

    /** Apply an op's changes; inserts carry `item`'s key. */
    void
    apply(const std::vector<IndexChange> &changes, uint32_t item,
          EntryId promoted_id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const IndexChange &c : changes) {
            if (c.insert)
                index_->insert(c.id ? c.id : promoted_id, ops_.keys[item]);
            else
                index_->remove(c.id);
            changed_ = true;
        }
    }

    void
    finish(InProcessResult &out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.nearest_us = std::move(plain_us_);
        out.nearest_after_insert_us = std::move(after_change_us_);
        out.probe_items = std::move(probe_items_);
        out.index_entries = index_->size();
    }

  private:
    const OpList &ops_;
    const size_t knn_ = PotluckConfig{}.knn;
    std::mutex mutex_;
    std::unique_ptr<Index> index_;
    bool changed_ = false;
    std::vector<double> plain_us_;
    std::vector<double> after_change_us_;
    std::vector<uint32_t> probe_items_;
};

/**
 * ColdTier decorator: a span around every call into the wrapped tier,
 * filed under the calling thread's op, and the index mutations those
 * calls imply.
 */
class TimedColdTier : public ColdTier
{
  public:
    explicit TimedColdTier(ColdTier &inner) : inner_(inner) {}

    void
    admit(const CacheEntry &entry) override
    {
        const uint64_t t0 = nowNs();
        inner_.admit(entry);
        record(SpanName::StoreAdmit, t0);
        // Every put is written through before capacity enforcement
        // runs, so this is where the entry enters the index in order.
        t_ctx.changes.push_back({true, entry.id});
    }

    void
    demote(CacheEntry &&entry) override
    {
        const EntryId id = entry.id;
        const uint64_t t0 = nowNs();
        inner_.demote(std::move(entry));
        record(SpanName::StoreDemote, t0);
        t_ctx.changes.push_back({false, id});
    }

    bool
    promote(const std::string &function, const std::string &key_type,
            const FeatureVector &key, double threshold,
            ColdPromotion &out) override
    {
        const uint64_t t0 = nowNs();
        const bool hit = inner_.promote(function, key_type, key, threshold,
                                        out);
        record(hit ? SpanName::StorePromoteHit : SpanName::StorePromoteMiss,
               t0);
        if (hit)
            t_ctx.changes.push_back({true, 0});
        return hit;
    }

    void forget(const CacheEntry &entry) override { inner_.forget(entry); }

    void
    noteRegistration(const std::string &function,
                     const KeyTypeConfig &cfg) override
    {
        inner_.noteRegistration(function, cfg);
    }

    size_t scrubNow() override { return inner_.scrubNow(); }

  private:
    void
    record(SpanName name, uint64_t t0)
    {
        if (t_ctx.spans)
            t_ctx.spans->push_back({t_ctx.op, name, t_ctx.parent, t0,
                                    nowNs()});
    }

    ColdTier &inner_;
};

/** Sum of st_blocks * 512 over the regular files under `dir`. */
uint64_t
allocatedBytes(const std::string &dir)
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        struct stat st{};
        if (entry.is_regular_file() && ::stat(entry.path().c_str(), &st) == 0)
            total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
    return total;
}

KeyTypeConfig
slotConfig(const OpList &ops)
{
    KeyTypeConfig cfg;
    cfg.name = ops.key_type;
    cfg.metric = ops.metric;
    cfg.index_kind = ops.index_kind;
    return cfg;
}

uint64_t
userBytes(const OpList &ops, uint32_t item)
{
    return ops.keys[item].sizeBytes() + valueSize(ops.values[item]);
}

/** The entry a put of `item` creates, as the eviction replay holds it. */
CacheEntry
makeEntry(const OpList &ops, uint32_t item, EntryId id)
{
    CacheEntry e;
    e.id = id;
    e.function = ops.function;
    e.keys[ops.key_type] = ops.keys[item];
    e.value = ops.values[item];
    e.app = ops.apps.front();
    e.compute_overhead_us = ops.cost_us[item];
    e.expiry_us = PotluckConfig{}.default_ttl_us; // on a clock at zero
    return e;
}

/** distance() over consecutive probe keys, timed in blocks. */
void
replayDistance(const OpList &ops, const std::vector<uint32_t> &probes,
               LayerReplays &out)
{
    const size_t pairs =
        std::min(probes.size() > 0 ? probes.size() - 1 : 0,
                 kMaxDistancePairs);
    for (size_t b = 0; b + kDistanceBlock <= pairs; b += kDistanceBlock) {
        double sum = 0.0;
        const uint64_t t0 = nowNs();
        for (size_t i = b; i < b + kDistanceBlock; ++i)
            sum += distance(ops.keys[probes[i]], ops.keys[probes[i + 1]],
                            ops.metric);
        const uint64_t t1 = nowNs();
        g_sink = g_sink + sum;
        out.distance_ns.push_back(static_cast<double>(t1 - t0) /
                                  kDistanceBlock);
    }
}

void
codecSample(const Request &request, const Reply &reply, LayerReplays &out,
            double &request_bytes, double &reply_bytes)
{
    const uint64_t t0 = nowNs();
    Request req = decodeRequest(encodeRequest(request));
    Reply rep = decodeReply(encodeReply(reply));
    const uint64_t t1 = nowNs();
    g_sink = g_sink + static_cast<double>(req.key.size() + rep.hit);
    out.codec_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    request_bytes += static_cast<double>(requestWireSize(request));
    reply_bytes += static_cast<double>(replyWireSize(reply));
}

/** The wire codec on the run's own messages: each window request and
 * the reply phase 2 would have sent for it. */
void
replayCodec(const OpList &ops, const InProcessResult &p2, LayerReplays &out)
{
    double request_bytes = 0.0;
    double reply_bytes = 0.0;
    for (size_t t = 0; t < p2.outcomes.size(); ++t) {
        for (size_t i = 0; i < p2.outcomes[t].size() &&
                           out.codec_us.size() < kMaxCodecOps;
             ++i) {
            const Op &op = ops.window[t][i];
            const Outcome outcome = p2.outcomes[t][i];
            Request lookup;
            lookup.type = RequestType::Lookup;
            lookup.app = ops.apps[op.app];
            lookup.function = ops.function;
            lookup.key_type = ops.key_type;
            lookup.key = ops.keys[op.item];
            Reply answer;
            answer.type = RequestType::Lookup;
            answer.ok = true;
            answer.hit = outcome == Outcome::Hit;
            answer.dropped = outcome == Outcome::Dropped;
            if (answer.hit)
                answer.value = ops.values[op.item];
            codecSample(lookup, answer, out, request_bytes, reply_bytes);
            if (outcome == Outcome::Hit)
                continue;
            Request put = lookup;
            put.type = RequestType::Put;
            put.value = ops.values[op.item];
            put.compute_overhead_us = ops.cost_us[op.item];
            Reply stored;
            stored.type = RequestType::Put;
            stored.ok = true;
            stored.entry_id = i + 1;
            codecSample(put, stored, out, request_bytes, reply_bytes);
        }
    }
    if (!out.codec_us.empty()) {
        out.request_bytes = request_bytes / out.codec_us.size();
        out.reply_bytes = reply_bytes / out.codec_us.size();
    }
}

/**
 * The importance policy over a RAM tier the size of churn_tiered's,
 * filled with the run's puts in order: every put past capacity selects
 * a victim.
 */
void
replayEviction(const OpList &ops, const InProcessResult &p2,
               LayerReplays &out)
{
    ImportanceEviction policy;
    std::map<EntryId, CacheEntry> ram;
    for (size_t i = 0; i < p2.put_items.size(); ++i) {
        CacheEntry entry = makeEntry(ops, p2.put_items[i], i + 1);
        ram.emplace(entry.id, std::move(entry));
        if (ram.size() <= ops.ram_tier)
            continue;
        const uint64_t t0 = nowNs();
        const EntryId victim = policy.selectVictim(ram);
        out.select_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        ram.erase(victim);
    }
}

} // namespace

InProcessResult
runInProcess(const OpList &ops, const std::string &dir)
{
    PotluckConfig config;
    if (ops.max_entries)
        config.max_entries = ops.max_entries;
    PotluckService service(config);
    std::unique_ptr<store::TieredStore> tier;
    std::unique_ptr<TimedColdTier> timed;
    const std::string store_dir = dir + "/store";
    if (ops.store) {
        store::StoreConfig scfg;
        scfg.dir = store_dir;
        tier = std::make_unique<store::TieredStore>(std::move(scfg));
        tier->attach(service);
        timed = std::make_unique<TimedColdTier>(*tier);
        service.setColdTier(timed.get());
    }
    for (const std::string &app : ops.apps)
        service.registerApp(app);
    service.registerKeyType(ops.function, slotConfig(ops));

    InProcessResult out;
    MirrorIndex mirror(ops);
    std::mutex puts_mutex;
    auto put = [&](const Op &op) {
        PutOptions options;
        options.app = ops.apps[op.app];
        options.compute_overhead_us = ops.cost_us[op.item];
        t_ctx.changes.clear();
        const EntryId id = service.put(ops.function, ops.key_type,
                                       ops.keys[op.item],
                                       ops.values[op.item], options);
        // With a store, admit() and demote() filed the changes.
        if (!timed)
            t_ctx.changes.push_back({true, id});
        mirror.apply(t_ctx.changes, op.item, 0);
        std::lock_guard<std::mutex> lock(puts_mutex);
        out.put_items.push_back(op.item);
    };

    for (const Op &op : ops.preload)
        put(op);

    const size_t threads = ops.window.size();
    out.spans.resize(threads);
    out.outcomes.resize(threads);
    auto drive = [&](size_t t) {
        SpanList &spans = out.spans[t];
        std::vector<Outcome> &outcomes = out.outcomes[t];
        spans.reserve(3 * ops.window[t].size());
        outcomes.reserve(ops.window[t].size());
        for (size_t i = 0; i < ops.window[t].size(); ++i) {
            const Op &op = ops.window[t][i];
            t_ctx.spans = &spans;
            t_ctx.op = opId(0, t, i);
            t_ctx.parent = SpanName::ServiceLookup;
            t_ctx.changes.clear();
            const uint64_t t0 = nowNs();
            LookupResult r = service.lookup(ops.apps[op.app], ops.function,
                                            ops.key_type, ops.keys[op.item]);
            spans.push_back({opId(0, t, i), SpanName::ServiceLookup,
                             SpanName::None, t0, nowNs()});
            // The service probed its index before this op's cold-tier
            // calls changed it; the mirror does the same.
            if (!r.dropped)
                mirror.probe(opId(0, t, i), op.item, spans);
            mirror.apply(t_ctx.changes, op.item, r.id);
            if (r.hit) {
                outcomes.push_back(Outcome::Hit);
                continue;
            }
            outcomes.push_back(r.dropped ? Outcome::Dropped : Outcome::Miss);
            t_ctx.parent = SpanName::ServicePut;
            const uint64_t t2 = nowNs();
            put(op);
            spans.push_back({opId(0, t, i), SpanName::ServicePut,
                             SpanName::None, t2, nowNs()});
        }
        t_ctx = OpContext{};
    };
    std::vector<std::thread> workers;
    for (size_t t = 1; t < threads; ++t)
        workers.emplace_back(drive, t);
    drive(0);
    for (std::thread &w : workers)
        w.join();

    if (const obs::HistogramSnapshot *probe =
            service.metrics().snapshot().findHistogram(
                "lookup.index_probe_ns"))
        out.index_probe_ns = probe->sum;
    out.entries = service.numEntries();
    mirror.finish(out);
    if (tier) {
        tier->close();
        uint64_t user_bytes = 0;
        for (uint32_t item : out.put_items)
            user_bytes += userBytes(ops, item);
        if (user_bytes)
            out.store_bytes_per_user_byte =
                static_cast<double>(allocatedBytes(store_dir)) / user_bytes;
    }
    return out;
}

LayerReplays
runLayerReplays(const OpList &ops, const InProcessResult &p2)
{
    LayerReplays out;
    replayDistance(ops, p2.probe_items, out);
    replayCodec(ops, p2, out);
    replayEviction(ops, p2, out);
    return out;
}

} // namespace perfbench
