#include "ops.h"

#include <cmath>
#include <cstring>
#include <future>
#include <unordered_set>

#include "features/downsample.h"
#include "util/rng.h"
#include "workload/apps.h"
#include "workload/dataset.h"
#include "workload/trace.h"

namespace perfbench {

using namespace potluck;

namespace {

/** Independent, reproducible stream per (seed, purpose). */
uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

FeatureVector
randomKey(Rng &rng, size_t dims)
{
    std::vector<float> v(dims);
    for (float &x : v)
        x = static_cast<float>(rng.uniformReal(0.0, 1.0));
    return FeatureVector(std::move(v));
}

/** Log-uniform modelled compute cost over Section 5.3's 1 ms - 10 s. */
double
logUniformCostUs(Rng &rng)
{
    return 1000.0 * std::exp(rng.uniformReal(0.0, std::log(10000.0)));
}

/** A KB-scale value whose bytes are a function of the item alone. */
Value
itemBlob(uint64_t seed, uint32_t item)
{
    Rng rng(streamSeed(seed, 1000 + item));
    size_t n = 1024 + static_cast<size_t>(rng.uniformInt(0, 1023));
    std::vector<uint8_t> bytes(n);
    std::memcpy(bytes.data(), &item, sizeof(item));
    for (size_t i = sizeof(item); i < n; ++i)
        bytes[i] = static_cast<uint8_t>(rng.engine()());
    return makeValue(std::move(bytes));
}

/// Nominal request rates (lookups per second; hot_small's per thread)
/// that size the windows; measured on a 4-vCPU x86 host.
constexpr double kRecogLookupsPerSec = 300.0;
constexpr double kChurnLookupsPerSec = 6000.0;
constexpr double kHotLookupsPerSec = 30000.0;

/** churn_tiered's RAM tier (--max-entries). */
size_t
ramTier(Scale scale)
{
    return scale == Scale::Tiny ? 200 : 2000;
}

/** Section 5.4's inference cost for the recognition app (27 ms). */
constexpr double kRecogInferenceUs = 27000.0;

OpList
buildRecog(uint64_t seed, double seconds, Scale scale)
{
    OpList ops;
    ops.function = functions::kObjectRecognition;
    ops.key_type = keytypes::kDownsamp;
    ops.metric = Metric::L2;
    ops.index_kind = IndexKind::KdTree;
    ops.apps = {"lens", "ar_cv"};

    const size_t preload = scale == Scale::Tiny ? 300 : 2000;
    const size_t window =
        scale == Scale::Tiny
            ? 2000
            : static_cast<size_t>(std::lround(seconds * kRecogLookupsPerSec));

    // Each app draws its own frames; frames alternate between the two
    // apps in both the preload and the window.
    CifarLikeOptions opt;
    DownsampleExtractor extractor(16, 16, /*grey=*/false);
    std::vector<Rng> app_rng;
    for (size_t a = 0; a < ops.apps.size(); ++a)
        app_rng.emplace_back(streamSeed(seed, a));
    auto addFrame = [&](uint32_t app) {
        Rng &rng = app_rng[app];
        int label = static_cast<int>(rng.uniformInt(0, opt.num_classes - 1));
        Image frame = drawCifarLikeImage(rng, label, opt);
        ops.keys.push_back(extractor.extract(frame));
        ops.values.push_back(encodeInt(label));
        ops.cost_us.push_back(kRecogInferenceUs);
        return Op{app, static_cast<uint32_t>(ops.keys.size() - 1)};
    };
    for (size_t i = 0; i < preload; ++i)
        ops.preload.push_back(addFrame(static_cast<uint32_t>(i % 2)));
    ops.window.resize(1);
    for (size_t i = 0; i < window; ++i)
        ops.window[0].push_back(addFrame(static_cast<uint32_t>(i % 2)));
    return ops;
}

OpList
buildHotSmall(uint64_t seed, double seconds, Scale scale)
{
    OpList ops;
    ops.function = "hot_small";
    ops.key_type = "vec25";
    ops.metric = Metric::L2;
    ops.index_kind = IndexKind::Hash;
    ops.apps = {"hot_a", "hot_b"};
    ops.threads = 2;
    ops.shm = true;

    const size_t hot = scale == Scale::Tiny ? 200 : 1000;
    constexpr size_t kDims = 25; // 100 B: Table 2's smallest key
    constexpr double kUnseenShare = 0.01;
    Rng rng(streamSeed(seed, 0));
    auto addItem = [&]() {
        ops.keys.push_back(randomKey(rng, kDims));
        ops.values.push_back(
            encodeInt(static_cast<int64_t>(ops.keys.size() - 1)));
        ops.cost_us.push_back(logUniformCostUs(rng));
        return static_cast<uint32_t>(ops.keys.size() - 1);
    };
    for (size_t i = 0; i < hot; ++i)
        ops.preload.push_back({static_cast<uint32_t>(i % 2), addItem()});

    const size_t per_thread =
        scale == Scale::Tiny
            ? 5000
            : static_cast<size_t>(std::lround(seconds * kHotLookupsPerSec));
    ops.window.resize(ops.threads);
    for (size_t t = 0; t < ops.threads; ++t) {
        Rng order(streamSeed(seed, 10 + t));
        ops.window[t].reserve(per_thread);
        for (size_t i = 0; i < per_thread; ++i) {
            uint32_t item =
                order.bernoulli(kUnseenShare)
                    ? addItem()
                    : static_cast<uint32_t>(order.uniformInt(0, hot - 1));
            ops.window[t].push_back({static_cast<uint32_t>(t), item});
        }
    }
    // Every put creates an entry; leave room for all of them.
    ops.max_entries = ops.preload.size() + ops.threads * per_thread + 1000;
    return ops;
}

OpList
buildChurnTiered(uint64_t seed, double seconds, Scale scale)
{
    OpList ops;
    ops.function = "churn";
    ops.key_type = "vec25";
    ops.metric = Metric::L2;
    ops.index_kind = IndexKind::Hash;
    ops.apps = {"churn"};
    ops.store = true;

    const size_t ram = ramTier(scale);
    const size_t items = scale == Scale::Tiny ? 5000 : 12000;
    const size_t window =
        scale == Scale::Tiny
            ? 1000
            : static_cast<size_t>(std::lround(seconds * kChurnLookupsPerSec));
    ops.max_entries = ram;

    // Section 5.3's replacement model, scaled up: log-spaced costs over
    // 1 ms - 10 s and exponential popularity over far more items than
    // the RAM tier holds.
    Rng rng(streamSeed(seed, 0));
    std::vector<SyntheticWorkload> model =
        makeWorkloads(rng, static_cast<int>(items));
    std::vector<int> trace =
        makeTrace(rng, model, PopularityModel::Exponential,
                  static_cast<int>(window + 8 * ram));
    for (const SyntheticWorkload &w : model) {
        ops.keys.push_back(randomKey(rng, 25));
        ops.cost_us.push_back(w.compute_ms * 1000.0);
    }
    ops.values.resize(items);

    // Set-up fills the RAM tier with the first `ram` distinct items of
    // the trace; the window is the rest of it.
    std::unordered_set<int> seen;
    size_t pos = 0;
    while (seen.size() < ram && pos < trace.size()) {
        int item = trace[pos++];
        if (seen.insert(item).second)
            ops.preload.push_back({0, static_cast<uint32_t>(item)});
    }
    ops.window.resize(1);
    for (; pos < trace.size() && ops.window[0].size() < window; ++pos)
        ops.window[0].push_back({0, static_cast<uint32_t>(trace[pos])});
    for (const auto &list : {ops.preload, ops.window[0]}) {
        for (const Op &op : list) {
            if (!ops.values[op.item])
                ops.values[op.item] = itemBlob(seed, op.item);
        }
    }
    return ops;
}

void
putBytes(std::vector<uint8_t> &out, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    out.insert(out.end(), p, p + n);
}

template <typename T>
void
putPod(std::vector<uint8_t> &out, T v)
{
    putBytes(out, &v, sizeof(v));
}

void
putString(std::vector<uint8_t> &out, const std::string &s)
{
    putPod<uint64_t>(out, s.size());
    putBytes(out, s.data(), s.size());
}

void
putOps(std::vector<uint8_t> &out, const std::vector<Op> &list)
{
    putPod<uint64_t>(out, list.size());
    for (const Op &op : list) {
        putPod(out, op.app);
        putPod(out, op.item);
    }
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w :
         {Workload::Recog, Workload::HotSmall, Workload::ChurnTiered}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::Recog:
        return "recog";
      case Workload::HotSmall:
        return "hot_small";
      case Workload::ChurnTiered:
        return "churn_tiered";
    }
    return "?";
}

size_t
OpList::windowOps() const
{
    size_t n = 0;
    for (const auto &list : window)
        n += list.size();
    return n;
}

std::vector<OpList>
buildOps(Workload w, uint64_t seed, double seconds, Scale scale)
{
    // More set-ups average over more draws and daemon placements;
    // recog's are the costly ones (every preload put rebuilds the
    // kd-tree).
    const size_t setups = scale == Scale::Tiny    ? 2
                          : w == Workload::Recog ? 3
                                                 : 8;
    const double window_s = seconds / static_cast<double>(setups);
    auto build = [=](uint64_t draw_seed) {
        OpList ops;
        switch (w) {
          case Workload::Recog:
            ops = buildRecog(draw_seed, window_s, scale);
            break;
          case Workload::HotSmall:
            ops = buildHotSmall(draw_seed, window_s, scale);
            break;
          case Workload::ChurnTiered:
            ops = buildChurnTiered(draw_seed, window_s, scale);
            break;
        }
        ops.workload = w;
        ops.seed = draw_seed;
        ops.ram_tier = ramTier(scale);
        return ops;
    };
    // The draws are independent; build them side by side (untimed).
    std::vector<std::future<OpList>> draws;
    for (size_t k = 0; k < setups; ++k)
        draws.push_back(std::async(std::launch::async, build,
                                   streamSeed(seed, 100 + k)));
    std::vector<OpList> out;
    for (auto &draw : draws)
        out.push_back(draw.get());
    return out;
}

std::vector<uint8_t>
serializeOps(const OpList &ops)
{
    std::vector<uint8_t> out;
    putString(out, workloadName(ops.workload));
    putString(out, ops.function);
    putString(out, ops.key_type);
    putPod(out, static_cast<int>(ops.metric));
    putPod(out, static_cast<int>(ops.index_kind));
    putPod<uint64_t>(out, ops.apps.size());
    for (const std::string &app : ops.apps)
        putString(out, app);
    putPod<uint64_t>(out, ops.threads);
    putPod(out, ops.shm);
    putPod(out, ops.max_entries);
    putPod(out, ops.store);
    putPod<uint64_t>(out, ops.ram_tier);
    putPod(out, ops.seed);
    putPod<uint64_t>(out, ops.keys.size());
    for (size_t i = 0; i < ops.keys.size(); ++i) {
        putPod<uint64_t>(out, ops.keys[i].size());
        putBytes(out, ops.keys[i].values().data(), ops.keys[i].sizeBytes());
        size_t n = valueSize(ops.values[i]);
        putPod<uint64_t>(out, n);
        if (n)
            putBytes(out, ops.values[i]->data(), n);
        putPod(out, ops.cost_us[i]);
    }
    putOps(out, ops.preload);
    putPod<uint64_t>(out, ops.window.size());
    for (const auto &list : ops.window)
        putOps(out, list);
    return out;
}

} // namespace perfbench
