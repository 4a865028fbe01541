#include "store/tiered_store.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/hash_index.h"
#include "store/codec.h"
#include "util/logging.h"

namespace potluck::store {

namespace {

/** Record types in the segment log. */
constexpr uint8_t kRecEntry = 1;
constexpr uint8_t kRecTombstone = 2;
constexpr uint8_t kRecRegistration = 3;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnvMix(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Signature of one key's float bytes — the slot-bucket hash that
 * makes an exact re-probe O(1). */
uint64_t
keySignature(const FeatureVector &key)
{
    return fnvMix(kFnvOffset, key.values().data(), key.sizeBytes());
}

std::string
segmentPath(const std::string &dir, uint64_t gen)
{
    return dir + "/seg-" + std::to_string(gen) + ".log";
}

std::string
lockPath(const std::string &dir)
{
    return dir + "/LOCK";
}

/**
 * Directories locked by stores OPEN in this process. The pidfile alone
 * cannot tell "a second store in this process" (must refuse) apart
 * from "this process reopening after closeDirty()" (must reclaim —
 * the pid in the stale file is our own): both read back getpid().
 */
std::mutex g_open_dirs_mutex;
std::set<std::string> g_open_dirs;

bool
markDirOpen(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(g_open_dirs_mutex);
    return g_open_dirs.insert(dir).second;
}

void
markDirClosed(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(g_open_dirs_mutex);
    g_open_dirs.erase(dir);
}

/** Steady-clock milliseconds (backoff + scrub token arithmetic). */
uint64_t
steadyMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
sidecarPath(const std::string &dir)
{
    return dir + "/index.sidecar";
}

std::string
encodeTombstone(uint64_t key_hash)
{
    std::string payload;
    putU8(payload, kRecTombstone);
    putU64(payload, key_hash);
    return payload;
}

std::string
encodeRegistration(const SidecarRegistration &reg)
{
    std::string payload;
    putU8(payload, kRecRegistration);
    putRegistration(payload, reg.function, reg.config);
    return payload;
}

} // namespace

/** Cached store.* registry pointers (resolved once at attach). */
struct TieredStore::Metrics
{
    obs::Counter *admits;
    obs::Counter *demotions;
    obs::Counter *promotions;
    obs::Counter *probes;
    obs::Counter *probe_misses;
    obs::Counter *replaced;
    obs::Counter *tombstones;
    obs::Counter *cold_evictions;
    obs::Counter *cold_expired;
    obs::Counter *compactions;
    obs::Counter *compacted_records;
    obs::Counter *segments_created;
    obs::Counter *segments_deleted;
    obs::Counter *recovered_records;
    obs::Counter *recovered_from_scan;
    obs::Counter *torn_segments;
    obs::Counter *value_crc_failures;
    obs::Counter *oversize_drops;
    obs::Counter *index_rewrites;
    obs::Counter *write_degraded;
    obs::Counter *scrub_frames;
    obs::Counter *scrub_bytes;
    obs::Counter *scrub_corrupt;
    obs::Counter *scrub_passes;
    obs::Counter *scrub_repaired;
    obs::Gauge *cold_entries;
    obs::Gauge *cold_bytes;
    obs::Gauge *segments;
    obs::Gauge *garbage_bytes;
    obs::Gauge *disk_bytes;
    obs::Gauge *scrub_quarantined;

    explicit Metrics(obs::MetricsRegistry &reg)
        : admits(&reg.counter("store.admits")),
          demotions(&reg.counter("store.demotions")),
          promotions(&reg.counter("store.promotions")),
          probes(&reg.counter("store.probes")),
          probe_misses(&reg.counter("store.probe_misses")),
          replaced(&reg.counter("store.replaced")),
          tombstones(&reg.counter("store.tombstones")),
          cold_evictions(&reg.counter("store.cold_evictions")),
          cold_expired(&reg.counter("store.cold_expired")),
          compactions(&reg.counter("store.compactions")),
          compacted_records(&reg.counter("store.compacted_records")),
          segments_created(&reg.counter("store.segments_created")),
          segments_deleted(&reg.counter("store.segments_deleted")),
          recovered_records(&reg.counter("store.recovered_records")),
          recovered_from_scan(&reg.counter("store.recovered_from_scan")),
          torn_segments(&reg.counter("store.torn_segments")),
          value_crc_failures(&reg.counter("store.value_crc_failures")),
          oversize_drops(&reg.counter("store.oversize_drops")),
          index_rewrites(&reg.counter("store.index_rewrites")),
          write_degraded(&reg.counter("store.write_degraded")),
          scrub_frames(&reg.counter("store.scrub.frames")),
          scrub_bytes(&reg.counter("store.scrub.bytes")),
          scrub_corrupt(&reg.counter("store.scrub.corrupt")),
          scrub_passes(&reg.counter("store.scrub.passes")),
          scrub_repaired(&reg.counter("store.scrub.repaired")),
          cold_entries(&reg.gauge("store.cold_entries")),
          cold_bytes(&reg.gauge("store.cold_bytes")),
          segments(&reg.gauge("store.segments")),
          garbage_bytes(&reg.gauge("store.garbage_bytes")),
          disk_bytes(&reg.gauge("store.disk_bytes")),
          scrub_quarantined(&reg.gauge("store.scrub.quarantined"))
    {}
};

uint64_t
TieredStore::contentIdentity(const CacheEntry &entry)
{
    uint64_t h = kFnvOffset;
    h = fnvMix(h, entry.function.data(), entry.function.size());
    for (const auto &[type, key] : entry.keys) {
        h = fnvMix(h, type.data(), type.size());
        h = fnvMix(h, key.values().data(), key.sizeBytes());
    }
    return h;
}

TieredStore::TieredStore(StoreConfig config) : config_(std::move(config))
{
    POTLUCK_ASSERT(!config_.dir.empty(), "store directory not set");
    POTLUCK_ASSERT(config_.segment_bytes >= 4096,
                   "segment capacity too small");
    openDir();
    recover();
}

TieredStore::~TieredStore()
{
    close();
}

void
TieredStore::openDir()
{
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
    if (ec) {
        POTLUCK_FATAL("cannot create store directory " << config_.dir << ": "
                                                       << ec.message());
    }
    acquireLock();
}

void
TieredStore::acquireLock()
{
    // O_EXCL pidfile: two daemons mmap'ing the same segments would
    // interleave appends into mutual garbage, so the second attacher
    // must fail loudly. A lock whose pid is dead (or is us — a dirty
    // close in this very process) is stale and reclaimed. The
    // in-process registry closes the hole the pidfile cannot: a SECOND
    // store in this process also reads back our own pid.
    if (!markDirOpen(config_.dir)) {
        POTLUCK_FATAL("store directory "
                      << config_.dir
                      << " is already open in this process");
    }
    const std::string path = lockPath(config_.dir);
    for (int attempt = 0; attempt < 2; ++attempt) {
        int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd >= 0) {
            const std::string pid = std::to_string(::getpid()) + "\n";
            if (::write(fd, pid.data(), pid.size()) !=
                static_cast<ssize_t>(pid.size())) {
                POTLUCK_WARN("store: short write to lockfile " << path);
            }
            lock_fd_ = fd;
            return;
        }
        if (errno != EEXIST) {
            markDirClosed(config_.dir);
            POTLUCK_FATAL("cannot create store lockfile "
                          << path << ": " << std::strerror(errno));
        }
        long holder = 0;
        {
            std::ifstream in(path);
            in >> holder;
        }
        if (holder > 0 && holder != static_cast<long>(::getpid()) &&
            (::kill(static_cast<pid_t>(holder), 0) == 0 ||
             errno != ESRCH)) {
            markDirClosed(config_.dir);
            POTLUCK_FATAL("store directory "
                          << config_.dir << " is locked by running pid "
                          << holder
                          << " (stop that daemon or use a different "
                             "--store-dir)");
        }
        POTLUCK_WARN("store: reclaiming stale lock "
                     << path << " (pid " << holder << " is gone)");
        ::unlink(path.c_str());
    }
    markDirClosed(config_.dir);
    POTLUCK_FATAL("cannot acquire store lockfile " << path
                                                   << ": reclaim raced");
}

void
TieredStore::recover()
{
    // Discover existing segments; existing files keep their original
    // capacity (config_.segment_bytes may have changed across runs).
    for (const auto &ent :
         std::filesystem::directory_iterator(config_.dir)) {
        const std::string name = ent.path().filename().string();
        if (name.rfind("seg-", 0) != 0 ||
            name.size() <= 4 + 4 /* "seg-" + ".log" */ ||
            name.substr(name.size() - 4) != ".log") {
            continue;
        }
        uint64_t gen = 0;
        try {
            gen = std::stoull(name.substr(4, name.size() - 8));
        } catch (const std::exception &) {
            continue;
        }
        if (gen == 0)
            continue;
        size_t capacity = static_cast<size_t>(ent.file_size());
        if (capacity == 0)
            capacity = config_.segment_bytes;
        segments_[gen] = std::make_unique<SegmentFile>(
            ent.path().string(), gen, capacity);
    }
    if (segments_.empty()) {
        segments_[1] = std::make_unique<SegmentFile>(
            segmentPath(config_.dir, 1), 1, config_.segment_bytes);
        active_gen_ = 1;
        return;
    }
    active_gen_ = segments_.rbegin()->first;

    // Sidecar-accelerated path: parse only the headers the index points
    // at (keys fault in; value pages stay cold).
    SidecarImage image;
    std::map<uint64_t, size_t> indexed_len;
    recovery_.sidecar_valid = loadSidecar(image, sidecarPath(config_.dir));
    if (recovery_.sidecar_valid) {
        for (SidecarRegistration &reg : image.registrations) {
            SlotKey slot{reg.function, reg.config.name};
            if (slot_configs_.emplace(slot, reg.config).second)
                registrations_.push_back(std::move(reg));
        }
        for (const SidecarSegment &seg : image.segments) {
            auto it = segments_.find(seg.generation);
            if (it == segments_.end())
                continue;
            indexed_len[seg.generation] = std::min(
                static_cast<size_t>(seg.indexed_len),
                it->second->capacity());
        }
        for (const SidecarEntry &e : image.entries) {
            auto it = segments_.find(e.generation);
            if (it == segments_.end())
                continue;
            size_t n = 0;
            const uint8_t *payload =
                it->second->payloadAt(static_cast<size_t>(e.offset), n);
            if (!payload)
                continue;
            RecordMeta meta;
            uint64_t hash = 0;
            if (!decodeEntry(payload, n, meta, hash) || hash != e.key_hash)
                continue;
            meta.gen = e.generation;
            meta.offset = e.offset;
            records_[hash] = std::move(meta);
            ++recovery_.from_sidecar;
        }
    }

    // Replay the raw tails (everything past each segment's indexed
    // prefix) in generation order: a later record with the same content
    // identity supersedes, a tombstone erases.
    for (auto &[gen, seg] : segments_) {
        size_t start = 0;
        if (auto it = indexed_len.find(gen); it != indexed_len.end())
            start = it->second;
        const uint64_t g = gen;
        SegmentScanReport report = seg->scanFrom(
            start, [&](size_t offset, const uint8_t *payload, size_t n) {
                Reader in{payload, n};
                uint8_t type = 0;
                if (!in.u8(type))
                    return;
                if (type == kRecEntry) {
                    RecordMeta meta;
                    uint64_t hash = 0;
                    if (!decodeEntry(payload, n, meta, hash))
                        return;
                    meta.gen = g;
                    meta.offset = offset;
                    records_[hash] = std::move(meta);
                    ++recovery_.from_scan;
                } else if (type == kRecTombstone) {
                    uint64_t hash = 0;
                    if (in.u64(hash))
                        records_.erase(hash);
                } else if (type == kRecRegistration) {
                    SidecarRegistration reg;
                    if (!getRegistration(in, reg.function, reg.config))
                        return;
                    SlotKey slot{reg.function, reg.config.name};
                    if (slot_configs_.emplace(slot, reg.config).second)
                        registrations_.push_back(std::move(reg));
                }
            });
        if (report.torn_tail)
            ++recovery_.torn_segments;
    }

    // Drop records whose TTL had already run out when they were
    // written; everything else becomes probe-visible cold state once
    // attach() anchors the remaining TTLs to the service clock.
    for (auto it = records_.begin(); it != records_.end();) {
        if (it->second.remaining_ttl_us == 0) {
            it = records_.erase(it);
        } else {
            it->second.resident = false;
            addToSlots(it->first, it->second);
            ++it;
        }
    }

    // Garbage = every framed byte not owned by a live record
    // (superseded frames, tombstones, registration records — the
    // sidecar preserves registrations across compaction).
    std::map<uint64_t, size_t> live_bytes;
    for (const auto &[hash, meta] : records_)
        live_bytes[meta.gen] += meta.frame_bytes;
    for (const auto &[gen, seg] : segments_) {
        size_t live = 0;
        if (auto it = live_bytes.find(gen); it != live_bytes.end())
            live = it->second;
        garbage_[gen] = seg->tail() > live ? seg->tail() - live : 0;
    }

    recovery_.records = records_.size();
    recovery_.registrations = registrations_.size();
    POTLUCK_INFORM("store: recovered "
                   << recovery_.records << " records ("
                   << recovery_.from_sidecar << " via sidecar, "
                   << recovery_.from_scan << " from log scan), "
                   << recovery_.registrations << " registrations, "
                   << segments_.size() << " segments"
                   << (recovery_.torn_segments ? ", torn tails salvaged"
                                               : ""));
}

void
TieredStore::attach(PotluckService &service)
{
    service_ = &service;
    recorder_ = service.recorder();
    obs_ = std::make_unique<Metrics>(service.metrics());
    obs_->recovered_records->inc(recovery_.records);
    obs_->recovered_from_scan->inc(recovery_.from_scan);
    obs_->torn_segments->inc(recovery_.torn_segments);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        const uint64_t now = service.nowUs();
        for (auto &[hash, meta] : records_) {
            meta.expiry_us = now + meta.remaining_ttl_us;
            meta.remaining_ttl_us = 0;
        }
        refreshGauges();
    }

    // Rebuild the service's (function, key type) slots from recovered
    // registrations, then mirror any slots the service already has —
    // both before the store is installed, so neither direction loops
    // back through noteRegistration() -> registerKeyType().
    for (const SidecarRegistration &reg : registrations_) {
        try {
            service.registerKeyType(reg.function, reg.config);
        } catch (const FatalError &e) {
            POTLUCK_WARN("store: cannot replay registration "
                         << reg.function << "/" << reg.config.name << ": "
                         << e.what());
        }
    }
    service.forEachKeyType(
        [this](const std::string &function, const KeyTypeConfig &cfg) {
            noteRegistration(function, cfg);
        });

    service.setColdTier(this);
    if (config_.maintenance_interval_ms > 0)
        startThread();
}

void
TieredStore::close()
{
    closeImpl(false);
}

void
TieredStore::closeDirty()
{
    closeImpl(true);
}

void
TieredStore::closeImpl(bool dirty)
{
    stopThread();
    if (!dirty && service_) {
        // What a clean shutdown owes the next start: a fresh record of
        // every entry still in RAM, carrying its remaining TTL and hit
        // count as of now, and a tombstone for one that expired since
        // its last append. The store mutex is taken per entry, under
        // the entry's domain lock (a lock edge DESIGN.md §12 names).
        const uint64_t now = service_->nowUs();
        service_->forEachEntry([&](const CacheEntry &entry) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return;
            const uint64_t hash = contentIdentity(entry);
            if (entry.expiry_us <= now)
                dropRecord(hash, "expired");
            else
                writeEntryRecord(entry, hash, /*resident=*/true, now);
        });
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_)
            return;
        if (!dirty) {
            for (auto &[gen, seg] : segments_)
                seg->sync();
            SidecarImage image = buildImage();
            try {
                saveSidecar(image, sidecarPath(config_.dir));
            } catch (const FatalError &e) {
                POTLUCK_WARN("store: sidecar rewrite failed on close: "
                             << e.what());
            }
        }
        closed_ = true;
        segments_.clear(); // unmap (page cache keeps the bytes)
        if (lock_fd_ >= 0) {
            ::close(lock_fd_);
            lock_fd_ = -1;
            // A dirty close simulates SIGKILL, which leaves the
            // pidfile behind; the same-pid reclaim handles reopen.
            if (!dirty)
                ::unlink(lockPath(config_.dir).c_str());
            markDirClosed(config_.dir);
        }
    }
    if (service_) {
        service_->setColdTier(nullptr);
        service_ = nullptr;
    }
}

void
TieredStore::startThread()
{
    stop_ = false;
    maintenance_ = std::thread([this] { maintenanceLoop(); });
}

void
TieredStore::stopThread()
{
    {
        std::lock_guard<std::mutex> lock(maintenance_mutex_);
        stop_ = true;
    }
    maintenance_cv_.notify_all();
    if (maintenance_.joinable())
        maintenance_.join();
}

void
TieredStore::maintenanceLoop()
{
    const auto interval =
        std::chrono::milliseconds(config_.maintenance_interval_ms);
    while (true) {
        {
            std::unique_lock<std::mutex> lock(maintenance_mutex_);
            maintenance_cv_.wait_for(lock, interval,
                                     [this] { return stop_; });
            if (stop_)
                return;
        }
        {
            // A failing disk gets quiet time, not a retry storm: skip
            // the whole pass while the jittered backoff deadline runs.
            std::lock_guard<std::mutex> lock(mutex_);
            if (inBackoff())
                continue;
        }
        sweepExpiredCold();
        enforceColdCapacity();
        compactOnce();
        scrubStep();
        bool flush;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            flush = mutations_since_flush_ >= config_.sidecar_rewrite_every;
        }
        if (flush)
            flushIndex();
    }
}

/// @name Record encoding.
/// @{

std::string
TieredStore::encodeEntry(const CacheEntry &entry, uint64_t key_hash,
                         uint64_t remaining_ttl_us) const
{
    std::string payload;
    putU8(payload, kRecEntry);
    putU64(payload, key_hash);
    putString(payload, entry.function);
    putString(payload, entry.app);
    putF64(payload, entry.compute_overhead_us);
    putU64(payload,
           entry.access_frequency.load(std::memory_order_relaxed));
    putU64(payload, remaining_ttl_us);
    putU64(payload, entry.keys.size());
    for (const auto &[type, key] : entry.keys) {
        putString(payload, type);
        putU64(payload, key.size());
        payload.append(reinterpret_cast<const char *>(key.values().data()),
                       key.sizeBytes());
    }
    const size_t value_len = valueSize(entry.value);
    putU64(payload, value_len);
    if (value_len > 0) {
        payload.append(reinterpret_cast<const char *>(entry.value->data()),
                       value_len);
    }
    return payload;
}

bool
TieredStore::decodeEntry(const uint8_t *payload, size_t n, RecordMeta &meta,
                         uint64_t &key_hash) const
{
    Reader in{payload, n};
    uint8_t type = 0;
    if (!in.u8(type) || type != kRecEntry)
        return false;
    uint64_t nkeys = 0;
    if (!in.u64(key_hash) || !in.str(meta.function) || !in.str(meta.app) ||
        !in.f64(meta.overhead_us) || !in.u64(meta.access_frequency) ||
        !in.u64(meta.remaining_ttl_us) || !in.u64(nkeys) || nkeys > 64) {
        return false;
    }
    for (uint64_t i = 0; i < nkeys; ++i) {
        std::string type_name;
        uint64_t dim = 0;
        if (!in.str(type_name) || !in.u64(dim) || dim > (1ull << 24) ||
            in.pos + dim * sizeof(float) > in.n) {
            return false;
        }
        std::vector<float> values(static_cast<size_t>(dim));
        std::memcpy(values.data(), payload + in.pos,
                    static_cast<size_t>(dim) * sizeof(float));
        in.pos += static_cast<size_t>(dim) * sizeof(float);
        meta.keys.emplace(std::move(type_name),
                          FeatureVector(std::move(values)));
    }
    uint64_t value_len = 0;
    if (!in.u64(value_len) || in.pos + value_len != in.n)
        return false;
    meta.value_off = in.pos;
    meta.value_len = static_cast<size_t>(value_len);
    meta.frame_bytes = n + sizeof(uint64_t) + sizeof(uint32_t);
    return true;
}
/// @}

/// @name Log appends (mutex_ held).
/// @{

TieredStore::AppendResult
TieredStore::appendFrame(const std::string &payload, uint64_t &gen,
                         uint64_t &offset)
{
    SegmentFile *active = segments_[active_gen_].get();
    if (!active->fits(payload.size())) {
        if (payload.size() + sizeof(uint64_t) + sizeof(uint32_t) >
            config_.segment_bytes) {
            return AppendResult::Oversize; // can never fit a segment
        }
        if (!rotateSegment())
            return AppendResult::Faulted; // full disk: stay degraded
        active = segments_[active_gen_].get();
    }
    size_t off = 0;
    if (!active->append(payload.data(), payload.size(), off))
        return AppendResult::Faulted;
    offset = off;
    gen = active_gen_;
    return AppendResult::Ok;
}

bool
TieredStore::rotateSegment()
{
    segments_[active_gen_]->sync();
    std::string error;
    auto next = SegmentFile::tryOpen(segmentPath(config_.dir,
                                                 active_gen_ + 1),
                                     active_gen_ + 1,
                                     config_.segment_bytes, error);
    if (!next) {
        POTLUCK_WARN("store: cannot rotate segment: " << error);
        return false;
    }
    ++active_gen_;
    segments_[active_gen_] = std::move(next);
    if (obs_)
        obs_->segments_created->inc();
    return true;
}

void
TieredStore::writeEntryRecord(const CacheEntry &entry, uint64_t key_hash,
                              bool resident, uint64_t now)
{
    const uint64_t remaining =
        entry.expiry_us > now ? entry.expiry_us - now : 0;
    if (remaining == 0)
        return; // already expired; nothing worth persisting
    const std::string payload = encodeEntry(entry, key_hash, remaining);
    uint64_t gen = 0, offset = 0;
    switch (appendFrame(payload, gen, offset)) {
    case AppendResult::Ok:
        break;
    case AppendResult::Oversize:
        if (obs_)
            obs_->oversize_drops->inc();
        return; // keep any previous record of this identity
    case AppendResult::Faulted:
        // The put already succeeded in RAM; losing only durability is
        // the graceful degradation the daemon promises under EIO or a
        // full disk.
        noteWriteFault("entry append");
        return;
    }
    backoff_level_ = 0; // the disk is taking writes again
    auto it = records_.find(key_hash);
    if (it != records_.end()) {
        markGarbage(it->second);
        if (!it->second.resident && !it->second.quarantined)
            removeFromSlots(key_hash, it->second);
        if (it->second.quarantined) {
            // A clean record of this identity just landed (anti-
            // entropy repair or an ordinary re-put): the quarantine is
            // healed.
            quarantine_.erase(key_hash);
            if (obs_)
                obs_->scrub_repaired->inc();
            obs::recordDecision(recorder_, obs::DecisionKind::Repair,
                                "repair", it->second.function,
                                static_cast<double>(valueSize(entry.value)),
                                0, 0, key_hash);
        }
        if (obs_)
            obs_->replaced->inc();
        records_.erase(it);
    }
    RecordMeta meta;
    meta.gen = gen;
    meta.offset = offset;
    meta.frame_bytes =
        payload.size() + sizeof(uint64_t) + sizeof(uint32_t);
    meta.value_len = valueSize(entry.value);
    meta.value_off = payload.size() - meta.value_len;
    meta.resident = resident;
    meta.function = entry.function;
    meta.app = entry.app;
    meta.overhead_us = entry.compute_overhead_us;
    meta.access_frequency =
        entry.access_frequency.load(std::memory_order_relaxed);
    meta.expiry_us = entry.expiry_us;
    meta.keys = entry.keys;
    auto [pos, inserted] = records_.emplace(key_hash, std::move(meta));
    (void)inserted;
    if (!resident)
        addToSlots(key_hash, pos->second);
    noteMutation();
}

void
TieredStore::dropRecord(uint64_t key_hash, const char *why)
{
    auto it = records_.find(key_hash);
    if (it == records_.end())
        return;
    markGarbage(it->second);
    if (!it->second.resident && !it->second.quarantined)
        removeFromSlots(key_hash, it->second);
    records_.erase(it);
    // Dropping a quarantined record abandons its repair: the entry is
    // gone (expired, evicted, compacted away), so there is nothing
    // left worth re-fetching.
    if (quarantine_.erase(key_hash) > 0)
        refreshGauges();
    uint64_t gen = 0, offset = 0;
    const std::string payload = encodeTombstone(key_hash);
    switch (appendFrame(payload, gen, offset)) {
    case AppendResult::Ok:
        // The tombstone frame is garbage the moment it lands; it only
        // exists to stop the record resurrecting on replay.
        garbage_[gen] +=
            payload.size() + sizeof(uint64_t) + sizeof(uint32_t);
        break;
    case AppendResult::Faulted:
        noteWriteFault("tombstone append");
        break;
    case AppendResult::Oversize:
        break; // cannot happen (tombstones are tiny)
    }
    if (obs_)
        obs_->tombstones->inc();
    (void)why;
    noteMutation();
}

void
TieredStore::markGarbage(const RecordMeta &meta)
{
    garbage_[meta.gen] += meta.frame_bytes;
}

void
TieredStore::addToSlots(uint64_t key_hash, const RecordMeta &meta)
{
    for (const auto &[type, key] : meta.keys)
        slots_[{meta.function, type}][keySignature(key)].insert(key_hash);
    cold_bytes_ += meta.frame_bytes;
    ++cold_count_;
}

void
TieredStore::removeFromSlots(uint64_t key_hash, const RecordMeta &meta)
{
    for (const auto &[type, key] : meta.keys) {
        auto it = slots_.find({meta.function, type});
        if (it == slots_.end())
            continue;
        auto bucket = it->second.find(keySignature(key));
        if (bucket == it->second.end())
            continue;
        bucket->second.erase(key_hash);
        if (bucket->second.empty())
            it->second.erase(bucket);
        if (it->second.empty())
            slots_.erase(it);
    }
    cold_bytes_ -= std::min(cold_bytes_, meta.frame_bytes);
    cold_count_ -= std::min<size_t>(cold_count_, 1);
}

void
TieredStore::noteMutation()
{
    ++mutations_since_flush_;
    refreshGauges();
}

void
TieredStore::refreshGauges()
{
    // Runs on EVERY log mutation: everything here must be O(#segments)
    // — cold_count_/cold_bytes_ are maintained incrementally by the
    // slot transitions so there is no per-record walk on the hot path.
    if (!obs_)
        return;
    size_t garbage = 0;
    for (const auto &[gen, bytes] : garbage_)
        garbage += bytes;
    size_t disk = 0;
    for (const auto &[gen, seg] : segments_)
        disk += seg->capacity();
    obs_->cold_entries->set(static_cast<int64_t>(cold_count_));
    obs_->cold_bytes->set(static_cast<int64_t>(cold_bytes_));
    obs_->segments->set(static_cast<int64_t>(segments_.size()));
    obs_->garbage_bytes->set(static_cast<int64_t>(garbage));
    obs_->disk_bytes->set(static_cast<int64_t>(disk));
    obs_->scrub_quarantined->set(static_cast<int64_t>(quarantine_.size()));
}
/// @}

/// @name ColdTier hooks.
/// @{

void
TieredStore::admit(const CacheEntry &entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return;
    writeEntryRecord(entry, contentIdentity(entry), /*resident=*/true,
                     service_ ? service_->nowUs() : 0);
    if (obs_)
        obs_->admits->inc();
}

void
TieredStore::demote(CacheEntry &&entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return;
    const uint64_t hash = contentIdentity(entry);
    const uint64_t now = service_ ? service_->nowUs() : 0;
    if (entry.expiry_us <= now) {
        dropRecord(hash, "expired");
        return;
    }
    const uint64_t freq =
        entry.access_frequency.load(std::memory_order_relaxed);
    auto it = records_.find(hash);
    if (it != records_.end() && it->second.access_frequency == freq) {
        // The write-through record is current: demotion is just a
        // residency flip — no bytes move.
        RecordMeta &meta = it->second;
        meta.resident = false;
        meta.expiry_us = entry.expiry_us;
        meta.keys = std::move(entry.keys); // restore after a promote
        addToSlots(hash, meta);
    } else {
        // Hits since the last record (or no record, e.g. it was
        // dropped as oversize garbage): refresh so importance survives
        // the tier crossing.
        writeEntryRecord(entry, hash, /*resident=*/false, now);
    }
    if (obs_)
        obs_->demotions->inc();
    obs::recordDecision(recorder_, obs::DecisionKind::Demotion, "demote",
                        entry.function, entry.compute_overhead_us,
                        static_cast<double>(freq),
                        static_cast<double>(entry.sizeBytes()), hash);
    if (config_.cold_capacity_bytes > 0 &&
        cold_bytes_ > config_.cold_capacity_bytes) {
        enforceColdCapacityLocked();
    }
}

bool
TieredStore::promote(const std::string &function,
                     const std::string &key_type, const FeatureVector &key,
                     double threshold, ColdPromotion &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return false;
    if (obs_)
        obs_->probes->inc();
    const uint64_t now = service_ ? service_->nowUs() : 0;
    Metric metric = Metric::L2;
    bool exact = false; // a Hash slot: bitwise-equal keys only
    if (auto c = slot_configs_.find({function, key_type});
        c != slot_configs_.end()) {
        metric = c->second.metric;
        exact = c->second.index_kind == IndexKind::Hash;
    }
    while (true) {
        auto slot = slots_.find({function, key_type});
        if (slot == slots_.end() || slot->second.empty())
            break;
        uint64_t best_hash = 0;
        double best_dist = -1.0;
        std::vector<uint64_t> expired;
        auto consider = [&](uint64_t hash) {
            const RecordMeta &meta = records_.at(hash);
            if (meta.expiry_us <= now) {
                expired.push_back(hash);
                return;
            }
            auto k = meta.keys.find(key_type);
            if (k == meta.keys.end() || k->second.size() != key.size())
                return;
            if (exact && !bitwiseEqual(key, k->second))
                return;
            const double d = exact ? 0.0 : distance(key, k->second, metric);
            if (d <= threshold && (best_dist < 0 || d < best_dist)) {
                best_dist = d;
                best_hash = hash;
            }
        };
        // Exact-signature fast path first: the dominant cold probe is a
        // key the store holds byte-for-byte (warm restart, repeated
        // request) and its distance is 0, so a live bucket hit cannot
        // be beaten by the scan.
        const uint64_t sig = keySignature(key);
        if (auto bucket = slot->second.find(sig);
            bucket != slot->second.end()) {
            for (uint64_t hash : bucket->second)
                consider(hash);
        }
        if (best_dist < 0 && !exact) {
            // Only an approximate match pays the full slot scan; a Hash
            // slot serves none, in RAM or here.
            for (const auto &[bucket_sig, hashes] : slot->second) {
                if (bucket_sig == sig)
                    continue;
                for (uint64_t hash : hashes)
                    consider(hash);
            }
        }
        for (uint64_t hash : expired) {
            dropRecord(hash, "expired");
            if (obs_)
                obs_->cold_expired->inc();
        }
        if (best_dist < 0)
            break;

        RecordMeta &meta = records_.at(best_hash);
        SegmentFile *seg = segments_.at(meta.gen).get();
        if (!seg->verifyAt(meta.offset)) {
            // Lazy fault-in found a record the crash tore or the disk
            // rotted: quarantine it (queueing an anti-entropy repair)
            // and rescan — never serve a bad value.
            if (obs_)
                obs_->value_crc_failures->inc();
            quarantineRecord(best_hash, meta);
            continue;
        }
        size_t n = 0;
        const uint8_t *payload = seg->payloadAt(meta.offset, n);
        POTLUCK_ASSERT(payload && meta.value_off + meta.value_len <= n,
                       "cold record shrank under its meta");
        std::vector<uint8_t> bytes(payload + meta.value_off,
                                   payload + meta.value_off +
                                       meta.value_len);
        out.entry = CacheEntry{};
        out.entry.function = meta.function;
        out.entry.app = meta.app;
        out.entry.value =
            meta.value_len > 0 ? makeValue(std::move(bytes)) : Value{};
        out.entry.compute_overhead_us = meta.overhead_us;
        out.entry.access_frequency.store(meta.access_frequency,
                                         std::memory_order_relaxed);
        out.entry.expiry_us = meta.expiry_us;
        out.dist = best_dist;
        removeFromSlots(best_hash, meta);
        out.entry.keys = std::move(meta.keys);
        meta.resident = true;
        if (obs_)
            obs_->promotions->inc();
        obs::recordDecision(recorder_, obs::DecisionKind::Promotion,
                            "promote", meta.function, best_dist, threshold,
                            static_cast<double>(meta.value_len), best_hash);
        refreshGauges();
        return true;
    }
    if (obs_)
        obs_->probe_misses->inc();
    return false;
}

void
TieredStore::forget(const CacheEntry &entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return;
    dropRecord(contentIdentity(entry), "forgotten");
}

void
TieredStore::noteRegistration(const std::string &function,
                              const KeyTypeConfig &cfg)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return;
    SlotKey slot{function, cfg.name};
    if (!slot_configs_.emplace(slot, cfg).second)
        return;
    SidecarRegistration reg;
    reg.function = function;
    reg.config = cfg;
    uint64_t gen = 0, offset = 0;
    if (appendFrame(encodeRegistration(reg), gen, offset) ==
        AppendResult::Faulted) {
        // Keep the registration in RAM; a later sidecar rewrite (or
        // the compaction fallback) persists it once the disk recovers.
        noteWriteFault("registration append");
    }
    registrations_.push_back(std::move(reg));
    noteMutation();
}
/// @}

/// @name Maintenance.
/// @{

size_t
TieredStore::sweepExpiredCold()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || !service_)
        return 0;
    const uint64_t now = service_->nowUs();
    std::vector<uint64_t> expired;
    for (const auto &[hash, meta] : records_) {
        if (!meta.resident && meta.expiry_us <= now)
            expired.push_back(hash);
    }
    for (uint64_t hash : expired)
        dropRecord(hash, "expired");
    if (!expired.empty()) {
        if (obs_)
            obs_->cold_expired->inc(expired.size());
        obs::recordDecision(recorder_, obs::DecisionKind::ExpirySweep,
                            "cold-sweep", "cold", 0, 0, 0, expired.size());
    }
    return expired.size();
}

size_t
TieredStore::enforceColdCapacity()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return 0;
    return enforceColdCapacityLocked();
}

size_t
TieredStore::enforceColdCapacityLocked()
{
    if (config_.cold_capacity_bytes == 0 ||
        cold_bytes_ <= config_.cold_capacity_bytes) {
        return 0;
    }
    // Same ranking the hot tier evicts by (Section 3.3), per byte of
    // log footprint: cheapest-to-recompute, least-hit, largest go
    // first.
    std::vector<std::pair<double, uint64_t>> ranked;
    for (const auto &[hash, meta] : records_) {
        if (meta.resident || meta.quarantined)
            continue;
        const double importance =
            meta.overhead_us * static_cast<double>(meta.access_frequency) /
            static_cast<double>(std::max<size_t>(meta.frame_bytes, 1));
        ranked.emplace_back(importance, hash);
    }
    std::sort(ranked.begin(), ranked.end());
    size_t dropped = 0;
    for (const auto &[importance, hash] : ranked) {
        if (cold_bytes_ <= config_.cold_capacity_bytes)
            break;
        dropRecord(hash, "cold-capacity");
        ++dropped;
    }
    if (dropped && obs_)
        obs_->cold_evictions->inc(dropped);
    return dropped;
}

long
TieredStore::compactOnce()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_)
        return -1;
    uint64_t victim_gen = 0;
    double victim_ratio = 0.0;
    for (const auto &[gen, seg] : segments_) {
        if (gen == active_gen_)
            continue; // never compact the segment being appended to
        const size_t tail = seg->tail();
        size_t garbage = 0;
        if (auto it = garbage_.find(gen); it != garbage_.end())
            garbage = it->second;
        const double ratio =
            tail == 0 ? 1.0
                      : static_cast<double>(garbage) /
                            static_cast<double>(tail);
        if (ratio >= config_.compact_garbage_ratio &&
            ratio > victim_ratio) {
            victim_ratio = ratio;
            victim_gen = gen;
        }
    }
    if (victim_gen == 0)
        return -1;

    // Copy the victim's live records forward into the active segment.
    std::vector<uint64_t> live;
    for (const auto &[hash, meta] : records_) {
        if (meta.gen == victim_gen)
            live.push_back(hash);
    }
    SegmentFile *victim = segments_.at(victim_gen).get();
    long moved = 0;
    bool aborted = false;
    for (uint64_t hash : live) {
        RecordMeta &meta = records_.at(hash);
        if (meta.quarantined) {
            // Corrupt frames are never carried forward: drop the
            // record (tombstoned so it cannot resurrect) and abandon
            // its pending repair — the bytes it would heal are gone.
            dropRecord(hash, "compact-quarantined");
            continue;
        }
        size_t n = 0;
        const uint8_t *payload = victim->payloadAt(meta.offset, n);
        if (!payload) {
            dropRecord(hash, "compact-unreadable");
            continue;
        }
        const std::string copy(reinterpret_cast<const char *>(payload), n);
        uint64_t gen = 0, offset = 0;
        switch (appendFrame(copy, gen, offset)) {
        case AppendResult::Ok:
            meta.gen = gen;
            meta.offset = offset;
            ++moved;
            continue;
        case AppendResult::Oversize:
            // Only possible when segment_bytes shrank across a restart
            // below this record's size.
            if (obs_)
                obs_->oversize_drops->inc();
            dropRecord(hash, "compact-oversize");
            continue;
        case AppendResult::Faulted:
            noteWriteFault("compaction copy");
            aborted = true;
            break;
        }
        break;
    }
    if (aborted) {
        // The victim still holds the only copy of the un-moved
        // records; leave it in place and retry a later round.
        refreshGauges();
        return moved;
    }

    // Make the copies durable and re-addressed before the old frames
    // disappear; a crash in between leaves duplicates that replay
    // resolves by generation order.
    if (!segments_.at(active_gen_)->sync()) {
        noteWriteFault("compaction sync");
        refreshGauges();
        return moved;
    }
    if (!flushIndexLocked()) {
        // No sidecar made it to disk, so the victim's frames may hold
        // the only durable Registration records — re-append them so a
        // scan-only recovery still rebuilds the slots.
        for (const SidecarRegistration &reg : registrations_) {
            uint64_t g = 0, off = 0;
            appendFrame(encodeRegistration(reg), g, off);
        }
        if (!segments_.at(active_gen_)->sync()) {
            noteWriteFault("compaction sync");
            refreshGauges();
            return moved;
        }
    }
    victim->destroy();
    segments_.erase(victim_gen);
    garbage_.erase(victim_gen);
    if (obs_) {
        obs_->compactions->inc();
        obs_->compacted_records->inc(static_cast<uint64_t>(moved));
        obs_->segments_deleted->inc();
    }
    obs::recordDecision(recorder_, obs::DecisionKind::Compaction, "compact",
                        config_.dir, victim_ratio,
                        static_cast<double>(moved),
                        static_cast<double>(segments_.size()), victim_gen);
    refreshGauges();
    return moved;
}

void
TieredStore::flushIndex()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return;
    flushIndexLocked();
}

bool
TieredStore::flushIndexLocked()
{
    // Sync before naming: the sidecar must never reference bytes less
    // durable than itself.
    bool synced = true;
    for (auto &[gen, seg] : segments_)
        synced = seg->sync() && synced;
    if (!synced) {
        noteWriteFault("segment sync");
        return false;
    }
    SidecarImage image = buildImage();
    try {
        saveSidecar(image, sidecarPath(config_.dir));
        mutations_since_flush_ = 0;
        if (obs_)
            obs_->index_rewrites->inc();
        return true;
    } catch (const FatalError &e) {
        POTLUCK_WARN("store: sidecar rewrite failed: " << e.what());
        noteWriteFault("sidecar rewrite");
        return false;
    }
}

SidecarImage
TieredStore::buildImage() const
{
    SidecarImage image;
    image.registrations = registrations_;
    for (const auto &[gen, seg] : segments_)
        image.segments.push_back({gen, seg->tail()});
    image.entries.reserve(records_.size());
    for (const auto &[hash, meta] : records_) {
        if (meta.quarantined)
            continue; // never name a corrupt frame in the index
        image.entries.push_back({hash, meta.gen, meta.offset});
    }
    return image;
}
/// @}

/// @name Scrub + quarantine + degraded-write backoff.
/// @{

size_t
TieredStore::scrubStep()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || config_.scrub_rate_bytes_per_sec == 0)
        return 0;
    const double rate =
        static_cast<double>(config_.scrub_rate_bytes_per_sec);
    const uint64_t now = steadyMs();
    if (scrub_refill_ms_ == 0) {
        scrub_tokens_ = rate; // full first-second allowance at start
    } else {
        scrub_tokens_ +=
            rate * static_cast<double>(now - scrub_refill_ms_) / 1000.0;
        scrub_tokens_ = std::min(scrub_tokens_, rate); // 1 s burst cap
    }
    scrub_refill_ms_ = now;
    if (scrub_tokens_ <= 0.0)
        return 0;
    return scrubLocked(/*respect_budget=*/true);
}

size_t
TieredStore::scrubNow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return 0;
    // Restart the cursor so the on-demand pass covers every cold
    // frame, wherever the background scrub happened to be.
    scrub_batch_.clear();
    scrub_pos_ = 0;
    return scrubLocked(/*respect_budget=*/false);
}

size_t
TieredStore::scrubLocked(bool respect_budget)
{
    size_t verified = 0;
    while (!respect_budget || scrub_tokens_ > 0.0) {
        if (scrub_pos_ >= scrub_batch_.size()) {
            const bool finished_pass = !scrub_batch_.empty();
            scrub_batch_.clear();
            scrub_pos_ = 0;
            if (finished_pass) {
                if (obs_)
                    obs_->scrub_passes->inc();
                break;
            }
            // Snapshot the cold population; records that move or die
            // before their turn are skipped below.
            scrub_batch_.reserve(records_.size());
            for (const auto &[hash, meta] : records_) {
                if (!meta.resident && !meta.quarantined)
                    scrub_batch_.push_back(hash);
            }
            if (scrub_batch_.empty())
                break;
            continue;
        }
        const uint64_t hash = scrub_batch_[scrub_pos_++];
        auto it = records_.find(hash);
        if (it == records_.end() || it->second.resident ||
            it->second.quarantined) {
            continue;
        }
        RecordMeta &meta = it->second;
        auto seg = segments_.find(meta.gen);
        if (seg == segments_.end())
            continue;
        scrub_tokens_ -= static_cast<double>(meta.frame_bytes);
        ++verified;
        if (obs_) {
            obs_->scrub_frames->inc();
            obs_->scrub_bytes->inc(meta.frame_bytes);
        }
        if (!seg->second->verifyAt(meta.offset))
            quarantineRecord(hash, meta);
    }
    return verified;
}

void
TieredStore::quarantineRecord(uint64_t key_hash, RecordMeta &meta)
{
    if (meta.quarantined)
        return;
    if (!meta.resident)
        removeFromSlots(key_hash, meta); // probes now miss it
    meta.quarantined = true;
    ColdRepairRequest req;
    req.identity = key_hash;
    req.function = meta.function;
    req.keys = meta.keys;
    req.overhead_us = meta.overhead_us;
    req.expiry_us = meta.expiry_us;
    quarantine_[key_hash] = std::move(req);
    // Bounded dispatch queue: drop-oldest under a quarantine storm
    // (the quarantine_ map itself keeps every entry excluded).
    if (repair_queue_.size() >= 1024)
        repair_queue_.erase(repair_queue_.begin());
    repair_queue_.push_back(key_hash);
    if (obs_)
        obs_->scrub_corrupt->inc();
    obs::recordDecision(recorder_, obs::DecisionKind::ScrubCorruption,
                        "scrub-corrupt", meta.function,
                        static_cast<double>(meta.frame_bytes),
                        static_cast<double>(meta.offset), 0, key_hash);
    obs::recordDecision(recorder_, obs::DecisionKind::Quarantine,
                        "quarantine", meta.function,
                        static_cast<double>(quarantine_.size()), 0, 0,
                        key_hash);
    POTLUCK_WARN("store: quarantined corrupt record of "
                 << meta.function << " (hash " << key_hash
                 << ", gen " << meta.gen << " offset " << meta.offset
                 << "); repair queued");
    refreshGauges();
}

std::vector<ColdRepairRequest>
TieredStore::takeRepairRequests()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ColdRepairRequest> out;
    out.reserve(repair_queue_.size());
    for (uint64_t hash : repair_queue_) {
        auto it = quarantine_.find(hash);
        if (it != quarantine_.end())
            out.push_back(it->second);
    }
    repair_queue_.clear();
    return out;
}

void
TieredStore::noteWriteFault(const char *what)
{
    if (obs_)
        obs_->write_degraded->inc();
    backoff_level_ = std::min<uint32_t>(backoff_level_ + 1, 6);
    const uint64_t base =
        std::max<uint64_t>(config_.maintenance_interval_ms, 100);
    const uint64_t delay =
        (base << backoff_level_) +
        static_cast<uint64_t>(
            backoff_rng_.uniformInt(0, static_cast<int64_t>(base)));
    backoff_until_ms_ = steadyMs() + delay;
    POTLUCK_WARN("store: degraded write ("
                 << what << "); maintenance backing off " << delay
                 << " ms");
}

bool
TieredStore::inBackoff() const
{
    return steadyMs() < backoff_until_ms_;
}
/// @}

/// @name Introspection.
/// @{

size_t
TieredStore::coldEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cold_count_;
}

size_t
TieredStore::coldBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cold_bytes_;
}

size_t
TieredStore::trackedRecords() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

size_t
TieredStore::numSegments() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return segments_.size();
}

size_t
TieredStore::quarantinedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_.size();
}
/// @}

} // namespace potluck::store
