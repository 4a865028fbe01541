#ifdef POTLUCK_FAULT_INJECTION

#include "util/fs_faults.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/logging.h"
#include "util/stringutil.h"

namespace potluck {

namespace {

std::atomic<FsFaultInjector *> g_injector{nullptr};

} // namespace

FsFaultInjector::WriteAction
FsFaultInjector::onAppend()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (rng_.bernoulli(cfg_.write_error)) {
        ++counts_.write_errors;
        return WriteAction::Eio;
    }
    if (rng_.bernoulli(cfg_.write_enospc)) {
        ++counts_.enospc;
        return WriteAction::Enospc;
    }
    if (rng_.bernoulli(cfg_.short_write)) {
        ++counts_.short_writes;
        return WriteAction::Torn;
    }
    return WriteAction::Pass;
}

bool
FsFaultInjector::corruptPayload(size_t n, size_t &index, uint8_t &mask)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (n == 0 ||
        (cfg_.max_bit_flips != 0 && counts_.bit_flips >= cfg_.max_bit_flips))
        return false;
    if (!rng_.bernoulli(cfg_.bit_flip))
        return false;
    ++counts_.bit_flips;
    index = static_cast<size_t>(
        rng_.uniformInt(0, static_cast<int64_t>(n) - 1));
    mask = static_cast<uint8_t>(1u << rng_.uniformInt(0, 7));
    return true;
}

bool
FsFaultInjector::shouldFailSync()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!rng_.bernoulli(cfg_.sync_error))
        return false;
    ++counts_.sync_errors;
    return true;
}

bool
FsFaultInjector::shouldFailOpen()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!rng_.bernoulli(cfg_.open_error))
        return false;
    ++counts_.open_errors;
    return true;
}

bool
FsFaultInjector::shouldFailSidecar()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!rng_.bernoulli(cfg_.sidecar_error))
        return false;
    ++counts_.sidecar_errors;
    return true;
}

FsFaultInjector::Counts
FsFaultInjector::counts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
}

void
FsFaultInjector::install(FsFaultInjector *injector)
{
    g_injector.store(injector, std::memory_order_release);
}

FsFaultInjector *
FsFaultInjector::active()
{
    return g_injector.load(std::memory_order_acquire);
}

bool
FsFaultInjector::installFromEnv()
{
    const char *spec = std::getenv("POTLUCK_FS_FAULTS");
    if (!spec || !*spec)
        return false;
    Config cfg;
    for (const std::string &pair : split(spec, ',')) {
        size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            POTLUCK_FATAL("POTLUCK_FS_FAULTS: bad pair '" << pair << "'");
        std::string key = pair.substr(0, eq);
        std::string val = pair.substr(eq + 1);
        if (key == "seed")
            cfg.seed = std::stoull(val);
        else if (key == "write_error")
            cfg.write_error = std::stod(val);
        else if (key == "write_enospc")
            cfg.write_enospc = std::stod(val);
        else if (key == "short_write")
            cfg.short_write = std::stod(val);
        else if (key == "sync_error")
            cfg.sync_error = std::stod(val);
        else if (key == "bit_flip")
            cfg.bit_flip = std::stod(val);
        else if (key == "open_error")
            cfg.open_error = std::stod(val);
        else if (key == "sidecar_error")
            cfg.sidecar_error = std::stod(val);
        else if (key == "max_bit_flips")
            cfg.max_bit_flips = std::stoull(val);
        else
            POTLUCK_FATAL("POTLUCK_FS_FAULTS: unknown key '" << key << "'");
    }
    // Process-lifetime on purpose: the daemon consults the injector
    // until exit, and there is no uninstall point to free it at.
    static FsFaultInjector *env_injector = nullptr;
    if (env_injector)
        POTLUCK_FATAL("POTLUCK_FS_FAULTS installed twice");
    env_injector = new FsFaultInjector(cfg);
    install(env_injector);
    POTLUCK_WARN("fs fault injection enabled: " << spec);
    return true;
}

} // namespace potluck

#endif // POTLUCK_FAULT_INJECTION
