#include "core/function_table.h"

#include "core/lsh_index.h"
#include "util/logging.h"

namespace potluck {

KeyIndex *
FunctionDomain::find(const std::string &key_type) const
{
    auto it = slots.find(key_type);
    return it == slots.end() ? nullptr : it->second.get();
}

CacheEntry &
FunctionDomain::insert(CacheEntry entry)
{
    CacheEntry &stored = storage.add(std::move(entry));
    for (auto &[name, slot] : slots) {
        auto kit = stored.keys.find(name);
        if (kit == stored.keys.end())
            continue;
        slot->index->insert(stored.id, kit->second);
        slot->tuner.noteInsert();
    }
    return stored;
}

CacheEntry
FunctionDomain::remove(EntryId id)
{
    const CacheEntry *entry = storage.find(id);
    if (!entry)
        return {};
    unindex(*entry);
    return storage.remove(id);
}

void
FunctionDomain::unindex(const CacheEntry &entry)
{
    for (auto &[name, slot] : slots) {
        if (entry.keys.count(name))
            slot->index->remove(entry.id);
    }
}

FunctionDomain &
FunctionTable::addFunction(const std::string &function)
{
    POTLUCK_ASSERT(!function.empty(), "empty function name");
    auto &domain = functions_[function];
    if (!domain) {
        domain = std::make_unique<FunctionDomain>(function);
        order_.push_back(domain.get());
    }
    return *domain;
}

KeyIndex &
FunctionTable::ensure(const std::string &function, const KeyTypeConfig &cfg)
{
    POTLUCK_ASSERT(!cfg.name.empty(), "empty key type name");
    FunctionDomain &domain = addFunction(function);
    if (KeyIndex *slot = domain.find(cfg.name)) {
        if (slot->config.metric != cfg.metric ||
            slot->config.index_kind != cfg.index_kind) {
            POTLUCK_FATAL("key type '"
                          << cfg.name << "' re-registered for function '"
                          << function << "' with conflicting settings");
        }
        return *slot;
    }
    std::unique_ptr<Index> index;
    if (cfg.index_kind == IndexKind::Lsh) {
        index = std::make_unique<LshIndex>(
            cfg.metric, config_.seed + next_index_seed_++, cfg.lsh_tables,
            cfg.lsh_projections, cfg.lsh_bucket_width);
    } else {
        index = makeIndex(cfg.index_kind, cfg.metric,
                          config_.seed + next_index_seed_++);
    }
    auto slot = std::make_unique<KeyIndex>(cfg, std::move(index), config_);
    KeyIndex &ref = *slot;
    domain.slots.emplace(cfg.name, std::move(slot));
    return ref;
}

FunctionDomain *
FunctionTable::domain(const std::string &function) const
{
    auto it = functions_.find(function);
    return it == functions_.end() ? nullptr : it->second.get();
}

KeyIndex *
FunctionTable::find(const std::string &function,
                    const std::string &key_type) const
{
    FunctionDomain *d = domain(function);
    return d ? d->find(key_type) : nullptr;
}

std::vector<KeyIndex *>
FunctionTable::slotsFor(const std::string &function) const
{
    std::vector<KeyIndex *> out;
    if (FunctionDomain *d = domain(function)) {
        out.reserve(d->slots.size());
        for (auto &[name, slot] : d->slots)
            out.push_back(slot.get());
    }
    return out;
}

void
FunctionTable::removeEntry(const CacheEntry &entry)
{
    if (FunctionDomain *d = domain(entry.function))
        d->unindex(entry);
}

} // namespace potluck
