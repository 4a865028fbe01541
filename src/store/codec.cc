#include "store/codec.h"

namespace potluck::store {

void
putRegistration(std::string &out, const std::string &function,
                const KeyTypeConfig &cfg)
{
    putString(out, function);
    putString(out, cfg.name);
    putU32(out, static_cast<uint32_t>(cfg.metric));
    putU32(out, static_cast<uint32_t>(cfg.index_kind));
    putU32(out, static_cast<uint32_t>(cfg.lsh_tables));
    putU32(out, static_cast<uint32_t>(cfg.lsh_projections));
    putF64(out, cfg.lsh_bucket_width);
}

bool
getRegistration(Reader &in, std::string &function, KeyTypeConfig &cfg)
{
    uint32_t metric = 0, kind = 0, tables = 0, projections = 0;
    if (!in.str(function) || !in.str(cfg.name) || !in.u32(metric) ||
        !in.u32(kind) || !in.u32(tables) || !in.u32(projections) ||
        !in.f64(cfg.lsh_bucket_width)) {
        return false;
    }
    cfg.metric = static_cast<Metric>(metric);
    cfg.index_kind = static_cast<IndexKind>(kind);
    cfg.lsh_tables = static_cast<int>(tables);
    cfg.lsh_projections = static_cast<int>(projections);
    return true;
}

} // namespace potluck::store
