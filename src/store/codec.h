/**
 * @file
 * The tiered store's one binary codec (DESIGN.md §12): scalar appends
 * onto a byte string, a bounds-checked Reader over a byte range, and
 * the on-disk layout of a (function, KeyTypeConfig) registration.
 * Segment records and the sidecar both encode through these, so each
 * layout is spelled out once. Scalars are written in host byte order,
 * as every store file always has been.
 */
#ifndef POTLUCK_STORE_CODEC_H
#define POTLUCK_STORE_CODEC_H

#include <cstdint>
#include <cstring>
#include <string>

#include "core/function_table.h"

namespace potluck::store {

/// @name Append-to-string binary encoding.
/// @{
inline void
putU8(std::string &out, uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

inline void
putU32(std::string &out, uint32_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

inline void
putU64(std::string &out, uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

inline void
putF64(std::string &out, double v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

inline void
putString(std::string &out, const std::string &s)
{
    putU64(out, s.size());
    out.append(s);
}
/// @}

/** Bounds-checked cursor over an encoded byte range. */
struct Reader
{
    const uint8_t *p;
    size_t n;
    size_t pos = 0;

    bool
    raw(void *dst, size_t k)
    {
        if (pos + k > n)
            return false;
        std::memcpy(dst, p + pos, k);
        pos += k;
        return true;
    }

    bool u8(uint8_t &v) { return raw(&v, sizeof(v)); }
    bool u32(uint32_t &v) { return raw(&v, sizeof(v)); }
    bool u64(uint64_t &v) { return raw(&v, sizeof(v)); }
    bool f64(double &v) { return raw(&v, sizeof(v)); }

    bool
    str(std::string &s, size_t max = 1ull << 20)
    {
        uint64_t k = 0;
        if (!u64(k) || k > max || pos + k > n)
            return false;
        s.assign(reinterpret_cast<const char *>(p + pos),
                 static_cast<size_t>(k));
        pos += static_cast<size_t>(k);
        return true;
    }
};

/** Append a registration: function, key type name, metric, index
 * kind and the LSH parameters. Code-valued settings (extractors,
 * equivalence predicates) are not persisted. */
void putRegistration(std::string &out, const std::string &function,
                     const KeyTypeConfig &cfg);

/** Read what putRegistration() wrote; false on a short or oversized
 * field. */
bool getRegistration(Reader &in, std::string &function, KeyTypeConfig &cfg);

} // namespace potluck::store

#endif // POTLUCK_STORE_CODEC_H
