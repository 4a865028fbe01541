#include "store/cold_index.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "store/codec.h"
#include "util/crc32.h"
#include "util/fs_faults.h"
#include "util/logging.h"

namespace potluck::store {

namespace {

constexpr uint32_t kMagic = 0x504c5349u; // "PLSI"
constexpr uint32_t kVersion = 1;
constexpr uint64_t kMaxPayload = 1ULL << 30;

/** fsync an open path; throws on failure (the save must not lie). */
void
syncFile(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        POTLUCK_FATAL("cannot reopen " << path << " for fsync: "
                                       << std::strerror(errno));
    }
    int rc = ::fsync(fd);
    int err = errno;
    ::close(fd);
    if (rc < 0)
        POTLUCK_FATAL("fsync(" << path << ") failed: " << std::strerror(err));
}

void
syncParentDir(const std::string &path)
{
    std::string dir = std::filesystem::path(path).parent_path().string();
    if (dir.empty())
        dir = ".";
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

void
saveSidecar(const SidecarImage &image, const std::string &path)
{
#ifdef POTLUCK_FAULT_INJECTION
    if (FsFaultInjector *fi = FsFaultInjector::active()) {
        if (fi->shouldFailSidecar())
            POTLUCK_FATAL("fault injection: sidecar rewrite refused");
    }
#endif
    std::string body;
    putU64(body, image.registrations.size());
    for (const SidecarRegistration &reg : image.registrations)
        putRegistration(body, reg.function, reg.config);
    putU64(body, image.segments.size());
    for (const SidecarSegment &seg : image.segments) {
        putU64(body, seg.generation);
        putU64(body, seg.indexed_len);
    }
    putU64(body, image.entries.size());
    for (const SidecarEntry &e : image.entries) {
        putU64(body, e.key_hash);
        putU64(body, e.generation);
        putU64(body, e.offset);
    }
    std::string file;
    putU32(file, kMagic);
    putU32(file, kVersion);
    putU64(file, body.size());
    file += body;
    putU32(file, crc32(body.data(), body.size()));

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            POTLUCK_FATAL("cannot open sidecar temp file " << tmp);
        out.write(file.data(), static_cast<std::streamsize>(file.size()));
        out.flush();
        if (!out) {
            out.close();
            ::unlink(tmp.c_str());
            POTLUCK_FATAL("short write to sidecar temp " << tmp);
        }
    }
    try {
        syncFile(tmp);
    } catch (const FatalError &) {
        ::unlink(tmp.c_str());
        throw;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        POTLUCK_FATAL("rename(" << tmp << ", " << path
                                << ") failed: " << std::strerror(err));
    }
    syncParentDir(path);
}

bool
loadSidecar(SidecarImage &image, const std::string &path)
{
    image = SidecarImage{};
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string file = bytes.str();
    Reader head{reinterpret_cast<const uint8_t *>(file.data()), file.size()};
    uint32_t magic = 0, version = 0, stored = 0;
    uint64_t len = 0;
    if (!head.u32(magic) || magic != kMagic)
        return false;
    if (!head.u32(version) || version != kVersion)
        return false;
    if (!head.u64(len) || len > kMaxPayload || head.pos + len > head.n)
        return false;
    const uint8_t *payload = head.p + head.pos;
    head.pos += static_cast<size_t>(len);
    if (!head.u32(stored) ||
        crc32(payload, static_cast<size_t>(len)) != stored) {
        return false;
    }

    Reader body{payload, static_cast<size_t>(len)};
    uint64_t nregs = 0;
    if (!body.u64(nregs) || nregs > 4096)
        return false;
    for (uint64_t i = 0; i < nregs; ++i) {
        SidecarRegistration reg;
        if (!getRegistration(body, reg.function, reg.config))
            return false;
        image.registrations.push_back(std::move(reg));
    }
    uint64_t nsegs = 0;
    if (!body.u64(nsegs) || nsegs > (1ULL << 20))
        return false;
    for (uint64_t i = 0; i < nsegs; ++i) {
        SidecarSegment seg;
        if (!body.u64(seg.generation) || !body.u64(seg.indexed_len))
            return false;
        image.segments.push_back(seg);
    }
    uint64_t nentries = 0;
    if (!body.u64(nentries) || nentries > (1ULL << 32))
        return false;
    for (uint64_t i = 0; i < nentries; ++i) {
        SidecarEntry e;
        if (!body.u64(e.key_hash) || !body.u64(e.generation) ||
            !body.u64(e.offset)) {
            return false;
        }
        image.entries.push_back(e);
    }
    return true;
}

} // namespace potluck::store
