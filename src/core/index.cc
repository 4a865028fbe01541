#include "core/index.h"

#include "core/flat_index.h"
#include "core/hash_index.h"
#include "core/lsh_index.h"
#include "core/tree_index.h"
#include "util/logging.h"

namespace potluck {

const char *
indexKindName(IndexKind kind)
{
    switch (kind) {
      case IndexKind::Linear:
        return "linear";
      case IndexKind::Hash:
        return "hash";
      case IndexKind::Tree:
        return "tree";
      case IndexKind::KdTree:
        return "kdtree";
      case IndexKind::Lsh:
        return "lsh";
    }
    return "unknown";
}

std::unique_ptr<Index>
makeIndex(IndexKind kind, Metric metric, uint64_t seed)
{
    switch (kind) {
      case IndexKind::Linear:
      case IndexKind::KdTree:
        return std::make_unique<FlatIndex>(kind, metric);
      case IndexKind::Hash:
        return std::make_unique<HashIndex>(metric);
      case IndexKind::Tree:
        return std::make_unique<TreeIndex>(metric);
      case IndexKind::Lsh:
        return std::make_unique<LshIndex>(metric, seed);
    }
    POTLUCK_PANIC("unknown index kind");
}

} // namespace potluck
