#include "spans.h"

#include <fstream>

namespace perfbench {

const char *
spanNameString(SpanName name)
{
    switch (name) {
      case SpanName::None:
        return "-";
      case SpanName::ClientLookup:
        return "client.lookup";
      case SpanName::ClientPut:
        return "client.put";
      case SpanName::ServiceLookup:
        return "service.lookup";
      case SpanName::ServicePut:
        return "service.put";
      case SpanName::StoreAdmit:
        return "store.admit";
      case SpanName::StoreDemote:
        return "store.demote";
      case SpanName::StorePromoteHit:
        return "store.promote_hit";
      case SpanName::StorePromoteMiss:
        return "store.promote_miss";
      case SpanName::IndexNearest:
        return "index.nearest";
    }
    return "?";
}

bool
writeSpansTsv(const std::string &path,
              const std::vector<const SpanList *> &lists)
{
    std::ofstream out(path, std::ios::trunc);
    out << "op\tname\tparent\tstart_ns\tend_ns\n";
    for (const SpanList *list : lists) {
        for (const Span &s : *list) {
            out << s.op << '\t' << spanNameString(s.name) << '\t'
                << spanNameString(s.parent) << '\t' << s.start_ns << '\t'
                << s.end_ns << '\n';
        }
    }
    return out.good();
}

} // namespace perfbench
