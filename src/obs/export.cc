#include "obs/export.h"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/build_info.h"

namespace potluck::obs {

namespace {

/**
 * Length of the valid UTF-8 sequence starting at s[i], or 0 when the
 * bytes there are not well-formed (overlong encodings, surrogates, and
 * out-of-range code points all count as malformed).
 */
size_t
utf8SequenceLength(const std::string &s, size_t i)
{
    unsigned char b0 = static_cast<unsigned char>(s[i]);
    size_t len;
    uint32_t cp;
    if (b0 < 0x80)
        return 1;
    if ((b0 & 0xe0) == 0xc0) {
        len = 2;
        cp = b0 & 0x1f;
    } else if ((b0 & 0xf0) == 0xe0) {
        len = 3;
        cp = b0 & 0x0f;
    } else if ((b0 & 0xf8) == 0xf0) {
        len = 4;
        cp = b0 & 0x07;
    } else {
        return 0; // continuation or invalid lead byte
    }
    if (i + len > s.size())
        return 0;
    for (size_t k = 1; k < len; ++k) {
        unsigned char b = static_cast<unsigned char>(s[i + k]);
        if ((b & 0xc0) != 0x80)
            return 0;
        cp = (cp << 6) | (b & 0x3f);
    }
    static const uint32_t kMinCp[5] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < kMinCp[len])
        return 0; // overlong encoding
    if (cp > 0x10ffff || (cp >= 0xd800 && cp <= 0xdfff))
        return 0; // out of range / surrogate half
    return len;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (size_t i = 0; i < s.size();) {
        char c = s[i];
        unsigned char uc = static_cast<unsigned char>(c);
        if (c == '"') {
            out += "\\\"";
            ++i;
        } else if (c == '\\') {
            out += "\\\\";
            ++i;
        } else if (uc < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", uc);
            out += buf;
            ++i;
        } else if (uc < 0x80) {
            out += c;
            ++i;
        } else if (size_t len = utf8SequenceLength(s, i)) {
            out.append(s, i, len);
            i += len;
        } else {
            out += "\\ufffd"; // malformed byte: replacement character
            ++i;
        }
    }
    return out;
}

namespace {

std::string
formatDouble(double v)
{
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

} // namespace

std::string
toJson(const RegistrySnapshot &snapshot)
{
    std::ostringstream out;
    out << "{\"build_info\":" << buildInfoJson()
        << ",\"process_uptime_seconds\":"
        << formatDouble(processUptimeSeconds()) << ",\"counters\":{";
    for (size_t i = 0; i < snapshot.counters.size(); ++i) {
        const auto &c = snapshot.counters[i];
        out << (i ? "," : "") << '"' << jsonEscape(c.name) << "\":"
            << c.value;
    }
    out << "},\"gauges\":{";
    for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
        const auto &g = snapshot.gauges[i];
        out << (i ? "," : "") << '"' << jsonEscape(g.name) << "\":"
            << g.value;
    }
    out << "},\"histograms\":{";
    for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
        const auto &h = snapshot.histograms[i];
        out << (i ? "," : "") << '"' << jsonEscape(h.name) << "\":{"
            << "\"count\":" << h.hist.count << ",\"sum\":" << h.hist.sum
            << ",\"mean\":" << formatDouble(h.hist.mean())
            << ",\"min\":" << h.hist.min << ",\"max\":" << h.hist.max
            << ",\"p50\":" << formatDouble(h.hist.percentile(50))
            << ",\"p90\":" << formatDouble(h.hist.percentile(90))
            << ",\"p99\":" << formatDouble(h.hist.percentile(99)) << '}';
    }
    out << "}}";
    return out.str();
}

std::string
prometheusName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (size_t i = 0; i < name.size(); ++i) {
        char c = name[i];
        bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':';
        // Leading digits are invalid in Prometheus names.
        if (ok && i == 0 && std::isdigit(static_cast<unsigned char>(c)))
            ok = false;
        out += ok ? c : '_';
    }
    return out;
}

namespace {

/**
 * Conformant counter name: `_total` suffix unless the raw name
 * already carries it.
 */
std::string
counterName(const std::string &prom)
{
    if (prom.size() >= 6 && prom.compare(prom.size() - 6, 6, "_total") == 0)
        return prom;
    return prom + "_total";
}

/**
 * Base-unit rename + scale for a latency histogram: `*_ns`/`*_us`/
 * `*_ms` stems become `*_seconds` with values scaled accordingly.
 * Names already in base units (e.g. `*_bytes`) pass through at 1x.
 */
std::pair<std::string, double>
baseUnitName(const std::string &prom)
{
    auto ends = [&](const char *suffix, size_t n) {
        return prom.size() > n &&
               prom.compare(prom.size() - n, n, suffix) == 0;
    };
    if (ends("_ns", 3))
        return {prom.substr(0, prom.size() - 3) + "_seconds", 1e-9};
    if (ends("_us", 3))
        return {prom.substr(0, prom.size() - 3) + "_seconds", 1e-6};
    if (ends("_ms", 3))
        return {prom.substr(0, prom.size() - 3) + "_seconds", 1e-3};
    return {prom, 1.0};
}

void
emitSummary(std::ostringstream &out, const std::string &name,
            const HistogramSnapshot &hist, double scale)
{
    out << "# TYPE " << name << " summary\n";
    for (double q : {0.5, 0.9, 0.99}) {
        out << name << "{quantile=\"" << q << "\"} "
            << formatDouble(hist.percentile(q * 100.0) * scale) << "\n";
    }
    out << name << "_sum " << formatDouble(hist.sum * scale) << "\n"
        << name << "_count " << hist.count << "\n";
}

} // namespace

std::string
toPrometheus(const RegistrySnapshot &snapshot)
{
    std::ostringstream out;
    out << buildInfoPrometheus();
    for (const auto &c : snapshot.counters) {
        std::string name = counterName(prometheusName(c.name));
        out << "# HELP " << name
            << " Monotonic Potluck counter (cumulative since process "
               "start).\n"
            << "# TYPE " << name << " counter\n"
            << name << " " << c.value << "\n";
    }
    for (const auto &g : snapshot.gauges) {
        std::string name = prometheusName(g.name);
        out << "# HELP " << name << " Potluck gauge (current value).\n"
            << "# TYPE " << name << " gauge\n"
            << name << " " << g.value << "\n";
    }
    for (const auto &h : snapshot.histograms) {
        auto [name, scale] = baseUnitName(prometheusName(h.name));
        out << "# HELP " << name
            << " Potluck latency/size distribution (summary).\n";
        emitSummary(out, name, h.hist, scale);
    }
    return out.str();
}

std::string
formatNs(double ns)
{
    const char *unit = "ns";
    double v = ns;
    if (v >= 1e9) {
        v /= 1e9;
        unit = "s";
    } else if (v >= 1e6) {
        v /= 1e6;
        unit = "ms";
    } else if (v >= 1e3) {
        v /= 1e3;
        unit = "us";
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.1f%s", v, unit);
    return buf;
}

} // namespace potluck::obs
