#include "stats/registry.hh"

#include <algorithm>
#include <cstdio>

namespace vcp {

Counter &
StatRegistry::counter(const std::string &name)
{
    return counters[name];
}

Histogram &
StatRegistry::histogram(const std::string &name, double min_value,
                        double growth)
{
    auto it = histograms.find(name);
    if (it == histograms.end()) {
        it = histograms
                 .emplace(name,
                          std::make_unique<Histogram>(min_value, growth))
                 .first;
    }
    return *it->second;
}

SummaryStats &
StatRegistry::summary(const std::string &name)
{
    return summaries[name];
}

template <typename Map>
std::vector<std::string>
StatRegistry::sortedKeys(const Map &map)
{
    std::vector<std::string> out;
    out.reserve(map.size());
    for (const auto &kv : map)
        out.push_back(kv.first);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
StatRegistry::toCsv() const
{
    std::string out = "name,kind,field,value\n";
    char line[256];
    for (const auto &name : sortedKeys(counters)) {
        std::snprintf(line, sizeof(line), "%s,counter,value,%llu\n",
                      name.c_str(),
                      static_cast<unsigned long long>(
                          counters.at(name).value()));
        out += line;
    }
    for (const auto &name : sortedKeys(histograms)) {
        const Histogram &h = *histograms.at(name);
        const struct { const char *f; double v; } fields[] = {
            {"count", static_cast<double>(h.count())},
            {"mean", h.mean()},
            {"p50", h.p50()},
            {"p95", h.p95()},
            {"p99", h.p99()},
            {"max", h.count() ? h.max() : 0.0},
        };
        for (const auto &f : fields) {
            std::snprintf(line, sizeof(line), "%s,histogram,%s,%.6g\n",
                          name.c_str(), f.f, f.v);
            out += line;
        }
    }
    for (const auto &name : sortedKeys(summaries)) {
        const SummaryStats &s = summaries.at(name);
        const struct { const char *f; double v; } fields[] = {
            {"count", static_cast<double>(s.count())},
            {"mean", s.mean()},
            {"stddev", s.stddev()},
            {"min", s.count() ? s.min() : 0.0},
            {"max", s.count() ? s.max() : 0.0},
        };
        for (const auto &f : fields) {
            std::snprintf(line, sizeof(line), "%s,summary,%s,%.6g\n",
                          name.c_str(), f.f, f.v);
            out += line;
        }
    }
    return out;
}

} // namespace vcp
