#include "telemetry/telemetry.hh"

#include <algorithm>

namespace vcp {

namespace {

template <typename T>
using Named = std::vector<std::pair<std::string, std::unique_ptr<T>>>;

template <typename T, typename... Args>
T *
getOrCreate(Named<T> &v, const std::string &name, Args &&...args)
{
    for (auto &[n, inst] : v)
        if (n == name)
            return inst.get();
    v.emplace_back(name,
                   std::make_unique<T>(std::forward<Args>(args)...));
    return v.back().second.get();
}

template <typename T>
const T *
findNamed(const Named<T> &v, const std::string &name)
{
    for (const auto &[n, inst] : v)
        if (n == name)
            return inst.get();
    return nullptr;
}

template <typename T>
std::vector<std::string>
namesOf(const Named<T> &v)
{
    std::vector<std::string> out;
    out.reserve(v.size());
    for (const auto &entry : v)
        out.push_back(entry.first);
    return out;
}

} // namespace

TelemetryRegistry::TelemetryRegistry(SimDuration window)
    : window_(std::max<SimDuration>(window, WindowedCounter::kSlots))
{}

WindowedCounter *
TelemetryRegistry::counter(const std::string &name)
{
    return getOrCreate(counters_, name, window_);
}

LatencyHistogram *
TelemetryRegistry::histogram(const std::string &name)
{
    return getOrCreate(hists_, name);
}

DecayingGauge *
TelemetryRegistry::gauge(const std::string &name)
{
    return getOrCreate(gauges_, name, window_);
}

void
TelemetryRegistry::addGaugeProbe(const std::string &name,
                                 std::function<std::int64_t()> fn)
{
    gprobes_.push_back({name, std::move(fn), gauge(name)});
}

void
TelemetryRegistry::addUtilProbe(const std::string &name,
                                std::function<double()> fn)
{
    utils_.push_back({name, std::move(fn)});
}

void
TelemetryRegistry::addCounterProbe(const std::string &name,
                                   std::function<std::uint64_t()> fn,
                                   bool shard_scoped)
{
    cprobes_.push_back({name, std::move(fn), shard_scoped, 0});
}

void
TelemetryRegistry::sampleGauges(SimTime now)
{
    for (auto &p : gprobes_)
        p.sink->sample(now, static_cast<double>(p.fn()));
}

std::vector<std::string>
TelemetryRegistry::counterNames() const
{
    return namesOf(counters_);
}

std::vector<std::string>
TelemetryRegistry::histogramNames() const
{
    return namesOf(hists_);
}

std::vector<std::string>
TelemetryRegistry::gaugeNames() const
{
    return namesOf(gauges_);
}

const WindowedCounter *
TelemetryRegistry::findCounter(const std::string &name) const
{
    return findNamed(counters_, name);
}

const LatencyHistogram *
TelemetryRegistry::findHistogram(const std::string &name) const
{
    return findNamed(hists_, name);
}

const DecayingGauge *
TelemetryRegistry::findGauge(const std::string &name) const
{
    return findNamed(gauges_, name);
}

std::size_t
TelemetryRegistry::numInstruments() const
{
    return counters_.size() + hists_.size() + gauges_.size()
        + utils_.size() + cprobes_.size() + gprobes_.size();
}

std::size_t
TelemetryRegistry::footprintBytes() const
{
    return counters_.size() * sizeof(WindowedCounter)
        + hists_.size() * sizeof(LatencyHistogram)
        + gauges_.size() * sizeof(DecayingGauge);
}

} // namespace vcp
