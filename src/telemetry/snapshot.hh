/**
 * @file
 * Periodic telemetry snapshot emitter.
 *
 * Every interval the emitter polls the registry's probes, reads its
 * instruments, and writes one newline-delimited JSON object to the
 * metrics stream; alongside it rewrites a Prometheus
 * text-exposition file so an external scraper always sees the latest
 * state.  Like the GaugeSampler, it only schedules sim events once
 * start() is called — a run without metrics keeps a byte-identical
 * event stream.
 *
 * Layout contract: the "shards" key is always the LAST key of a
 * snapshot object.  Everything before it is shard-independent state,
 * so two runs of the same workload with different --parallel-shards
 * produce identical snapshot prefixes up to `,"shards":` — the
 * determinism tests rely on this.
 *
 * The emitter also keeps the per-window dominant-bottleneck history
 * (bounded: a win counter per util probe plus a fixed-size recent
 * ring) that feeds the end-of-run health report.
 */

#ifndef VCP_TELEMETRY_SNAPSHOT_HH
#define VCP_TELEMETRY_SNAPSHOT_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "telemetry/health.hh"
#include "telemetry/telemetry.hh"

namespace vcp {

/** Writes ND-JSON + Prometheus snapshots of a TelemetryRegistry. */
class SnapshotEmitter
{
  public:
    /** Number of recent window-dominants kept for the health report. */
    static constexpr std::size_t kRecentWindows = 64;

    SnapshotEmitter(Simulator &sim, TelemetryRegistry &reg,
                    SimDuration interval = seconds(60));

    SnapshotEmitter(const SnapshotEmitter &) = delete;
    SnapshotEmitter &operator=(const SnapshotEmitter &) = delete;

    /**
     * Open @p path for ND-JSON output and derive the Prometheus
     * exposition path as `path + ".prom"`.  Returns false (with a
     * warning) when the file cannot be opened.
     */
    bool openNdjson(const std::string &path);

    /** Direct the ND-JSON stream at @p os instead of a file (tests). */
    void writeTo(std::ostream *os);

    /** Begin periodic emission (re-arms until stop()). */
    void start();

    void stop() { running = false; }

    /** Emit one snapshot at the current sim time. */
    void emitNow();

    /**
     * Emit a final partial-window snapshot (if anything happened
     * since the last one), append the health line, and rewrite the
     * Prometheus file one last time.
     * @return false if any ND-JSON or Prometheus write of the run
     *         failed (failedPath() names the first file).
     */
    bool finish(const HealthReport &hr);

    /** The first file a write failed on; empty if none did. */
    const std::string &failedPath() const { return failed_path; }

    std::uint64_t snapshots() const { return seq; }
    SimDuration interval() const { return interval_; }

    /** Dominant subsystem of recent windows, oldest first. */
    std::vector<std::string> recentDominants() const;

    /** Windows won per subsystem over the run. */
    std::vector<std::pair<std::string, std::uint64_t>>
    windowWins() const
    {
        return wins;
    }

  private:
    void tick();
    void emitLine(const std::string &line);
    std::string snapshotLine();
    void noteDominant();
    void writeProm();
    /** Remember @p path as the first failed write. */
    void noteFailure(const std::string &path);

    Simulator &sim;
    TelemetryRegistry &reg;
    SimDuration interval_;
    bool running = false;
    std::uint64_t seq = 0;
    SimTime last_emit = 0;

    std::ostream *out = nullptr;
    std::unique_ptr<std::ofstream> owned_out;
    std::string ndjson_path;
    std::string prom_path;
    std::string failed_path;

    /** One (name, count) per util probe — bounded by instrument count. */
    std::vector<std::pair<std::string, std::uint64_t>> wins;
    /** Fixed-size ring of recent window dominants. */
    std::string recent[kRecentWindows];
    std::size_t recent_n = 0;
};

} // namespace vcp

#endif // VCP_TELEMETRY_SNAPSHOT_HH
