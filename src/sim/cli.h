/**
 * @file
 * Command-line options for the `vsim` driver.
 *
 * Parsing is separated from main() so the option grammar is unit
 * testable. The grammar:
 *
 *   vsim [--cores N] [--scheme NAME] [--array NAME]
 *        [--mix CLASS[:SEED] | --apps a,b,c | --traces f1,f2,...]
 *        [--instrs N] [--warmup N] [--l2-lines N]
 *        [--banks N]
 *        [--unmanaged F] [--amax F] [--slack F]
 *        [--no-ucp] [--repartition N] [--seed N] [--jobs N]
 *        [--stats-out FILE] [--trace-out FILE] [--stats-period N]
 *        [--events-out FILE] [--trace-categories LIST]
 *        [--heartbeat N] [--heartbeat-out FILE]
 *        [--metrics-port N] [--metrics-period-ms N] [--digest]
 *        [--slo SPEC] [--qos-out FILE]
 *        [--serve PORT] [--serve-journal FILE] [--replay FILE]
 *        [--lifecycle N] [--max-tenants N] [--epoch N]
 *
 * Every value-taking option also accepts the --option=value form.
 *
 * Scheme names: lru, srrip, drrip, tadrrip, waypart, pipp, vantage,
 * vantage-drrip, vantage-oracle.
 * Array names: z4-52, z4-16, sa16, sa64, random.
 */

#ifndef VANTAGE_SIM_CLI_H_
#define VANTAGE_SIM_CLI_H_

#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "trace/event_trace.h"

namespace vantage {

/** Parsed vsim invocation. */
struct CliOptions
{
    CmpConfig machine;
    L2Spec l2;
    RunScale scale;
    std::uint64_t seed = 1;

    /**
     * Bank count for a banked L2 (0 = flat cache). Must divide the
     * L2 line count; workload runs only (serve, replay and lifecycle
     * always simulate a flat L2).
     */
    std::uint32_t banks = 0;

    /** Exactly one of these selects the workload. */
    std::optional<std::pair<std::uint32_t, std::uint32_t>> mix;
    std::vector<std::string> apps;   ///< Profile names.
    std::vector<std::string> traces; ///< Trace file paths.

    /** Observability outputs (empty: disabled). */
    std::string statsOut;  ///< End-of-run stats registry, JSON.
    std::string traceOut;  ///< Controller trace, CSV.
    std::string eventsOut; ///< Chrome trace_event timeline, JSON.
    /** Category mask for --events-out (default: all). */
    std::uint32_t traceCategories = kTraceAllCategories;

    /** Heartbeat JSON lines to this file instead of stderr. */
    std::string heartbeatOut;

    /**
     * Live Prometheus endpoint port: -1 disabled, 0 ephemeral (the
     * bound port is announced on stderr), else the given port.
     */
    int metricsPort = -1;
    /** Metrics sampling epoch, in milliseconds. */
    std::uint64_t metricsPeriodMs = 250;

    /** Print a 64-bit digest of per-access L2 outcomes. */
    bool digest = false;

    /**
     * QoS SLO spec (see parseSloSpec in obs/qos.h); empty disables
     * the engine unless --qos-out is given (default SLOs only).
     */
    std::string sloSpec;

    /** QoS violation events + audit tail, as JSON lines. */
    std::string qosOut;

    /**
     * Serve mode (-1 disabled): listen for tenant clients on
     * 127.0.0.1:servePort (0 picks an ephemeral port, announced on
     * stderr). Mutually exclusive with --replay and --lifecycle.
     */
    int servePort = -1;

    /** Journal the serve/lifecycle event stream to this file. */
    std::string serveJournal;

    /** Replay a serve journal instead of running a workload. */
    std::string replayPath;

    /**
     * Synthetic tenant-lifecycle scenario: this many accesses with
     * seeded joins/leaves mid-run (0 disabled). Golden-digest
     * vehicle for the dynamic-partition machinery.
     */
    std::uint64_t lifecycleAccesses = 0;

    /** Tenant slot capacity for --serve / --lifecycle. */
    std::uint32_t maxTenants = 8;

    /**
     * Accesses per epoch: the QoS (--slo) cadence in every mode, and
     * the UCP repartitioning interval in serve/lifecycle mode.
     */
    std::uint64_t epochAccesses = 50'000;

    bool showHelp = false;
};

/**
 * Parse argv. @return options, or an error message in `error` (the
 * returned options are then unspecified).
 */
CliOptions parseCli(const std::vector<std::string> &args,
                    std::string &error);

/** Map a scheme name to its kind; nullopt when unknown. */
std::optional<SchemeKind> schemeFromName(const std::string &name);

/** Map an array name to its kind; nullopt when unknown. */
std::optional<ArrayKind> arrayFromName(const std::string &name);

/** The --help text. */
std::string cliUsage();

} // namespace vantage

#endif // VANTAGE_SIM_CLI_H_
