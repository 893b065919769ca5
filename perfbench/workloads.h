/**
 * @file
 * The vbench workloads. Each runs whole, fixed-size units of
 * simulated work ("reps") until the requested seconds have passed,
 * checks every rep's outcome digest, and reports the best rep's rates
 * and the median set-up time.
 * With RunOptions::trace set, each instead runs one untimed rep and
 * one recorded rep, then replays the recordings layer by layer.
 */

#ifndef VBENCH_WORKLOADS_H_
#define VBENCH_WORKLOADS_H_

#include "harness.h"

namespace vbench {

/** cmp32_fig7: CmpSim batch runs of the Fig. 7 machine. */
RunResult runCmp32(const RunOptions &opt);

/** serve_socket: ServeServer on loopback, one closed-loop client. */
RunResult runServeSocket(const RunOptions &opt);

} // namespace vbench

#endif // VBENCH_WORKLOADS_H_
