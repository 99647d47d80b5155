// The `osprof_tool gate` subcommand: the profile-regression gate.
//
// The paper's automated analysis tool (§3.2, §5.3) exists to compare
// complete profile sets and flag meaningful differences.  The gate turns
// that offline method into CI infrastructure: it re-runs a named scenario
// on the multi-trial runner, scores the merged per-layer profiles against
// committed golden baselines with the §5.3 raters (EMD, Chi-square,
// total-ops, total-latency), prints a rater-by-rater verdict, and exits
// non-zero when any rater flags a regression.  `--update` regenerates the
// golden files instead (for intentional behaviour changes).
//
// Scenario runs are fully deterministic for a fixed (scenario, trials)
// pair -- the runner seeds trial t with base+t and merges in trial order
// -- so the gate also requires every golden file to hold exactly the
// bytes --update would write (the [bytes] verdict), and a passing gate
// proves the run byte-identical to its goldens.  The raters then explain
// what moved when it is not.

#ifndef OSPROF_SRC_TOOLS_GATE_COMMAND_H_
#define OSPROF_SRC_TOOLS_GATE_COMMAND_H_

#include <ostream>
#include <string>
#include <vector>

namespace ostools {

// args are the tokens after "gate":
//   gate <scenario> [--baseline=PREFIX] [--raters=emd,chi2,ops,latency]
//                   [--threshold=X] [--trials=N] [--jobs=J] [--json=FILE]
//                   [--no-races] [--update]
//   gate --list
// The baseline PREFIX defaults to "tests/golden/<scenario>"; each profiled
// layer reads/writes PREFIX.<layer>.prof, and a layered decomposition
// PREFIX.layers.  Exit codes:
//   0  every verdict passed (or --update wrote new goldens)
//   1  usage error
//   2  runtime failure, unknown scenario, or missing/corrupt baseline
//   3  regression: a golden's bytes differ, a rater flagged an operation,
//      or another verdict failed
int RunGateCommand(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err);

}  // namespace ostools

#endif  // OSPROF_SRC_TOOLS_GATE_COMMAND_H_
