// The benchmark workloads. Each builds its inputs from opts.seed,
// measures for opts.seconds, checks the program's outputs, and fills a
// Result: end-to-end metrics when opts.trace is false, per-layer metrics
// (from a traced run plus an untraced reference for the overhead) when
// it is true. See README.md for what each one stresses and why.
#pragma once

#include "harness.hpp"

namespace perfbench {

Result RunIngressZipf(const Options& opts, Calibration& calib);
Result RunAqmGrid(const Options& opts, Calibration& calib);

}  // namespace perfbench
