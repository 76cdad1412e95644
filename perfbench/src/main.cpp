// analognf benchmark entry point.
//
//   analognf_perfbench --workload <name> [--seed N] [--seconds S]
//                      [--trace 0|1] [--trace-out FILE]
//
// Prints notes (host fingerprint, workload figures, failed checks) and,
// as the last line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this binary and wraps it.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "analognf/common/simd.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

bool ParseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--trace-out") {
      opts.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opts.workload.empty() && opts.seconds > 0.0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Json(const Result& r, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << Num(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    if (!ParseArgs(argc, argv, opts)) {
      std::cerr << "usage: analognf_perfbench --workload NAME [--seed N] "
                   "[--seconds S] [--trace 0|1] [--trace-out FILE]\n";
      return 2;
    }
    perfbench::Calibration calib;
    calib.Sample();
    Result r;
    if (opts.workload == "ingress-zipf") {
      r = perfbench::RunIngressZipf(opts, calib);
    } else if (opts.workload == "aqm-grid") {
      r = perfbench::RunAqmGrid(opts, calib);
    } else {
      std::cerr << "unknown workload: " << opts.workload << "\n";
      return 2;
    }
    calib.Sample();
    r.Layer("host.calib_ns", "ns", calib.median_ns());
    r.Layer("host.calib_spread", "fraction", calib.spread());

    std::cout << "host: isa=" << analognf::simd::IsaName()
              << " nproc=" << std::thread::hardware_concurrency()
              << " compiler=" << PERFBENCH_COMPILER
              << " build=" << PERFBENCH_BUILD_TYPE
              << " flags=" << PERFBENCH_CXX_FLAGS
              << " warnings_as_errors=" << PERFBENCH_WARNINGS_AS_ERRORS
              << " calib_ns=" << Num(calib.median_ns())
              << " calib_spread=" << Num(calib.spread()) << "\n";
    std::cout << "run: workload=" << opts.workload << " seed=" << opts.seed
              << " seconds=" << opts.seconds << " trace=" << opts.trace
              << "\n";
    for (const std::string& note : r.notes) std::cout << note << "\n";
    std::cout << Json(r, opts.trace ? r.per_layer : r.end_to_end) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "analognf_perfbench: " << e.what() << "\n";
    return 1;
  }
}
