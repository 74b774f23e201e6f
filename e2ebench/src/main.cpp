// disco_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>]
//
// Runs one workload of the end-to-end benchmark and prints, as the last
// line of standard output, one JSON object:
//
//   {"correct": ..., "attempted": n, "failed": n, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from the traced run. Exits 1 when any answer check
// failed, 2 on bad arguments. Provenance and progress go to stderr.
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

bool parse_args(int argc, char** argv, e2e::Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = value == "1";
      } else if (key == "--out") {
        args->out_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: disco_e2ebench --workload <wide_pushdown|"
                 "bulk_getonly|socket_mixed> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n";
    return 2;
  }
  std::cerr << "provenance: build_type=" << E2E_BUILD_TYPE
            << " compiler=" << E2E_COMPILER
            << " nproc=" << std::thread::hardware_concurrency()
            << " workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\n";

  e2e::Report report;
  try {
    if (args.workload == "wide_pushdown") {
      report = e2e::run_wide_pushdown(args);
    } else if (args.workload == "bulk_getonly") {
      report = e2e::run_bulk_getonly(args);
    } else if (args.workload == "socket_mixed") {
      report = e2e::run_socket_mixed(args);
    } else {
      std::cerr << "unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    // Set-up or a phase outside the per-query checks failed: no result.
    std::cerr << "run aborted: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& why : report.failures) {
    std::cerr << "FAILED: " << why << "\n";
  }
  std::string metrics;
  for (const e2e::Metric& m : report.metrics) {
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = report.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
