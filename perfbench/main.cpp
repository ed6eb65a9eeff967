// wcds_perfbench: the repository benchmark's measuring program.
//
//   wcds_perfbench --workload <serve-inter|build-fleet-lossy|churn-waypoint>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//   wcds_perfbench --sweep [--seed <n>]
//
// Prints report lines, a provenance line, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics in an untraced run, the per-layer metrics of the layers the
// workload exercises in a traced one.  A traced run also prints the
// self-time table and writes its spans as Chrome trace-event JSON to
// --trace-out.  Exits 1 when any output check fails.  perfbench/run.py
// builds this program, is the entry point, and checks the result against
// BENCHMARK.json.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <string_view>

#include "check/check.h"
#include "obs/json.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Report;

constexpr std::size_t kTraceExportPerName = 20000;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

bool parse_args(int argc, char** argv, Args& args, bool& sweep) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag(argv[i]);
    if (flag == "--sweep") {
      sweep = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return sweep || (!args.workload.empty() && args.seconds > 0.0);
}

wcds::obs::Json provenance(const Args& args, const Report& rep) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool audits = wcds::check::audits_compiled_in();
  wcds::obs::Json p = wcds::obs::Json::object();
  p["cpu"] = cpu_model();
  p["nproc"] = static_cast<std::uint64_t>(perfbench::nproc());
  p["compiler"] = PERFBENCH_COMPILER;
  p["build_type"] = build_type;
  p["audits_compiled_in"] = audits;
  p["git_sha"] = env_or("PERFBENCH_GIT_SHA", "unavailable");
  p["src_digest"] = env_or("PERFBENCH_SRC_DIGEST", "unavailable");
  p["workload"] = args.workload;
  p["seed"] = args.seed;
  p["seconds"] = args.seconds;
  p["trace"] = args.trace;
  p["inputs_hash"] = rep.inputs_hash;
  // Only optimized, audit-free builds are compared between commits.
  p["comparable"] = build_type == "Release" && !audits;
  return p;
}

int run(const Args& args) {
  std::unique_ptr<perfbench::Tracer> tracer;
  if (args.trace) {
    tracer = std::make_unique<perfbench::Tracer>(perfbench::nproc());
  }
  Report rep;
  if (args.workload == "serve-inter") {
    rep = perfbench::run_serve_inter(args, tracer.get());
  } else if (args.workload == "build-fleet-lossy") {
    rep = perfbench::run_build_fleet_lossy(args, tracer.get());
  } else if (args.workload == "churn-waypoint") {
    rep = perfbench::run_churn_waypoint(args, tracer.get());
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  std::printf("workload %s (seed %llu, %s)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  for (const std::string& line : rep.lines) std::printf("%s\n", line.c_str());
  for (const perfbench::Metric& m : rep.metrics) {
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fail_ratio %.6g ratio  (%llu failed of %llu attempted)\n",
              rep.attempted == 0 ? 1.0
                                 : static_cast<double>(rep.failed) /
                                       static_cast<double>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  if (tracer) {
    for (const std::string& line :
         perfbench::format_layer_table(tracer->layer_times())) {
      std::printf("%s\n", line.c_str());
    }
    if (!args.trace_out.empty()) {
      if (!tracer->write_chrome_trace(args.trace_out, kTraceExportPerName)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("trace %s (%zu spans)\n", args.trace_out.c_str(),
                  tracer->span_count());
    }
  }
  std::printf("provenance %s\n", provenance(args, rep).dump(-1).c_str());

  wcds::obs::Json metrics = wcds::obs::Json::object();
  for (const perfbench::Metric& m : rep.metrics) {
    wcds::obs::Json metric = wcds::obs::Json::object();
    metric["value"] = m.value;
    metric["unit"] = m.unit;
    metrics[m.name] = std::move(metric);
  }
  const bool correct = rep.failed == 0 && rep.attempted > 0;
  wcds::obs::Json result = wcds::obs::Json::object();
  result["correct"] = correct;
  result["attempted"] = rep.attempted;
  result["failed"] = rep.failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump(-1).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool sweep = false;
  if (!parse_args(argc, argv, args, sweep)) {
    std::fprintf(stderr,
                 "usage: wcds_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n"
                 "       wcds_perfbench --sweep [--seed <n>]\n");
    return 2;
  }
  wcds::check::set_audits_enabled(false);
  try {
    return sweep ? perfbench::run_sweep(args) : run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
