// mvbench — the repository benchmark harness.
//
//   mvbench --workload <verify-router|dse-sweep|serve-ctmc> --seed N
//           --seconds S --trace 0|1 --cli PATH --golden DIR --out DIR
//
// Runs one workload for S seconds, checks its outputs, and prints a table
// of metrics (name, value, unit) followed by one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics (layers a workload does not exercise read 0).  Every run also
// writes DIR/<workload>-seed<N>-trace<T>.json with the run environment,
// the deterministic counts, all metrics and (traced) the span summary.
// Each workload checks inside the run that its counts repeat exactly.
// Exit status: 0 when every output check passed, 1 when one
// failed, 2 on bad usage.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using namespace mvbench;

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The metrics of BENCHMARK.json, in its order.
const std::vector<MetricSpec> kEndToEnd = {
    {"job_s", "s"},
    {"op_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> specs = {
      // verify-router
      {"proc.generate_s", "s"},
      {"proc.states_per_s", "1/s"},
      {"proc.states", "count"},
      {"proc.transitions", "count"},
      {"bisim.strong_s", "s"},
      {"bisim.branching_s", "s"},
      {"bisim.blocks_strong", "count"},
      {"bisim.blocks_branching", "count"},
      {"mc.check_ms", "ms"},
      {"analyze.lint_ms", "ms"},
      {"analyze.bounds_ms", "ms"},
      {"analyze.predicted_states", "count"},
      {"analyze.bound_ratio", "ratio"},
      {"explore.w1_s", "s"},
      {"explore.w2_s", "s"},
      {"explore.w4_s", "s"},
      {"explore.speedup", "x"},
      {"explore.dedup_hits_per_state", "count"},
      // dse-sweep
      {"dse.expand_ms", "ms"},
      {"dse.instantiate_ms", "ms"},
      {"analyze.gate_ms", "ms"},
      {"compose.generations", "count"},
      {"compose.generate_ms", "ms"},
      {"compose.pipeline_hits", "count"},
      {"compose.pipeline_hit_ratio", "ratio"},
      {"serve.prepare_ms", "ms"},
      {"markov.solve_ms", "ms"},
      {"markov.solves", "count"},
      // dse-sweep and serve-ctmc
      {"serve.distinct_keys", "count"},
      {"serve.solves", "count"},
      {"serve.coalesced", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.solve_p50_ms", "ms"},
      {"markov.iterations", "count"},
      // serve-ctmc
      {"serve.solve_p99_ms", "ms"},
      {"serve.batched", "count"},
      {"serve.rtt_overhead_p50_ms", "ms"},
      {"serve.decode_ms", "ms"},
      {"markov.steady_ms", "ms"},
      {"markov.transient_ms", "ms"},
      {"imc.bounds_ms", "ms"},
      {"mc.evaluate_ms", "ms"},
      // every workload
      {"trace.job_s_untraced", "s"},
      {"trace.job_s_traced", "s"},
      {"trace.overhead_pct", "%"},
  };
  for (const std::string& layer : layer_names()) {
    specs.push_back({layer + ".total_ms", "ms"});
    specs.push_back({layer + ".self_ms", "ms"});
    specs.push_back({layer + ".calls", "count"});
  }
  return specs;
}

int usage(const std::string& why) {
  std::cerr << "mvbench: " << why << "\n"
            << "usage: mvbench --workload <verify-router|dse-sweep|serve-ctmc>"
               " --seed N --seconds S --trace 0|1 --cli PATH --golden DIR"
               " --out DIR\n";
  return 2;
}

/// Orders the reported metrics as @p specs and fills in what a workload did
/// not measure with 0.  A metric outside @p specs is a harness bug.
std::vector<Metric> ordered(const std::vector<MetricSpec>& specs,
                            const std::vector<Metric>& got,
                            const std::vector<std::pair<std::string,
                                                        std::uint64_t>>& counts,
                            RunResult& out) {
  std::map<std::string, double> values;
  for (const auto& [name, value] : counts) {
    values[name] = static_cast<double>(value);
  }
  for (const Metric& m : got) {
    values[m.name] = m.value;
  }
  std::vector<Metric> result;
  for (const MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    result.push_back({s.name, it == values.end() ? 0.0 : it->second, s.unit});
    if (it != values.end()) {
      values.erase(it);
    }
  }
  for (const Metric& m : got) {
    if (values.count(m.name) != 0) {
      out.fail("harness: metric " + m.name + " is not declared");
    }
  }
  return result;
}

std::string counts_json(
    const std::vector<std::pair<std::string, std::uint64_t>>& counts) {
  std::string s = "{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    s += std::string(i == 0 ? "" : ", ") + json_string(counts[i].first) +
         ": " + std::to_string(counts[i].second);
  }
  return s + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += std::string(i == 0 ? "" : ", ") + json_string(metrics[i].name) +
         ": {\"value\": " + json_number(metrics[i].value) +
         ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--cli") {
      opts.cli = value;
    } else if (flag == "--golden") {
      opts.golden_dir = value;
    } else if (flag == "--out") {
      opts.out_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || opts.out_dir.empty() || !(opts.seconds > 0)) {
    return usage("missing or malformed arguments");
  }

  RunResult out;
  try {
    if (opts.workload == "verify-router") {
      run_verify_router(opts, out);
    } else if (opts.workload == "dse-sweep") {
      run_dse_sweep(opts, out);
    } else if (opts.workload == "serve-ctmc") {
      run_serve_ctmc(opts, out);
    } else {
      return usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "mvbench: " << opts.workload << ": " << e.what() << "\n";
    return 1;
  }

  const std::string tag = opts.workload + "-seed" + std::to_string(opts.seed);
  const std::string counts = counts_json(out.counts);

  const std::vector<Metric> e2e =
      ordered(kEndToEnd, out.end_to_end, {}, out);
  const std::vector<Metric> layers =
      opts.trace ? ordered(per_layer_specs(), out.per_layer, out.counts, out)
                 : std::vector<Metric>{};
  if (!out.correct() && out.failed == 0) {
    out.failed = out.attempted;  // a run-level check failed: count it all
  }
  const double error_rate =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);

  std::vector<std::pair<std::string, std::string>> env = {
      {"workload", opts.workload},
      {"seed", std::to_string(opts.seed)},
      {"seconds", json_number(opts.seconds)},
      {"trace", opts.trace ? "1" : "0"},
      {"nproc", std::to_string(nproc())},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"compiler", MVBENCH_COMPILER},
      {"build_type", MVBENCH_BUILD_TYPE},
      {"cxx_flags", MVBENCH_CXX_FLAGS},
  };
  env.insert(env.end(), out.env.begin(), out.env.end());

  // Human-readable report.
  std::cout << "== " << opts.workload << " (seed " << opts.seed << ", "
            << (opts.trace ? "traced" : "untraced") << ") ==\n";
  for (const auto& [key, value] : env) {
    std::cout << "  " << std::left << std::setw(34) << key << value << "\n";
  }
  for (const auto& [name, value] : out.counts) {
    std::cout << "  " << std::left << std::setw(34) << ("count " + name)
              << value << "\n";
  }
  const auto print = [](const Metric& m) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::setw(22)
              << json_number(m.value) << m.unit << "\n";
  };
  print({"error_rate", error_rate, "ratio"});
  for (const Metric& m : opts.trace ? layers : e2e) {
    print(m);
  }
  for (const std::string& e : out.errors) {
    std::cout << "  CHECK FAILED: " << e << "\n";
  }

  // Results record.
  std::string env_json = "{";
  for (std::size_t i = 0; i < env.size(); ++i) {
    env_json += std::string(i == 0 ? "" : ", ") + json_string(env[i].first) +
                ": " + json_string(env[i].second);
  }
  env_json += "}";
  std::string errors_json = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    errors_json += std::string(i == 0 ? "" : ", ") + json_string(out.errors[i]);
  }
  errors_json += "]";
  std::ofstream(opts.out_dir + "/" + tag + "-trace" +
                (opts.trace ? "1" : "0") + ".json")
      << "{\"correct\": " << (out.correct() ? "true" : "false")
      << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
      << ", \"error_rate\": " << json_number(error_rate)
      << ",\n \"env\": " << env_json << ",\n \"errors\": " << errors_json
      << ",\n \"counts\": " << counts << ",\n \"end_to_end\": "
      << metrics_json(e2e) << ",\n \"per_layer\": " << metrics_json(layers)
      << ",\n \"trace\": " << (out.trace_json.empty() ? "null" : out.trace_json)
      << "}\n";

  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": "
            << metrics_json(opts.trace ? layers : e2e) << "}" << std::endl;
  return out.correct() ? 0 : 1;
}
