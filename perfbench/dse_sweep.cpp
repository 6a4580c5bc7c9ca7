// dse-sweep: dse::run_sweep over the builtin "default" sweep, in process,
// with workers = worker_threads() and repeat = 2.  One job is one cold
// sweep: every job starts with a fresh serve::Service and pipeline cache, as
// every `multival_cli dse` call does.  The second pass of a job is pure
// cache-hit traffic.  Every pass overwrites a probe's ProbeResult, so
// ProbeResult.wall_ms, and with it op_p99_ms, is the second pass's
// cache-hit latency (decode, hash and lookup); solve time and queue wait
// show in job_s only.
#include <memory>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "bench.hpp"
#include "compose/pipeline.hpp"
#include "core/report.hpp"
#include "dse/driver.hpp"
#include "dse/scenario.hpp"
#include "serve/solvers.hpp"

namespace mvbench {

namespace {

using namespace multival;

constexpr unsigned kRepeat = 2;

// Pipeline steps of one cold sweep, pinned at the commit that defined this
// benchmark.  The golden file pins every other count: distinct keys (76),
// probes, service solves (76), solver solves and iterations, pipeline hits
// and misses, and the front (21 points).
constexpr std::uint64_t kGenerations = 429;

bool is_pipeline_step(const core::GenerationStat& g) {
  return g.model.rfind("pipeline: ", 0) == 0;
}

struct JobOutput {
  std::string json;  ///< to_json(result, false)
  std::uint64_t distinct_keys = 0;
  std::uint64_t service_solves = 0;
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_iterations = 0;
  std::uint64_t pipeline_hits = 0;
  std::uint64_t pipeline_misses = 0;
  std::uint64_t generations = 0;
  std::vector<double> probe_ms;  ///< wall_ms of the last (cache-hit) pass
  // Layer numbers of the sweep (per job).
  double generate_ms = 0.0;
  double solve_ms = 0.0;
  serve::ServiceMetrics service;
};

JobOutput sweep_job(const dse::SweepSpec& spec, Tracer& tracer) {
  core::clear_generation_log();
  core::clear_solve_log();
  dse::DriverOptions options;
  options.workers = worker_threads();
  options.repeat = kRepeat;
  JobOutput o;
  auto span = tracer.span("dse.run_sweep");
  const dse::SweepResult r = dse::run_sweep(spec, options);
  for (const core::GenerationStat& g : core::generation_log()) {
    if (is_pipeline_step(g)) {
      ++o.generations;
      o.generate_ms += 1e3 * g.seconds;
    }
  }
  for (const core::SolveStat& s : core::solve_log()) {
    o.solve_ms += 1e3 * s.seconds;
  }
  // Pipeline steps run on the calling thread inside run_sweep; solves run
  // on the service's worker threads while it waits.
  tracer.attribute("compose.pipeline_step", o.generate_ms / 1e3,
                   o.generations, false);
  tracer.attribute("markov.solve", o.solve_ms / 1e3, r.solver.solves, true);
  span.end();
  o.json = dse::to_json(r, false);
  o.distinct_keys = r.distinct_keys;
  o.service_solves = r.service.solves;
  o.solver_solves = r.solver.solves;
  o.solver_iterations = r.solver.iterations;
  o.pipeline_hits = r.pipeline.hits;
  o.pipeline_misses = r.pipeline.misses;
  o.service = r.service;
  for (const dse::PointResult& p : r.points) {
    for (const dse::ProbeResult& probe : p.probes) {
      o.probe_ms.push_back(probe.wall_ms);
    }
  }
  return o;
}

void check_job(const JobOutput& o, const std::string& golden,
               RunResult& out) {
  if (o.json != golden) {
    std::size_t at = 0;
    while (at < o.json.size() && at < golden.size() &&
           o.json[at] == golden[at]) {
      ++at;
    }
    out.fail("dse-sweep: --no-timing JSON differs from the golden file at "
             "byte " + std::to_string(at));
  }
  out.expect_count("dse-sweep pipeline generations", o.generations,
                   kGenerations);
}

/// The steps run_sweep performs before dispatch, called one by one so each
/// gets its own time: expand (with the predicted_states bounds of the
/// derived quantities), instantiate, lint gate and request preparation.
struct Breakdown {
  double expand_ms = 0, instantiate_ms = 0, gate_ms = 0, prepare_ms = 0;
};

Breakdown breakdown_study(const dse::SweepSpec& spec, Tracer& tracer) {
  Breakdown b;
  auto root = tracer.span("study.dse_breakdown");
  core::clear_generation_log();
  std::vector<dse::Point> points;
  {
    auto span = tracer.span("dse.expand");
    points = dse::expand(spec, &dse::derived_quantities);
    b.expand_ms = 1e3 * span.end();
  }
  compose::LruMinimizeCache cache;
  for (const dse::Point& point : points) {
    dse::Instantiated inst;
    {
      auto span = tracer.span("dse.instantiate");
      std::size_t seen = core::generation_log().size();
      inst = dse::instantiate(point, compose::Strategy::kPlanned, &cache);
      double gen_s = 0.0;
      std::uint64_t steps = 0;
      const std::vector<core::GenerationStat> log = core::generation_log();
      for (; seen < log.size(); ++seen) {
        if (is_pipeline_step(log[seen])) {
          gen_s += log[seen].seconds;
          ++steps;
        }
      }
      tracer.attribute("compose.pipeline_step", gen_s, steps, false);
      b.instantiate_ms += 1e3 * span.end();
    }
    bool clean = true;
    for (const dse::GateModel& gate : inst.gates) {
      auto span = tracer.span("analyze.lint_program");
      clean = analyze::lint_program(gate.program,
                                    proc::call(gate.entry, {}))
                  .clean() &&
              clean;
      b.gate_ms += 1e3 * span.end();
    }
    if (!clean) {
      continue;
    }
    for (const dse::Probe& probe : inst.probes) {
      serve::Request request;
      request.verb = probe.verb;
      request.arg = probe.arg;
      request.payload = probe.payload;
      auto span = tracer.span("serve.prepare_request");
      (void)serve::prepare_request(request);
      b.prepare_ms += 1e3 * span.end();
    }
  }
  return b;
}

}  // namespace

void run_dse_sweep(const Options& opts, RunResult& out) {
  const std::string golden = read_file(opts.golden_dir + "/dse_default.json");
  // Set-up: parse the sweep spec (sampled before every job).  The sweep's
  // threads and the speed gauge run on the same pinned CPUs.  The gauge is
  // single-threaded: the sweep's calling thread does most of the work
  // (instantiation), and two gauge threads at once can slow each other down
  // where the sweep is not slowed.
  auto pin = std::make_unique<CpuPin>(worker_threads());
  SpeedGauge gauge(1);
  dse::SweepSpec spec;
  SetupSampler setups(
      [&spec] {
        const auto t0 = Clock::now();
        spec = dse::parse_sweep_spec(dse::builtin_sweep_spec("default"));
        return seconds_since(t0);
      },
      gauge);
  out.env.emplace_back("threads", std::to_string(worker_threads()));
  out.env.emplace_back("repeat", std::to_string(kRepeat));
  out.env.emplace_back("sweep", "builtin default");

  Tracer tracer(opts.trace);
  std::vector<double> job_times, traced_times, untraced_times;  // wall s
  std::vector<double> probe_ms;                                 // wall ms
  std::vector<std::size_t> intervals, probe_intervals;  // gauge intervals
  std::vector<JobOutput> traced_outputs;
  std::vector<Breakdown> breakdowns;
  JobOutput first;
  gauge.sample();
  const auto window = Clock::now();
  for (std::size_t i = 0;
       i < 3 || seconds_since(window) < opts.seconds; ++i) {
    setups.burst(0.02);
    const bool traced = opts.trace && i % 2 == 1;
    Tracer off(false);
    Tracer& t = traced ? tracer : off;
    auto job = t.span("job");
    JobOutput o = sweep_job(spec, t);
    const double secs = job.end();
    const std::size_t interval = gauge.interval();
    gauge.sample();
    ++out.attempted;
    const std::size_t errors_before = out.errors.size();
    check_job(o, golden, out);
    if (out.errors.size() != errors_before) {
      ++out.failed;
    }
    job_times.push_back(secs);
    intervals.push_back(interval);
    (traced ? traced_times : untraced_times).push_back(secs);
    probe_ms.insert(probe_ms.end(), o.probe_ms.begin(), o.probe_ms.end());
    probe_intervals.resize(probe_ms.size(), interval);
    if (i == 0) {
      first = o;
    }
    if (traced) {
      breakdowns.push_back(breakdown_study(spec, tracer));
      traced_outputs.push_back(std::move(o));
    }
  }
  pin.reset();

  out.count("serve.distinct_keys", first.distinct_keys);
  out.count("serve.solves", first.service_solves);
  out.count("markov.solves", first.solver_solves);
  out.count("markov.iterations", first.solver_iterations);
  out.count("compose.pipeline_hits", first.pipeline_hits);
  out.count("compose.generations", first.generations);

  record_jobs(job_times, gauge, out);
  out.env.emplace_back("job_s_wall", json_number(median(job_times)));
  out.env.emplace_back("setup_s_wall", json_number(setups.raw_median()));
  const std::vector<double> scaled_probe_ms =
      gauge.scaled(probe_ms, probe_intervals);
  out.e2e("job_s", median(gauge.scaled(job_times, intervals)), "s");
  out.e2e("op_p99_ms", percentile(scaled_probe_ms, 0.99), "ms");
  out.e2e("setup_s", setups.median(), "s");
  out.e2e("peak_rss_mb", self_peak_rss_mb() - gauge.resident_mb(), "MB");
  out.env.emplace_back("op_samples", std::to_string(probe_ms.size()));
  out.env.emplace_back("op_p50_ms", json_number(median(scaled_probe_ms)));

  if (!opts.trace) {
    return;
  }
  // Medians over the traced jobs (counts are reported from `counts`).
  const auto med = [](const auto& items, auto field) {
    std::vector<double> v;
    for (const auto& x : items) {
      v.push_back(static_cast<double>(field(x)));
    }
    return median(std::move(v));
  };
  const auto& b = breakdowns;
  const auto& t = traced_outputs;
  out.layer("dse.expand_ms", med(b, [](auto& x) { return x.expand_ms; }), "ms");
  out.layer("dse.instantiate_ms",
            med(b, [](auto& x) { return x.instantiate_ms; }), "ms");
  out.layer("analyze.gate_ms", med(b, [](auto& x) { return x.gate_ms; }), "ms");
  out.layer("serve.prepare_ms", med(b, [](auto& x) { return x.prepare_ms; }),
            "ms");
  out.layer("compose.generate_ms",
            med(t, [](auto& x) { return x.generate_ms; }), "ms");
  out.layer("compose.pipeline_hit_ratio",
            static_cast<double>(first.pipeline_hits) /
                static_cast<double>(first.pipeline_hits +
                                    first.pipeline_misses),
            "ratio");
  out.layer("serve.queue_wait_p99_ms",
            med(t, [](auto& x) { return x.service.queue_wait_p99_ms; }), "ms");
  out.layer("serve.solve_p50_ms",
            med(t, [](auto& x) { return x.service.solve_p50_ms; }), "ms");
  out.layer("serve.solve_p99_ms",
            med(t, [](auto& x) { return x.service.solve_p99_ms; }), "ms");
  out.layer("serve.cache_hit_ratio",
            med(t,
                [](auto& x) {
                  return static_cast<double>(x.service.cache_hits) /
                         static_cast<double>(x.service.accepted);
                }),
            "ratio");
  out.layer("serve.coalesced",
            med(t, [](auto& x) { return x.service.coalesced; }), "count");
  out.layer("serve.batched", med(t, [](auto& x) { return x.service.batched; }),
            "count");
  out.layer("markov.solve_ms", med(t, [](auto& x) { return x.solve_ms; }),
            "ms");
  report_trace(tracer, untraced_times, traced_times, out);
  out.trace_json = tracer.to_json();
}

}  // namespace mvbench
