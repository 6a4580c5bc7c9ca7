// verify-router: functional verification of the FAUST edge router
// noc::router_lts(1, {3,3}) — lint, bounds, generate, strong and branching
// minimisation, then mu-calculus checks (deadlock freedom and can_do on
// every live output port).  One job is one full verification from the
// built program to the minimised LTS plus verdicts.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/bounds.hpp"
#include "bench.hpp"
#include "bisim/branching.hpp"
#include "bisim/strong.hpp"
#include "explore/engine.hpp"
#include "explore/oracle.hpp"
#include "lts/analysis.hpp"
#include "mc/evaluator.hpp"
#include "mc/properties.hpp"
#include "noc/router.hpp"
#include "proc/generator.hpp"

namespace mvbench {

namespace {

using namespace multival;

// Pinned at the commit that defined this benchmark; a change to any of
// them is a change in the verified model, not a speed-up.
constexpr std::uint64_t kStates = 94080;
constexpr std::uint64_t kTransitions = 644000;
constexpr std::uint64_t kStrongBlocks = 94080;
constexpr std::uint64_t kBranchingBlocks = 94080;

const noc::MeshDims kDims{3, 3, 1};
constexpr int kNode = 1;

struct Setup {
  std::shared_ptr<proc::Program> program;
  std::string entry;
  proc::TermPtr root;
  std::vector<std::pair<std::string, mc::FormulaPtr>> properties;
};

Setup build_setup() {
  Setup s;
  s.program = std::make_shared<proc::Program>();
  const noc::RouterPorts ports = noc::default_ports(kDims, kNode);
  s.entry = noc::add_router(*s.program, kDims, kNode, ports);
  s.root = proc::call(s.entry, {});
  s.properties.emplace_back("deadlock_freedom", mc::deadlock_freedom());
  for (const std::string& out :
       {ports.local_out, ports.east_out, ports.west_out, ports.north_out,
        ports.south_out}) {
    if (!out.empty()) {
      s.properties.emplace_back("can_do " + out,
                                mc::can_do(mc::act(out + "*")));
    }
  }
  return s;
}

/// What one verification job produced (checked against the pins).
struct JobOutput {
  std::uint64_t predicted = 0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t strong_blocks = 0;
  std::uint64_t branching_blocks = 0;
  bool lint_clean = false;
  std::vector<std::pair<std::string, bool>> verdicts;
  // Per-step seconds (for the per-layer metrics).
  double lint_s = 0, bounds_s = 0, generate_s = 0, strong_s = 0,
         branching_s = 0, check_s = 0;
};

JobOutput verify_job(const Setup& s, Tracer& tracer) {
  JobOutput o;
  {
    auto span = tracer.span("analyze.lint_program");
    o.lint_clean = analyze::lint_program(*s.program, s.root).clean();
    o.lint_s = span.end();
  }
  {
    auto span = tracer.span("analyze.predicted_states");
    o.predicted = analyze::predicted_states(*s.program, s.root);
    o.bounds_s = span.end();
  }
  lts::Lts raw;
  {
    auto span = tracer.span("proc.generate");
    raw = proc::generate(*s.program, s.entry);
    o.generate_s = span.end();
  }
  lts::Lts l;
  {
    auto span = tracer.span("lts.trim");
    l = lts::trim(raw).lts;
  }
  o.states = l.num_states();
  o.transitions = l.num_transitions();
  {
    auto span = tracer.span("bisim.minimize_strong");
    o.strong_blocks = bisim::minimize_strong(l).quotient.num_states();
    o.strong_s = span.end();
  }
  {
    auto span = tracer.span("bisim.minimize_branching");
    o.branching_blocks = bisim::minimize_branching(l).quotient.num_states();
    o.branching_s = span.end();
  }
  const auto t0 = Clock::now();
  for (const auto& [name, formula] : s.properties) {
    auto span = tracer.span("mc.check");
    o.verdicts.emplace_back(name, mc::check(l, formula));
  }
  o.check_s = seconds_since(t0);
  return o;
}

/// Checks @p o against the pins and against @p first, the run's first job:
/// the predicted bound is not pinned (a tighter sound bound is a gain), but
/// it must be sound and repeat exactly within the run.
void check_job(const JobOutput& o, const JobOutput& first, RunResult& out) {
  out.expect_count("verify-router states", o.states, kStates);
  out.expect_count("verify-router transitions", o.transitions, kTransitions);
  out.expect_count("verify-router strong quotient", o.strong_blocks,
                   kStrongBlocks);
  out.expect_count("verify-router branching quotient", o.branching_blocks,
                   kBranchingBlocks);
  if (o.predicted < o.states) {
    out.fail("verify-router: predicted bound " + std::to_string(o.predicted) +
             " is below the " + std::to_string(o.states) + " states");
  }
  out.expect_count("verify-router predicted states vs the first job",
                   o.predicted, first.predicted);
  if (!o.lint_clean) {
    out.fail("verify-router: lint reported errors");
  }
  for (const auto& [name, holds] : o.verdicts) {
    if (!holds) {
      out.fail("verify-router: " + name + " does not hold");
    }
  }
}

/// explore::explore over proc_oracle on the same program at 1, 2 and 4
/// workers (capped at nproc).  Not on the verify path today; measured so a
/// later change that routes generation through it has a baseline.
void explore_study(const Setup& s, Tracer& tracer, RunResult& out) {
  auto root = tracer.span("study.explore");
  const explore::OraclePtr oracle = explore::proc_oracle(
      std::shared_ptr<const proc::Program>(s.program), s.entry);
  std::vector<std::pair<unsigned, double>> times;
  double dedup_per_state = 0.0;
  for (const unsigned w : {1u, 2u, 4u}) {
    const unsigned workers = std::min(w, nproc());
    explore::ExploreOptions eo;
    eo.workers = workers;
    auto span = tracer.span("explore.explore");
    const explore::ExploreResult r = explore::explore(*oracle, eo);
    times.emplace_back(w, span.end());
    if (w == 1) {
      dedup_per_state = static_cast<double>(r.stats.dedup_hits) /
                        static_cast<double>(r.stats.num_states);
    }
    const std::uint64_t states = lts::trim(r.lts).lts.num_states();
    out.expect_count("explore states (" + std::to_string(w) + " workers)",
                     states, kStates);
  }
  for (const auto& [w, secs] : times) {
    out.layer("explore.w" + std::to_string(w) + "_s", secs, "s");
  }
  out.layer("explore.speedup", times.front().second / times.back().second,
            "x");
  out.layer("explore.dedup_hits_per_state", dedup_per_state, "count");
}

}  // namespace

void run_verify_router(const Options& opts, RunResult& out) {
  // Set-up: build the program and the properties (sampled before every
  // job).  The job is single-threaded, and so is the speed gauge; both run
  // on one pinned CPU.
  auto pin = std::make_unique<CpuPin>(1);
  SpeedGauge gauge(1);
  Setup setup;
  SetupSampler setups(
      [&setup] {
        const auto t0 = Clock::now();
        setup = build_setup();
        return seconds_since(t0);
      },
      gauge);
  out.env.emplace_back("threads", "1");
  out.env.emplace_back("model", "noc::router_lts(1, {3,3})");

  Tracer tracer(opts.trace);
  std::vector<double> job_times, traced_times, untraced_times;  // wall s
  std::vector<std::size_t> intervals;  // gauge interval of each job
  std::vector<JobOutput> outputs;
  gauge.sample();
  const auto window = Clock::now();
  // At least three jobs, so the median has a middle.
  for (std::size_t i = 0;
       i < 3 || seconds_since(window) < opts.seconds; ++i) {
    // Traced runs alternate untraced and traced jobs: the difference of
    // their medians is the tracing overhead.
    setups.burst(0.02);
    const bool traced = opts.trace && i % 2 == 1;
    Tracer off(false);
    Tracer& t = traced ? tracer : off;
    auto job = t.span("job");
    JobOutput o = verify_job(setup, t);
    const double secs = job.end();
    intervals.push_back(gauge.interval());
    gauge.sample();
    ++out.attempted;
    const std::size_t errors_before = out.errors.size();
    check_job(o, outputs.empty() ? o : outputs.front(), out);
    if (out.errors.size() != errors_before) {
      ++out.failed;
    }
    job_times.push_back(secs);
    (traced ? traced_times : untraced_times).push_back(secs);
    outputs.push_back(std::move(o));
  }
  pin.reset();

  const JobOutput& first = outputs.front();
  out.count("proc.states", first.states);
  out.count("proc.transitions", first.transitions);
  out.count("bisim.blocks_strong", first.strong_blocks);
  out.count("bisim.blocks_branching", first.branching_blocks);
  out.count("analyze.predicted_states", first.predicted);

  record_jobs(job_times, gauge, out);
  const std::vector<double> scaled_times = gauge.scaled(job_times, intervals);
  out.env.emplace_back("job_s_wall", json_number(median(job_times)));
  out.env.emplace_back("setup_s_wall", json_number(setups.raw_median()));
  out.env.emplace_back("op_p50_ms", json_number(1e3 * median(scaled_times)));
  out.e2e("job_s", median(scaled_times), "s");
  out.e2e("op_p99_ms", 1e3 * percentile(scaled_times, 0.99), "ms");
  out.e2e("setup_s", setups.median(), "s");
  out.e2e("peak_rss_mb", self_peak_rss_mb() - gauge.resident_mb(), "MB");

  if (!opts.trace) {
    return;
  }
  const auto med = [&outputs](double JobOutput::*field) {
    std::vector<double> v;
    for (const JobOutput& o : outputs) {
      v.push_back(o.*field);
    }
    return median(std::move(v));
  };
  const double generate_s = med(&JobOutput::generate_s);
  out.layer("proc.generate_s", generate_s, "s");
  out.layer("proc.states_per_s", static_cast<double>(first.states) / generate_s,
            "1/s");
  out.layer("bisim.strong_s", med(&JobOutput::strong_s), "s");
  out.layer("bisim.branching_s", med(&JobOutput::branching_s), "s");
  out.layer("mc.check_ms", 1e3 * med(&JobOutput::check_s), "ms");
  out.layer("analyze.lint_ms", 1e3 * med(&JobOutput::lint_s), "ms");
  out.layer("analyze.bounds_ms", 1e3 * med(&JobOutput::bounds_s), "ms");
  out.layer("analyze.bound_ratio",
            static_cast<double>(first.predicted) /
                static_cast<double>(first.states),
            "ratio");
  report_trace(tracer, untraced_times, traced_times, out);
  explore_study(setup, tracer, out);
  out.trace_json = tracer.to_json();
}

}  // namespace mvbench
