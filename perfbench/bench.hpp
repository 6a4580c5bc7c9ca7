// Shared pieces of the mvbench harness: run options, the result record every
// workload fills in, timing helpers and the span tracer of the traced run.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mvbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Median of @p v (mean of the two middle values for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1]; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Online CPUs available to this process (what `nproc` prints).
[[nodiscard]] unsigned nproc();

/// Worker threads of the multi-threaded workloads (the dse-sweep service,
/// the serve-ctmc server and its connections): nproc, capped at 2.  On a
/// shared host, a run that keeps every vCPU busy measures the scheduler and
/// the other tenants more than the program.
[[nodiscard]] unsigned worker_threads();

/// Restricts the calling thread, and the threads and processes it starts
/// from then on, to the last @p cpus CPUs it may run on, until destroyed.
/// On a shared host one vCPU can run 50% slower than another at the same
/// moment; pinned, the jobs and the speed gauge (below) run on the same
/// vCPUs, so the gauge measures the speed the jobs got.
class CpuPin {
 public:
  explicit CpuPin(unsigned cpus);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Peak resident set (VmHWM) of process @p pid, in MiB; 0 if unreadable.
[[nodiscard]] double process_peak_rss_mb(int pid);

[[nodiscard]] std::string read_file(const std::string& path);

/// Round-trip formatting of a double for JSON output ("%.17g").
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(std::string_view s);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;         ///< multival_cli binary (serve-ctmc server)
  std::string golden_dir;  ///< pinned reference outputs
  std::string out_dir;     ///< results, traces, socket and server log
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.  A workload records its end-to-end metrics
/// on every run and its per-layer metrics on traced runs; any per-layer
/// metric a workload does not exercise is reported as 0 by the caller.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks, in order
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Deterministic, machine-independent work counters (same code and seed
  /// => same values); checked inside the run and written to the results.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  /// Threads and connections used, and other run parameters.
  std::vector<std::pair<std::string, std::string>> env;
  /// Per-layer span summary and raw spans of the traced run (JSON), empty
  /// on untraced runs.
  std::string trace_json;

  [[nodiscard]] bool correct() const { return errors.empty(); }
  /// Records a failed output check (the run is then not correct).
  void fail(std::string why);
  /// Checks @p got == @p want for a pinned count.
  void expect_count(const std::string& what, std::uint64_t got,
                    std::uint64_t want);
  void e2e(std::string name, double value, std::string unit);
  void layer(std::string name, double value, std::string unit);
  void count(std::string name, std::uint64_t value);
};

// ---- tracing ----------------------------------------------------------------
//
// Spans are recorded by the harness around each call it makes into a
// layer's public functions; a span's layer is its name up to the first '.'
// ("proc.generate" -> "proc").  Spans nest per thread.  Work that a layer
// reports through the program's own logs (core::generation_log,
// core::solve_log) is added as an *attributed* child of the open span:
// sequential attributions (same thread, inside the span) are subtracted from
// the parent's self time, overlapping ones (worker threads) are not.  Spans
// opened on another thread under an explicit parent overlap it the same way.
//
// Only spans under a root named "job" feed the per-job layer summary; other
// roots ("study.*") are one-off measurements kept in the trace file.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    /// @p parent 0 = the innermost open span of this thread; otherwise a
    /// span of another thread, which this one overlaps.
    Span(Tracer* tracer, std::string name, std::size_t parent = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Closes the span now; returns its duration in seconds.
    double end();
    /// Record id (0 when the tracer is disabled).
    [[nodiscard]] std::size_t id() const { return id_; }

   private:
    Tracer* tracer_;
    std::size_t id_ = 0;
    Clock::time_point start_;
    bool open_ = false;
  };

  [[nodiscard]] Span span(std::string name, std::size_t parent = 0) {
    return Span(this, std::move(name), parent);
  }

  /// Adds a child of the innermost open span on this thread that took
  /// @p seconds in total over @p calls calls (see the class comment).
  void attribute(const std::string& name, double seconds, std::uint64_t calls,
                 bool overlapping);

  struct LayerTotals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t calls = 0;
  };
  /// Per-layer totals over the spans below roots named @p root.
  [[nodiscard]] std::map<std::string, LayerTotals> layers(
      std::string_view root) const;
  /// Number of roots named @p root.
  [[nodiscard]] std::size_t roots(std::string_view root) const;

  /// {"jobs": {...per layer...}, "studies": {...}, "spans": [...]}.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Record {
    std::string name;
    std::size_t parent = 0;  ///< 0 = root; ids are 1-based
    double start_s = 0.0;    ///< relative to the tracer's creation
    double seconds = 0.0;
    std::uint64_t calls = 1;
    bool attributed = false;
    bool overlapping = false;
  };

  std::size_t open(std::string name, Clock::time_point start,
                   std::size_t parent);
  void close(std::size_t id, double seconds);
  [[nodiscard]] std::size_t root_of(std::size_t id) const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Layers of the repository, in the order they are reported.
[[nodiscard]] const std::vector<std::string>& layer_names();

// ---- host speed -------------------------------------------------------------
//
// A shared or virtualised host can run the same code two times slower for
// minutes at a time, as other tenants come and go.  So every end-to-end
// timing the benchmark reports is scaled to a reference speed.  Between
// jobs the harness runs a fixed reference kernel (hash tables and a sort of
// its own, no repository code) on as many threads at once as a job keeps
// busy.  A job's time is multiplied by kReferenceSeconds over the median of
// the four kernel samples nearest to it, two before and two after: near
// enough to follow the host, and more than one so that one outlying sample
// does not move the job.  A change to the repository leaves the kernel
// alone, so the scaled times move with the program and not with the host.
// The raw wall times are kept in the results file.

/// The reference kernel's time at the reference speed: its median on the
/// 4-vCPU Xeon KVM guest (2.1 GHz, gcc 12.2, -O2) the benchmark was
/// written on.
inline constexpr double kReferenceSeconds = 0.028;

class SpeedGauge {
 public:
  /// @p threads kernels run at once in every sample.
  explicit SpeedGauge(unsigned threads);
  /// Runs the kernel on every thread at once (five times, keeping each
  /// thread's median run) and records the mean time.  Call it before the
  /// first job and after every job: interval i lies between samples i and
  /// i + 1.
  void sample();
  /// The interval a time measured now falls into.
  [[nodiscard]] std::size_t interval() const;
  /// @p times at the reference speed, once the run's samples are all in:
  /// times[k], measured in interval intervals[k], is multiplied by
  /// kReferenceSeconds over the median of samples i - 1 to i + 2 (fewer at
  /// the ends of the run).
  [[nodiscard]] std::vector<double> scaled(
      const std::vector<double>& times,
      const std::vector<std::size_t>& intervals) const;
  /// kReferenceSeconds over the median of all samples.
  [[nodiscard]] double run_factor() const;
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }
  [[nodiscard]] unsigned threads() const { return threads_; }
  /// The kernel buffers, resident from construction on, in MiB.  A
  /// workload that reports its own peak RSS subtracts them.
  [[nodiscard]] double resident_mb() const;

 private:
  unsigned threads_;
  /// One kernel buffer per thread, allocated once: a kernel run then
  /// takes no page faults.
  std::vector<std::vector<std::uint64_t>> buffers_;
  std::vector<double> samples_;
};

/// Times a workload's set-up (a function that returns its own duration in
/// seconds) in bursts spread over the run.  The reported set-up time is
/// the median of all samples scaled by the gauge's median over the whole
/// run: set-up samples are short and a burst can sit next to a single
/// outlying gauge sample.
class SetupSampler {
 public:
  SetupSampler(std::function<double()> once, const SpeedGauge& gauge)
      : once_(std::move(once)), gauge_(gauge) {}
  /// Runs the set-up again and again for at least @p seconds, and at least
  /// @p min_runs times.
  void burst(double seconds, std::size_t min_runs = 1);
  /// Median of the samples, at the reference speed.
  [[nodiscard]] double median() const;
  /// Median of the wall-clock samples.
  [[nodiscard]] double raw_median() const {
    return mvbench::median(samples_);
  }

 private:
  std::function<double()> once_;
  const SpeedGauge& gauge_;
  std::vector<double> samples_;
};

/// Records the per-job wall times of the run and the gauge samples
/// (environment entries "job_s_samples", "gauge_threads" and
/// "gauge_samples", in run order).
void record_jobs(const std::vector<double>& job_times, const SpeedGauge& gauge,
                 RunResult& out);

/// Adds, for every layer, its total time, self time and calls per traced
/// job (spans under "job" roots), and the tracing overhead: the medians of
/// the untraced and traced jobs of the run and their relative difference.
void report_trace(const Tracer& tracer, const std::vector<double>& untraced,
                  const std::vector<double>& traced, RunResult& out);

// ---- workloads --------------------------------------------------------------

void run_verify_router(const Options& opts, RunResult& out);
void run_dse_sweep(const Options& opts, RunResult& out);
void run_serve_ctmc(const Options& opts, RunResult& out);

}  // namespace mvbench
