#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace mvbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) {
      return static_cast<unsigned>(n);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned worker_threads() { return std::min(2u, nproc()); }

CpuPin::CpuPin(unsigned cpus) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    return;
  }
  cpu_set_t pin;
  CPU_ZERO(&pin);
  unsigned left = cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && left > 0; --cpu) {
    if (CPU_ISSET(cpu, &saved_)) {
      CPU_SET(cpu, &pin);
      --left;
    }
  }
  pinned_ = sched_setaffinity(0, sizeof pin, &pin) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) {
    sched_setaffinity(0, sizeof saved_, &saved_);
  }
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return std::move(os).str();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---- RunResult --------------------------------------------------------------

void RunResult::fail(std::string why) { errors.push_back(std::move(why)); }

void RunResult::expect_count(const std::string& what, std::uint64_t got,
                             std::uint64_t want) {
  if (got != want) {
    fail(what + ": got " + std::to_string(got) + ", want " +
         std::to_string(want));
  }
}

void RunResult::e2e(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::layer(std::string name, double value, std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::count(std::string name, std::uint64_t value) {
  counts.emplace_back(std::move(name), value);
}

// ---- Tracer -----------------------------------------------------------------

namespace {

// Open spans of the calling thread, innermost last (ids into one Tracer;
// the harness uses one tracer per run).
thread_local std::vector<std::size_t> open_spans;

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string name, std::size_t parent)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_->enabled_) {
    id_ = tracer_->open(std::move(name), start_, parent);
    open_spans.push_back(id_);
  }
  open_ = true;
}

Tracer::Span::~Span() {
  if (open_) {
    end();
  }
}

double Tracer::Span::end() {
  const double s = seconds_since(start_);
  if (open_ && tracer_->enabled_) {
    tracer_->close(id_, s);
    if (!open_spans.empty() && open_spans.back() == id_) {
      open_spans.pop_back();
    }
  }
  open_ = false;
  return s;
}

std::size_t Tracer::open(std::string name, Clock::time_point start,
                         std::size_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  Record r;
  r.name = std::move(name);
  r.overlapping = parent != 0;
  r.parent = parent != 0 ? parent : open_spans.empty() ? 0 : open_spans.back();
  r.start_s = std::chrono::duration<double>(start - epoch_).count();
  records_.push_back(std::move(r));
  return records_.size();
}

void Tracer::close(std::size_t id, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  records_[id - 1].seconds = seconds;
}

void Tracer::attribute(const std::string& name, double seconds,
                       std::uint64_t calls, bool overlapping) {
  if (!enabled_ || calls == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Record r;
  r.name = name;
  r.parent = open_spans.empty() ? 0 : open_spans.back();
  r.start_s = seconds_since(epoch_);
  r.seconds = seconds;
  r.calls = calls;
  r.attributed = true;
  r.overlapping = overlapping;
  records_.push_back(std::move(r));
}

std::size_t Tracer::root_of(std::size_t id) const {
  while (records_[id - 1].parent != 0) {
    id = records_[id - 1].parent;
  }
  return id;
}

std::size_t Tracer::roots(std::string_view root) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(), [&](const Record& r) {
        return r.parent == 0 && r.name == root;
      }));
}

std::map<std::string, Tracer::LayerTotals> Tracer::layers(
    std::string_view root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> covered(records_.size() + 1, 0.0);
  for (const Record& r : records_) {
    if (r.parent != 0 && !r.overlapping) {
      covered[r.parent] += r.seconds;
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t id = 1; id <= records_.size(); ++id) {
    const Record& r = records_[id - 1];
    if (r.parent == 0 || records_[root_of(id) - 1].name != root) {
      continue;
    }
    const std::string_view layer = layer_of(r.name);
    LayerTotals& t = out[std::string(layer)];
    t.self_s += std::max(0.0, r.seconds - covered[id]);
    t.calls += r.calls;
    // A span nested inside a span of its own layer is already part of the
    // outer span's total.
    bool nested = false;
    for (std::size_t p = r.parent; p != 0; p = records_[p - 1].parent) {
      nested = nested || layer_of(records_[p - 1].name) == layer;
    }
    if (!nested) {
      t.total_s += r.seconds;
    }
  }
  return out;
}

std::string Tracer::to_json() const {
  const auto summary = [this](std::string_view root) {
    std::string s = "{";
    bool first = true;
    for (const auto& [layer, t] : layers(root)) {
      s += std::string(first ? "" : ", ") + json_string(layer) +
           ": {\"total_s\": " + json_number(t.total_s) +
           ", \"self_s\": " + json_number(t.self_s) +
           ", \"calls\": " + std::to_string(t.calls) + "}";
      first = false;
    }
    return s + "}";
  };
  std::vector<std::string> studies;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Record& r : records_) {
      if (r.parent == 0 && r.name != "job" &&
          std::find(studies.begin(), studies.end(), r.name) == studies.end()) {
        studies.push_back(r.name);
      }
    }
  }
  std::string s = "{\"jobs\": " + summary("job") +
                  ", \"job_count\": " + std::to_string(roots("job")) +
                  ", \"studies\": {";
  for (std::size_t i = 0; i < studies.size(); ++i) {
    s += std::string(i == 0 ? "" : ", ") + json_string(studies[i]) + ": " +
         summary(studies[i]);
  }
  s += "}, \"spans\": [";
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    s += std::string(i == 0 ? "" : ",") + "\n  {\"id\": " +
         std::to_string(i + 1) + ", \"parent\": " + std::to_string(r.parent) +
         ", \"name\": " + json_string(r.name) +
         ", \"start_s\": " + json_number(r.start_s) +
         ", \"seconds\": " + json_number(r.seconds) +
         ", \"calls\": " + std::to_string(r.calls) +
         (r.attributed ? ", \"attributed\": true" : "") +
         (r.overlapping ? ", \"overlapping\": true" : "") + "}";
  }
  return s + "]}";
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "analyze", "proc", "lts",    "explore", "bisim", "compose",
      "mc",      "imc",  "markov", "serve",   "dse"};
  return names;
}

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Inserts @p keys pseudo-random keys into the open-addressing table
/// @p table (a power-of-two size, zeroed here), then probes as many keys
/// again, half of them present.  Returns the number found.
std::uint64_t hash_probe(std::uint64_t* table, std::size_t slots,
                         std::size_t keys) {
  std::fill(table, table + slots, 0);
  const std::size_t mask = slots - 1;
  std::uint64_t x = 1;
  for (std::size_t i = 0; i < keys; ++i) {
    const std::uint64_t key = splitmix64(x) | 1;
    std::size_t at = key & mask;
    while (table[at] != 0 && table[at] != key) {
      at = (at + 1) & mask;
    }
    table[at] = key;
  }
  std::uint64_t found = 0;
  x = 1;
  for (std::size_t i = 0; i < keys; ++i) {
    const std::uint64_t key = splitmix64(x) | (i & 1);
    std::size_t at = key & mask;
    while (table[at] != 0 && table[at] != key) {
      at = (at + 1) & mask;
    }
    found += table[at] == key ? 1 : 0;
  }
  return found;
}

// The reference kernel's buffer: a 32 MiB table (kSparseSlots words).
constexpr std::size_t kSparseSlots = std::size_t{1} << 22;
constexpr std::size_t kDenseSlots = std::size_t{1} << 19;
constexpr std::size_t kSortKeys = std::size_t{1} << 16;

/// The reference kernel, on a buffer of kSparseSlots words: a dense hash
/// table of 4 MiB (half full), a sparse one over all 32 MiB (one key in 32
/// slots, so nearly every access misses the core's caches), and a sort of
/// 512 KiB of keys.  Hashing, random memory access over tens of MiB and
/// sorting are what state-space generation, minimisation and the solvers
/// spend their time on.  Returns a checksum so the work cannot be dropped.
std::uint64_t reference_kernel(std::vector<std::uint64_t>& buffer) {
  std::uint64_t sum = hash_probe(buffer.data(), kDenseSlots, kDenseSlots / 2);
  sum += hash_probe(buffer.data(), kSparseSlots, kSparseSlots / 32);
  std::uint64_t x = sum;
  for (std::size_t i = 0; i < kSortKeys; ++i) {
    buffer[i] = splitmix64(x);
  }
  std::sort(buffer.begin(), buffer.begin() + kSortKeys);
  return sum + buffer[kSortKeys / 2];
}

}  // namespace

SpeedGauge::SpeedGauge(unsigned threads)
    : threads_(threads),
      buffers_(threads, std::vector<std::uint64_t>(kSparseSlots)) {}

void SpeedGauge::sample() {
  std::vector<double> typical(threads_, 0.0);
  std::atomic<std::uint64_t> sink{0};
  const auto gauge = [this, &typical, &sink](unsigned t) {
    std::vector<double> runs;
    for (int run = 0; run < 5; ++run) {
      const auto t0 = Clock::now();
      sink += reference_kernel(buffers_[t]);
      runs.push_back(seconds_since(t0));
    }
    typical[t] = mvbench::median(std::move(runs));
  };
  // Thread 0 is the calling thread, which stays where a single-threaded
  // job ran.
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads_; ++t) {
    pool.emplace_back(gauge, t);
  }
  gauge(0);
  for (std::thread& t : pool) {
    t.join();
  }
  double sum = 0.0;
  for (const double s : typical) {
    sum += s;
  }
  samples_.push_back(sum / static_cast<double>(threads_));
}

double SpeedGauge::resident_mb() const {
  return static_cast<double>(threads_ * kSparseSlots * sizeof(std::uint64_t)) /
         (1024.0 * 1024.0);
}

std::size_t SpeedGauge::interval() const {
  return samples_.empty() ? 0 : samples_.size() - 1;
}

std::vector<double> SpeedGauge::scaled(
    const std::vector<double>& times,
    const std::vector<std::size_t>& intervals) const {
  std::vector<double> out;
  for (std::size_t k = 0; k < times.size(); ++k) {
    const std::size_t i = intervals[k];
    const auto first = samples_.begin() + (i == 0 ? 0 : i - 1);
    const auto last =
        samples_.begin() + std::min(samples_.size(), i + 3);
    out.push_back(first < last
                      ? times[k] * kReferenceSeconds / median({first, last})
                      : times[k]);
  }
  return out;
}

double SpeedGauge::run_factor() const {
  return samples_.empty() ? 1.0 : kReferenceSeconds / mvbench::median(samples_);
}

void SetupSampler::burst(double seconds, std::size_t min_runs) {
  const auto t0 = Clock::now();
  for (std::size_t n = 0; n < min_runs || seconds_since(t0) < seconds; ++n) {
    samples_.push_back(once_());
  }
}

double SetupSampler::median() const {
  return mvbench::median(samples_) * gauge_.run_factor();
}

void record_jobs(const std::vector<double>& job_times, const SpeedGauge& gauge,
                 RunResult& out) {
  std::string samples;
  for (const double s : job_times) {
    samples += (samples.empty() ? "" : " ") + json_number(s);
  }
  out.env.emplace_back("job_s_samples", samples);
  out.env.emplace_back("gauge_threads", std::to_string(gauge.threads()));
  std::string gauged;
  for (const double s : gauge.samples()) {
    gauged += (gauged.empty() ? "" : " ") + json_number(s);
  }
  out.env.emplace_back("gauge_samples", gauged);
}

void report_trace(const Tracer& tracer, const std::vector<double>& untraced,
                  const std::vector<double>& traced, RunResult& out) {
  const double jobs = static_cast<double>(std::max<std::size_t>(
      1, tracer.roots("job")));
  const std::map<std::string, Tracer::LayerTotals> totals =
      tracer.layers("job");
  for (const std::string& layer : layer_names()) {
    const auto it = totals.find(layer);
    const Tracer::LayerTotals t =
        it == totals.end() ? Tracer::LayerTotals{} : it->second;
    out.layer(layer + ".total_ms", 1e3 * t.total_s / jobs, "ms");
    out.layer(layer + ".self_ms", 1e3 * t.self_s / jobs, "ms");
    out.layer(layer + ".calls", static_cast<double>(t.calls) / jobs, "count");
  }
  const double off = median(untraced);
  const double on = median(traced);
  out.layer("trace.job_s_untraced", off, "s");
  out.layer("trace.job_s_traced", on, "s");
  out.layer("trace.overhead_pct", off > 0 ? 100.0 * (on - off) / off : 0.0,
            "%");
}

}  // namespace mvbench
