// serve-ctmc: a separate `multival_cli serve` process on a Unix socket with
// -j worker_threads(), driven in a closed loop from this process over as
// many connections.  Each connection is a serve::Client with one request
// outstanding, like the dse drivers and CI clients that call the server:
// it takes the next request of the round, sends it and waits for the
// reply.
//
// Traffic comes in rounds of 48 requests generated from the seed: 24 fresh
// ones (`throughput`, `reach <t>` and `bounds` on xSTream-shaped tandems of
// bounded queues of about 1k-4k states, `check` on case-study LTSs built at
// set-up) and 24 that repeat an earlier model: 12 exact repeats of the
// previous round (cache hits), 4 duplicates (coalescing) and 8 requests on
// the same model with another argument (the batch path).  A duplicate or
// variant comes right after its original, so another connection sends it
// while the original is in flight.  Sizes and the split over verbs are
// stratified, so every round carries the same spread of work.  One job is
// one round.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "core/report.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/solvers.hpp"
#include "serve_mix.hpp"

extern char** environ;

namespace mvbench {

namespace {

using namespace multival;

class ServerProcess {
 public:
  ServerProcess(const Options& opts, const std::string& socket,
                unsigned workers)
      : socket_(socket) {
    const std::string log = opts.out_dir + "/serve-ctmc-server.log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<std::string> args = {opts.cli,  "serve", "--socket", socket,
                                     "-j",      std::to_string(workers),
                                     "--queue", "4096"};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, opts.cli.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot start " + opts.cli);
    }
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      ::unlink(socket_.c_str());
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int pid() const { return pid_; }

  /// Sends shutdown and waits for a clean exit (killed after 30 s).
  bool shutdown() {
    bool clean = false;
    try {
      serve::Client c(socket_);
      serve::Request r;
      r.verb = serve::Verb::kShutdown;
      clean = c.call(r).status == serve::Status::kOk;
    } catch (const std::exception&) {
      clean = false;
    }
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 30.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        clean = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
    return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

struct Reply {
  serve::Status status = serve::Status::kError;  ///< kError until answered
  std::string body;
  double ms = 0.0;
};

struct Connected {
  std::unique_ptr<ServerProcess> server;
  /// One per load thread; reset when a call throws (the connection is
  /// unusable afterwards).
  std::vector<std::unique_ptr<serve::Client>> clients;
};

Connected start_and_connect(const Options& opts, const std::string& socket,
                            unsigned connections) {
  Connected c;
  c.server = std::make_unique<ServerProcess>(opts, socket, worker_threads());
  // Wait until the server answers, then open the load connections.
  serve::Client ready(socket, std::chrono::milliseconds(20000));
  serve::Request ping;
  ping.verb = serve::Verb::kPing;
  if (ready.call(ping).status != serve::Status::kOk) {
    throw std::runtime_error("serve-ctmc: ping failed");
  }
  for (unsigned i = 0; i < connections; ++i) {
    c.clients.push_back(std::make_unique<serve::Client>(socket));
  }
  return c;
}

/// The server's stats --json object.
std::string server_stats(const std::string& socket) {
  serve::Client client(socket);
  serve::Request r;
  r.verb = serve::Verb::kStats;
  r.arg = "json";
  return client.call(r).body;
}

double json_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error("serve-ctmc: stats lack " + key);
  }
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/// Runs one round through the connections; returns its wall seconds.  A
/// request that got no reply keeps status kError.
double run_round(const std::vector<serve::Request>& round, Connected& conn,
                 std::vector<Reply>& replies, Tracer& tracer) {
  replies.assign(round.size(), Reply{});
  std::atomic<std::size_t> next{0};
  auto job = tracer.span("job");
  const std::size_t job_id = job.id();
  std::vector<std::thread> threads;
  for (std::unique_ptr<serve::Client>& c : conn.clients) {
    threads.emplace_back([&, &client = c] {
      for (std::size_t i = next.fetch_add(1); client && i < round.size();
           i = next.fetch_add(1)) {
        auto span = tracer.span("serve.call", job_id);
        const auto t0 = Clock::now();
        try {
          serve::Response response = client->call(round[i]);
          replies[i].status = response.status;
          replies[i].body = std::move(response.body);
        } catch (const std::exception&) {
          client.reset();
        }
        replies[i].ms = 1e3 * seconds_since(t0);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return job.end();
}

/// In-process reference answers, one per distinct key.
struct Reference {
  serve::Request request;
  std::string body;
};

/// Solves @p refs in process on @p threads threads (serve::solve_request
/// is the reference every served body must equal byte for byte).
void solve_references(std::vector<Reference*>& refs, unsigned threads) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < refs.size();
           i = next.fetch_add(1)) {
        refs[i]->body = serve::solve_request(refs[i]->request);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

std::string_view solver_span(serve::Verb verb) {
  switch (verb) {
    case serve::Verb::kThroughput:
      return "markov.steady";
    case serve::Verb::kReach:
      return "markov.transient";
    case serve::Verb::kBounds:
      return "imc.bounds";
    default:
      return "mc.evaluate";
  }
}

}  // namespace

void run_serve_ctmc(const Options& opts, RunResult& out) {
  const unsigned connections = worker_threads();
  out.env.emplace_back("server_workers", std::to_string(worker_threads()));
  out.env.emplace_back("connections", std::to_string(connections));
  out.env.emplace_back("loop", "closed, one request outstanding per connection");

  // Set-up: the case-study LTSs and the first round's payloads, a server
  // process and its connections.  Repeated; the last server is kept.  The
  // gauge runs as many kernels at once as the server has workers.  The
  // server, the load threads and the gauge run on the same pinned CPUs
  // until the server has shut down.
  auto pin = std::make_unique<CpuPin>(worker_threads());
  SpeedGauge gauge(worker_threads());
  std::vector<CheckModel> checks;
  std::vector<std::vector<serve::Request>> rounds;
  Connected conn;
  std::string socket;
  int started = 0;
  SetupSampler setups([&] {
    if (conn.server) {
      conn.clients.clear();
      if (!conn.server->shutdown()) {
        out.fail("serve-ctmc: server did not shut down cleanly");
      }
    }
    socket = opts.out_dir + "/serve-" + std::to_string(::getpid()) + "-" +
             std::to_string(started++) + ".sock";
    const auto t0 = Clock::now();
    checks = build_check_models();
    rounds = {make_round(opts.seed, 0, checks)};
    conn = start_and_connect(opts, socket, connections);
    return seconds_since(t0);
  }, gauge);
  gauge.sample();
  setups.burst(0.5, 3);
  gauge.sample();

  Tracer tracer(opts.trace);
  std::vector<double> job_times, traced_times, untraced_times;  // wall s
  std::vector<double> latencies;                                // wall ms
  std::vector<std::size_t> intervals, latency_intervals;  // gauge intervals
  std::vector<std::vector<Reply>> replies;
  // The server's cache grows with every round, so its peak RSS is read
  // after a fixed number of rounds, not after as many as fit the window.
  constexpr std::size_t kRssRounds = 8;
  double server_rss = 0.0;
  const auto window = Clock::now();
  for (std::size_t i = 0;
       i < kRssRounds || seconds_since(window) < opts.seconds; ++i) {
    if (i == rounds.size()) {
      rounds.push_back(make_round(opts.seed, i, checks));
    }
    const bool traced = opts.trace && i % 2 == 1;
    Tracer off(false);
    replies.emplace_back();
    const double secs =
        run_round(rounds[i], conn, replies.back(), traced ? tracer : off);
    intervals.push_back(gauge.interval());
    gauge.sample();
    job_times.push_back(secs);
    (traced ? traced_times : untraced_times).push_back(secs);
    for (const Reply& r : replies.back()) {
      latencies.push_back(r.ms);
    }
    latency_intervals.resize(latencies.size(), intervals.back());
    if (i + 1 == kRssRounds) {
      server_rss = process_peak_rss_mb(conn.server->pid());
    }
  }

  const std::string stats = server_stats(socket);
  conn.clients.clear();
  if (!conn.server->shutdown()) {
    out.fail("serve-ctmc: server did not shut down cleanly");
  }
  pin.reset();

  // Check every body against the in-process solve of its request.  Round 0
  // is solved on this thread (traced on traced runs: the per-solver
  // breakdown), then once more on nproc threads to check that its bodies
  // and solver iterations repeat; later rounds are solved on nproc threads.
  core::clear_solve_log();
  std::unordered_map<serve::CacheKey, Reference, serve::CacheKeyHash> refs;
  std::vector<std::vector<serve::CacheKey>> keys(rounds.size());
  std::vector<Reference*> round0, later;
  std::map<std::string, std::vector<double>> solver_ms;
  std::vector<double> decode_ms;
  // Keys every request of round @p i, and solves the fresh ones of round 0.
  const auto index_round = [&](std::size_t i) {
    for (const serve::Request& request : rounds[i]) {
      const auto t0 = Clock::now();
      serve::Prepared prepared = serve::prepare_request(request);
      if (i == 0) {
        decode_ms.push_back(1e3 * seconds_since(t0));
        tracer.attribute("serve.prepare_request", decode_ms.back() / 1e3, 1,
                         false);
      }
      keys[i].push_back(prepared.key);
      auto [it, fresh] = refs.try_emplace(prepared.key);
      if (!fresh) {
        continue;
      }
      it->second.request = request;
      if (i != 0) {
        later.push_back(&it->second);
        continue;
      }
      round0.push_back(&it->second);
      const std::string name(solver_span(request.verb));
      auto span = tracer.span(name);
      it->second.body = prepared.run();
      solver_ms[name].push_back(1e3 * span.end());
    }
  };
  {
    auto study = tracer.span("study.serve_replay");
    index_round(0);
  }
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    index_round(i);
  }
  const auto logged_iterations = [] {
    std::uint64_t n = 0;
    for (const core::SolveStat& s : core::solve_log()) {
      n += s.iterations;
    }
    return n;
  };
  const std::uint64_t round0_iterations = logged_iterations();
  std::vector<Reference> again(round0.size());
  std::vector<Reference*> again_ptrs;
  for (std::size_t i = 0; i < round0.size(); ++i) {
    again[i].request = round0[i]->request;
    again_ptrs.push_back(&again[i]);
  }
  core::clear_solve_log();
  solve_references(again_ptrs, nproc());
  out.expect_count("serve-ctmc round 0 solver iterations, solved again",
                   logged_iterations(), round0_iterations);
  for (std::size_t i = 0; i < again.size(); ++i) {
    if (again[i].body != round0[i]->body) {
      out.fail("serve-ctmc: a round-0 body changed when solved again");
      break;
    }
  }
  solve_references(later, nproc());

  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    for (std::size_t j = 0; j < rounds[i].size(); ++j) {
      const Reply& reply = replies[i][j];
      ++out.attempted;
      if (reply.status != serve::Status::kOk ||
          reply.body != refs.at(keys[i][j]).body) {
        ++failed;
      }
    }
  }
  out.failed = failed;
  if (failed != 0) {
    out.fail("serve-ctmc: " + std::to_string(failed) +
             " replies failed or differ from serve::solve_request");
  }
  const auto solves = static_cast<std::uint64_t>(json_field(stats, "solves"));
  out.expect_count("serve-ctmc server solves vs distinct keys", solves,
                   refs.size());

  // Round 0 is the same on every run with this seed; the window's totals
  // depend on how many rounds fitted.
  out.count("serve.distinct_keys", round0.size());
  out.count("markov.iterations", round0_iterations);
  out.env.emplace_back("window_distinct_keys", std::to_string(refs.size()));
  out.env.emplace_back("window_solves", std::to_string(solves));
  out.env.emplace_back("rounds", std::to_string(rounds.size()));
  const std::vector<double> scaled_times = gauge.scaled(job_times, intervals);
  const std::vector<double> scaled_latencies =
      gauge.scaled(latencies, latency_intervals);
  out.env.emplace_back("op_samples", std::to_string(latencies.size()));
  out.env.emplace_back("op_p50_ms", json_number(median(scaled_latencies)));
  double busy_s = 0.0;
  for (const double s : scaled_times) {
    busy_s += s;
  }
  out.env.emplace_back(
      "req_per_s",
      json_number(static_cast<double>(latencies.size()) / busy_s));

  record_jobs(job_times, gauge, out);
  out.env.emplace_back("job_s_wall", json_number(median(job_times)));
  out.env.emplace_back("setup_s_wall", json_number(setups.raw_median()));
  out.e2e("job_s", median(scaled_times), "s");
  out.e2e("op_p99_ms", percentile(scaled_latencies, 0.99), "ms");
  out.e2e("setup_s", setups.median(), "s");
  out.e2e("peak_rss_mb", server_rss, "MB");

  if (!opts.trace) {
    return;
  }
  // Server-side numbers are wall times, so the client side is too here.
  const double accepted = json_field(stats, "accepted");
  out.layer("serve.rtt_overhead_p50_ms",
            median(latencies) - json_field(stats, "latency_p50_ms"), "ms");
  out.layer("serve.queue_wait_p99_ms", json_field(stats, "queue_wait_p99_ms"),
            "ms");
  out.layer("serve.solve_p50_ms", json_field(stats, "solve_p50_ms"), "ms");
  out.layer("serve.solve_p99_ms", json_field(stats, "solve_p99_ms"), "ms");
  out.layer("serve.cache_hit_ratio", json_field(stats, "cache_hits") / accepted,
            "ratio");
  out.layer("serve.coalesced", json_field(stats, "coalesced"), "count");
  out.layer("serve.batched", json_field(stats, "batched"), "count");
  out.layer("serve.solves", static_cast<double>(solves), "count");
  out.layer("serve.decode_ms", median(decode_ms), "ms");
  out.layer("markov.steady_ms", median(solver_ms["markov.steady"]), "ms");
  out.layer("markov.transient_ms", median(solver_ms["markov.transient"]), "ms");
  out.layer("imc.bounds_ms", median(solver_ms["imc.bounds"]), "ms");
  out.layer("mc.evaluate_ms", median(solver_ms["mc.evaluate"]), "ms");
  report_trace(tracer, untraced_times, traced_times, out);
  out.trace_json = tracer.to_json();
}

}  // namespace mvbench
