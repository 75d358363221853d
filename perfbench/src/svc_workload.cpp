// svc-mix: udwnd behind its Unix socket, driven by one single-threaded
// client over one connection (see perfbench/README.md).
//
// The request mix is a fixed catalogue — every protocol × {sinr, udg} ×
// {uniform_square, lattice, cluster_chain} × {static, churn, mobility} at
// a few sizes between 32 and 512 nodes — whose order and request seeds come
// from --seed. Before the daemon starts, every catalogue entry is parsed
// (svc::parse_request) and executed in-process (svc::run_trial), giving the
// expected bytes of every trial record; record bytes are pure in
// (request, seed), so every record the daemon streams back must match them
// byte for byte.
//
// Phases: set-up (start the daemon and wait for its first status answer,
// several times), an open loop at a fixed offered rate (latency timed from
// each request's scheduled send), then a closed loop with a fixed number of
// outstanding requests (saturation throughput).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "sim/batch.h"
#include "svc/exec.h"
#include "svc/json.h"
#include "svc/request.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace udwn;

struct SvcSpec {
  /// Open-loop offered rate, requests per second (below saturation).
  double open_rate = 0;
  /// Outstanding requests in the closed loop.
  int closed_outstanding = 4;
  /// Share of --seconds given to the open loop; the closed loop gets the rest.
  double open_share = 0.5;
  /// Catalogue sizes (nodes) of every template, plus one larger size for
  /// the static local_bcast templates (0 = none). Three evenly spread
  /// sizes keep the median latency inside one size class instead of on the
  /// gap between two.
  std::vector<std::size_t> sizes;
  std::size_t large = 0;
  std::uint32_t trials = 2;
  /// Daemon set-ups measured per run (the last one serves the run).
  int setups = 9;
};

SvcSpec svc_spec(bool smoke) {
  if (smoke) return {.open_rate = 40, .sizes = {16}, .setups = 2};
  return {.open_rate = 90, .open_share = 0.6, .sizes = {32, 48, 64}, .large = 512};
}

struct Entry {
  std::string body;  // request members after "id"
  svc::RunRequest request;
  std::vector<svc::TrialRecord> expected;
  double exec_ms_max = 0;  // slowest trial, in-process
};

std::string topology_json(int kind, std::size_t n) {
  // Grid-shaped topologies are rows x cols with cols = 2 rows (n = 2 r^2).
  const auto rows = static_cast<std::size_t>(std::lround(std::sqrt(n / 2.0)));
  const std::size_t cols = std::max<std::size_t>(1, n / std::max<std::size_t>(1, rows));
  char buf[160];
  switch (kind) {
    case 0:
      // Density 16 nodes per unit area: at a few dozen nodes, density 8
      // leaves isolated corner nodes often enough that Bcast never
      // completes.
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"uniform_square\",\"n\":%zu,\"extent\":%.17g}",
                    n, std::sqrt(static_cast<double>(n) / 16.0));
      break;
    case 1:
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"lattice\",\"rows\":%zu,\"cols\":%zu}", rows,
                    cols);
      break;
    default:
      std::snprintf(buf, sizeof buf,
                    "{\"kind\":\"cluster_chain\",\"clusters\":%zu,"
                    "\"per_cluster\":%zu}",
                    rows, cols);
      break;
  }
  return buf;
}

std::vector<Entry> catalogue(const SvcSpec& spec, std::uint64_t seed) {
  static const char* const kProtocols[] = {"local_bcast", "bcast", "decay",
                                           "aloha"};
  static const char* const kModels[] = {"sinr", "udg"};
  static const char* const kDynamics[] = {"{}", "{\"churn_rate\":0.02}",
                                          "{\"mobility_speed\":0.02}"};
  std::vector<Entry> out;
  const auto add = [&](const char* protocol, const char* model, int topo,
                       const char* dynamics, std::size_t n) {
    Entry e;
    // Request seeds are fixed per catalogue slot, so every run offers the
    // same work; --seed only decides the order it arrives in.
    e.body = std::string("\"protocol\":\"") + protocol + "\",\"model\":\"" +
             model + "\",\"topology\":" + topology_json(topo, n) +
             ",\"dynamics\":" + dynamics +
             ",\"trials\":" + std::to_string(spec.trials) +
             ",\"seed\":" + std::to_string(mix_seed(out.size(), 3)) +
             ",\"max_rounds\":50000";
    out.push_back(std::move(e));
  };
  for (const char* protocol : kProtocols)
    for (const char* model : kModels)
      for (int topo = 0; topo < 3; ++topo) {
        for (const char* dynamics : kDynamics)
          for (std::size_t n : spec.sizes) add(protocol, model, topo, dynamics, n);
        // The 512-node tier: LocalBcast on static instances only (larger
        // dynamic, Bcast or baseline instances run for up to seconds and
        // would turn the mix's tail into a handful of requests).
        if (spec.large != 0 && protocol == kProtocols[0])
          add(protocol, model, topo, kDynamics[0], spec.large);
      }
  Rng rng(mix_seed(seed, 4));
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

std::string request_line(const Entry& e, const std::string& id) {
  return "{\"type\":\"run\",\"id\":\"" + id + "\"," + e.body + "}";
}

/// Owns the udwnd child: SIGTERM + wait on stop(), SIGKILL + wait if the
/// run unwinds without stopping it.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  bool start(const std::string& binary, const std::string& socket,
             const std::string& log) {
    std::vector<std::string> args = {binary,      "--socket",
                                     socket,      "--workers",
                                     "2",         "--trial-threads",
                                     "2"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc =
        posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  /// SIGTERM (graceful drain), then wait; true iff it exited 0 in time.
  bool stop(double timeout_s) {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    int status = 0;
    while (true) {
      const pid_t got = ::waitpid(pid_, &status, WNOHANG);
      if (got == pid_) break;
      if (got < 0 || now_ns() > deadline) return false;  // dtor kills
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  [[nodiscard]] int pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { close(); }

  bool connect(const std::string& path) {
    close();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      close();
      return false;
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    in_.clear();
    out_.clear();
  }

  void send(const std::string& line) {
    out_ += line;
    out_ += '\n';
    flush();
  }

  /// Wait up to timeout_ns for input (or writability while output is
  /// pending) and append every complete line received to `lines`. False on
  /// a closed or broken connection.
  bool pump(std::int64_t timeout_ns, std::vector<std::string>& lines) {
    pollfd p{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)),
             0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                      static_cast<long>(timeout_ns % 1000000000)};
    if (::ppoll(&p, 1, &ts, nullptr) < 0 && errno != EINTR) return false;
    if ((p.revents & POLLOUT) != 0) flush();
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[65536];
      while (true) {
        const ssize_t got = ::read(fd_, buf, sizeof buf);
        if (got > 0) {
          in_.append(buf, static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0) return false;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno != EINTR) return false;
      }
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
         start = nl + 1)
      lines.push_back(in_.substr(start, nl - start));
    in_.erase(0, start);
    return true;
  }

 private:
  void flush() {
    while (!out_.empty()) {
      const ssize_t put = ::write(fd_, out_.data(), out_.size());
      if (put > 0) {
        out_.erase(0, static_cast<std::size_t>(put));
      } else if (put < 0 && errno == EINTR) {
        continue;
      } else {
        return;  // EAGAIN: pump() waits for POLLOUT
      }
    }
  }

  int fd_ = -1;
  std::string in_;
  std::string out_;
};

/// Start the daemon and wait until it answers a status request; returns the
/// set-up time in seconds, or nullopt on failure.
std::optional<double> start_daemon(Daemon& d, Connection& c,
                                   const Options& o, const std::string& socket,
                                   const std::string& log) {
  const std::int64_t t0 = now_ns();
  if (!d.start(o.udwnd, socket, log)) return std::nullopt;
  const std::int64_t deadline = t0 + std::int64_t{30} * 1000000000;
  while (!c.connect(socket)) {
    if (now_ns() > deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  c.send("{\"type\":\"status\",\"id\":\"ready\"}");
  std::vector<std::string> lines;
  while (now_ns() < deadline) {
    if (!c.pump(std::int64_t{10} * 1000000, lines)) return std::nullopt;
    for (const std::string& l : lines)
      if (l.find("\"event\":\"status\"") != std::string::npos)
        return static_cast<double>(now_ns() - t0) / 1e9;
  }
  return std::nullopt;
}

struct Pending {
  std::size_t entry = 0;
  bool open_loop = true;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t accepted = 0;
  std::int64_t first_trial = 0;
  std::uint32_t trials_seen = 0;
  double queue_depth = 0;  // as reported by `accepted`
};

struct Totals {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;  // rejected, or any trial not ok
  std::uint64_t byte_mismatches = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t closed_done_in_window = 0;
  std::uint64_t closed_rounds_in_window = 0;
  std::vector<double> open_latency_ms;
  std::vector<double> closed_latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> admit_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> stream_ms;
  std::vector<double> queue_depth;
  std::vector<std::string> first_errors;
};

class Client {
 public:
  Client(Connection& c, const std::vector<Entry>& entries, Totals& t)
      : c_(c), entries_(entries), t_(t) {}

  void send(bool open_loop, std::int64_t due) {
    const std::string id = "q" + std::to_string(next_);
    Pending p;
    p.entry = next_ % entries_.size();
    p.open_loop = open_loop;
    p.due = due;
    p.sent = now_ns();
    ++next_;
    c_.send(request_line(entries_[p.entry], id));
    pending_.emplace(id, p);
    ++t_.sent;
    if (open_loop) t_.lag_ms.push_back(static_cast<double>(p.sent - due) / 1e6);
  }

  /// Pump the connection for at most `timeout_ns`; false if it broke.
  bool pump(std::int64_t timeout_ns) {
    lines_.clear();
    const bool ok = c_.pump(std::max<std::int64_t>(0, timeout_ns), lines_);
    const std::int64_t now = now_ns();
    for (const std::string& line : lines_) handle(line, now);
    return ok;
  }

  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }
  std::int64_t closed_window_end = 0;

 private:
  void error(const std::string& what) {
    ++t_.protocol_errors;
    if (t_.first_errors.size() < 5) t_.first_errors.push_back(what);
  }

  void handle(const std::string& line, std::int64_t now) {
    const std::optional<svc::Json> j = svc::Json::parse(line);
    const svc::Json* id = j ? j->find("id") : nullptr;
    const svc::Json* event = j ? j->find("event") : nullptr;
    if (id == nullptr || event == nullptr || !id->is_string() ||
        !event->is_string())
      return error("unparsable response: " + line.substr(0, 200));
    const auto it = pending_.find(id->as_string());
    if (it == pending_.end()) return;  // e.g. the readiness status answer
    Pending& p = it->second;
    const Entry& e = entries_[p.entry];
    const std::string& ev = event->as_string();
    if (ev == "accepted") {
      p.accepted = now;
      if (const svc::Json* d = j->find("queue_depth"); d && d->is_number())
        p.queue_depth = d->as_double();
    } else if (ev == "trial") {
      if (p.first_trial == 0) p.first_trial = now;
      const svc::Json* k = j->find("trial");
      const auto idx = k != nullptr ? k->as_uint64() : std::nullopt;
      if (!idx || *idx >= e.expected.size()) return error("bad trial line");
      if (line != svc::encode_trial(id->as_string(), e.expected[*idx])) {
        ++t_.byte_mismatches;
        if (t_.first_errors.size() < 5)
          t_.first_errors.push_back("record differs: " + line.substr(0, 200));
      }
      ++p.trials_seen;
    } else if (ev == "rejected") {
      ++t_.failed;
      if (t_.first_errors.size() < 5)
        t_.first_errors.push_back("rejected: " + line.substr(0, 200));
      pending_.erase(it);
    } else if (ev == "summary") {
      const svc::Json* ok = j->find("ok");
      const svc::Json* rounds = j->find("rounds_total");
      const bool all_ok = ok != nullptr && ok->as_uint64() &&
                          *ok->as_uint64() == e.expected.size() &&
                          p.trials_seen == e.expected.size();
      if (!all_ok) {
        ++t_.failed;
        if (t_.first_errors.size() < 5)
          t_.first_errors.push_back("not all trials ok: " + line.substr(0, 200));
      }
      if (p.open_loop) {
        t_.open_latency_ms.push_back(static_cast<double>(now - p.due) / 1e6);
        if (p.accepted != 0) {
          t_.admit_ms.push_back(static_cast<double>(p.accepted - p.sent) / 1e6);
          if (p.first_trial != 0) {
            t_.queue_wait_ms.push_back(std::max(
                0.0, static_cast<double>(p.first_trial - p.accepted) / 1e6 -
                         e.exec_ms_max));
            t_.stream_ms.push_back(
                static_cast<double>(now - p.first_trial) / 1e6);
          }
          t_.queue_depth.push_back(p.queue_depth);
        }
      } else if (now <= closed_window_end) {
        t_.closed_latency_ms.push_back(static_cast<double>(now - p.sent) / 1e6);
        ++t_.closed_done_in_window;
        if (rounds != nullptr && rounds->as_uint64())
          t_.closed_rounds_in_window += *rounds->as_uint64();
      }
      pending_.erase(it);
    }
  }

  Connection& c_;
  const std::vector<Entry>& entries_;
  Totals& t_;
  std::map<std::string, Pending> pending_;
  std::vector<std::string> lines_;
  std::size_t next_ = 0;
};

}  // namespace

Result run_svc_workload(const Options& o) {
  const SvcSpec spec = svc_spec(o.smoke);
  Result r;

  // ---- expected records, in-process ---------------------------------------
  std::vector<Entry> entries = catalogue(spec, o.seed);
  Obs obs(ObsConfig{.events = false});
  std::vector<double> parse_us;
  std::vector<double> exec_ms;
  std::uint64_t replay_rounds = 0;
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a
  for (Entry& e : entries) {
    const std::string line = request_line(e, "");
    const std::int64_t t0 = now_ns();
    svc::ParsedRequest parsed = svc::parse_request(line);
    parse_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (!parsed.ok() || !parsed.run) {
      r.fail("catalogue request rejected in-process: " + line);
      r.attempted = r.failed = 1;
      return r;
    }
    e.request = *parsed.run;
    const std::vector<std::uint64_t> seeds =
        BatchRunner::trial_seeds(e.request.seed, e.request.trials);
    svc::ExecConfig exec;
    exec.round_bound = e.request.max_rounds;
    if (o.trace) exec.obs = &obs;
    for (std::uint32_t k = 0; k < e.request.trials; ++k) {
      const std::int64_t s0 = now_ns();
      svc::TrialRecord rec = svc::run_trial(e.request, exec, seeds[k], k);
      const double ms = static_cast<double>(now_ns() - s0) / 1e6;
      exec_ms.push_back(ms);
      e.exec_ms_max = std::max(e.exec_ms_max, ms);
      if (!rec.all_done) {
        r.fail("catalogue trial does not complete within max_rounds: " + line);
        r.attempted = r.failed = 1;
        return r;
      }
      rec.status = "ok";
      replay_rounds += rec.rounds;
      e.expected.push_back(rec);
      for (const char ch : svc::encode_trial("", rec)) {
        digest ^= static_cast<unsigned char>(ch);
        digest *= 1099511628211ull;
      }
    }
  }
  std::fprintf(stderr, "svc-mix: %zu catalogue entries, replay %.0f ms\n",
               entries.size(), mean(exec_ms) * static_cast<double>(exec_ms.size()));

  // ---- set-up: start the daemon several times ----------------------------
  const std::string socket = o.out_dir + "/udwnd.sock";
  const std::string log = o.out_dir + "/udwnd.log";
  std::ofstream(log, std::ios::trunc).close();  // one run's daemon log
  std::vector<double> setup_s;
  Daemon daemon;
  Connection conn;
  for (int i = 0; i < spec.setups; ++i) {
    if (i != 0) {
      conn.close();
      if (!daemon.stop(30)) {
        r.fail("udwnd did not drain and exit 0 after SIGTERM");
        r.attempted = r.failed = 1;
        return r;
      }
    }
    const std::optional<double> s = start_daemon(daemon, conn, o, socket, log);
    if (!s) {
      r.fail("udwnd did not come up on " + socket + " (see " + log + ")");
      r.attempted = r.failed = 1;
      return r;
    }
    setup_s.push_back(*s);
  }

  // ---- open loop, then closed loop ----------------------------------------
  Totals t;
  Client client(conn, entries, t);
  bool broken = false;
  const std::int64_t open_ns =
      static_cast<std::int64_t>(o.seconds * spec.open_share * 1e9);
  const std::int64_t closed_ns =
      static_cast<std::int64_t>(o.seconds * 1e9) - open_ns;
  const auto period = static_cast<std::int64_t>(1e9 / spec.open_rate);
  const std::int64_t drain_ns = std::int64_t{60} * 1000000000;

  const std::int64_t open_start = now_ns();
  std::int64_t next_due = open_start;
  while (!broken) {
    const std::int64_t now = now_ns();
    if (next_due < open_start + open_ns) {
      if (now >= next_due) {
        client.send(true, next_due);
        next_due += period;
        continue;
      }
      broken = !client.pump(next_due - now);
    } else if (client.outstanding() > 0 && now < open_start + open_ns + drain_ns) {
      broken = !client.pump(std::int64_t{50} * 1000000);
    } else {
      break;
    }
  }
  const std::int64_t open_end = now_ns();

  const std::int64_t closed_start = now_ns();
  client.closed_window_end = closed_start + closed_ns;
  while (!broken) {
    const std::int64_t now = now_ns();
    if (now < client.closed_window_end) {
      while (client.outstanding() <
             static_cast<std::size_t>(spec.closed_outstanding))
        client.send(false, now_ns());
      broken = !client.pump(client.closed_window_end - now);
    } else if (client.outstanding() > 0 &&
               now < client.closed_window_end + drain_ns) {
      broken = !client.pump(std::int64_t{50} * 1000000);
    } else {
      break;
    }
  }
  const double closed_s =
      static_cast<double>(client.closed_window_end - closed_start) / 1e9;

  const double daemon_rss = peak_rss_mb(daemon.pid());
  conn.close();
  if (!daemon.stop(30)) r.fail("udwnd did not drain and exit 0 after SIGTERM");
  ::unlink(socket.c_str());

  if (broken) r.fail("connection to udwnd broke");
  if (client.outstanding() != 0)
    r.fail(std::to_string(client.outstanding()) + " requests never finished");
  if (t.byte_mismatches != 0)
    r.fail(std::to_string(t.byte_mismatches) +
           " trial records differ from the in-process run_trial bytes");
  if (t.protocol_errors != 0) r.fail("malformed responses from udwnd");
  for (const std::string& e : t.first_errors) r.errors.push_back(e);
  if (t.open_latency_ms.empty() || t.closed_done_in_window == 0)
    r.fail("a phase completed no request");
  r.attempted = std::max<std::uint64_t>(1, t.sent);
  r.failed = t.failed + client.outstanding();

  const double sat_rps =
      static_cast<double>(t.closed_done_in_window) / closed_s;
  r.note("digest", json_string(hex64(digest)));
  r.note("catalogue", std::to_string(entries.size()));
  r.note("open_rate_rps", json_number(spec.open_rate));
  r.note("open_requests", std::to_string(t.open_latency_ms.size()));
  r.note("open_phase_s", json_number(static_cast<double>(open_end - open_start) / 1e9));
  r.note("closed_outstanding", std::to_string(spec.closed_outstanding));
  r.note("closed_requests_in_window", std::to_string(t.closed_done_in_window));
  r.note("sat_rps", json_number(sat_rps));
  r.note("gen_lag_p99_ms", json_number(quantile(t.lag_ms, 0.99)));
  r.note("open_p50_ms", json_number(median(t.open_latency_ms)));
  r.note("closed_p99_ms", json_number(quantile(t.closed_latency_ms, 0.99)));
  r.note("tail_quantile", json_number(0.99));
  r.note("fail_ratio",
         json_number(static_cast<double>(r.failed) /
                     static_cast<double>(r.attempted)));

  if (!o.trace) {
    r.metric("setup_s", median(setup_s), "s");
    r.metric("rounds_per_s",
             static_cast<double>(t.closed_rounds_in_window) / closed_s, "1/s");
    // The median comes from the closed loop: the open loop's median request
    // takes ~2 ms, so it moves with sub-millisecond wake-up delays of idle
    // CPUs and swings by ±30% between identical runs, while the closed
    // loop keeps the CPUs busy. The tail comes from the open loop, timed
    // from each request's scheduled send.
    r.metric("p50_ms", median(t.closed_latency_ms), "ms");
    r.metric("tail_ms", quantile(t.open_latency_ms, 0.99), "ms");
    r.metric("peak_rss_mb", daemon_rss, "MiB");
    return r;
  }
  // Per-layer: the service path from outside, plus the engine layers of the
  // in-process replay (its Obs counters and per-round cost).
  const MetricsRegistry& m = obs.metrics();
  const EngineCounterIds& id = obs.ids();
  const auto total = [&](MetricId x) { return static_cast<double>(m.total(x)); };
  const double slots = std::max(1.0, total(id.slots));
  const double rounds = std::max(1.0, total(id.rounds));
  const double hits = total(id.gain_hits);
  const double lookups = hits + total(id.gain_misses);
  r.metric("sim.round_ms.p50",
           mean(exec_ms) * static_cast<double>(exec_ms.size()) /
               std::max<double>(1, static_cast<double>(replay_rounds)),
           "ms");
  r.metric("phy.gain.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  r.metric("phy.gain.fills_per_round", total(id.gain_fills) / rounds, "count");
  r.metric("core.tx_per_slot", total(id.transmissions) / slots, "count");
  r.metric("core.deliveries_per_tx",
           total(id.deliveries) / std::max(1.0, total(id.transmissions)),
           "ratio");
  r.metric("core.collisions_per_slot", total(id.collisions) / slots, "count");
  r.metric("svc.open_p50_ms", median(t.open_latency_ms), "ms");
  r.metric("svc.parse_us", median(parse_us), "us");
  r.metric("svc.admit_ms", median(t.admit_ms), "ms");
  r.metric("svc.queue_wait_ms", median(t.queue_wait_ms), "ms");
  r.metric("svc.exec_ms_per_trial", mean(exec_ms), "ms");
  r.metric("svc.stream_ms", median(t.stream_ms), "ms");
  r.metric("svc.queue_depth", mean(t.queue_depth), "count");
  r.metric("svc.sat_rps", sat_rps, "1/s");
  r.metric("svc.gen_lag_ms", quantile(t.lag_ms, 0.99), "ms");
  r.metric("svc.fail_ratio",
           static_cast<double>(r.failed) / static_cast<double>(r.attempted),
           "ratio");
  return r;
}

}  // namespace perfbench
