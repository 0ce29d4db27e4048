// The serve-mix workload: a spawned cqad driven over loopback with the v1
// JSON codec. Three request classes: light (Q19_H Natural, a cache hit),
// heavy (Q8_H KL, a cache hit with ~300 answers) and miss (Q12_H Natural
// with one variable renamed per request, so every request misses the
// synopsis cache and preprocesses).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "cqa/apx_cqa.h"
#include "gen/tpch.h"
#include "gen/workloads.h"
#include "query/parser.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "storage/tbl_io.h"
#include "storage/tuple.h"

namespace perfbench {

namespace {

using cqa::serve::CqaClient;
using cqa::serve::Request;
using cqa::serve::Response;
using cqa::serve::WireCodec;

enum Class { kLight = 0, kHeavy = 1, kMiss = 2 };
constexpr const char* kClassNames[] = {"light", "heavy", "miss"};

// Share of each class in the request stream, by count.
constexpr double kLightShare = 0.80;
constexpr double kHeavyShare = 0.15;

// Open-loop validity limit on the share of one core the generator itself
// keeps busy. A loopback client pays two socket syscalls and a timed
// sleep per request (~80 us of CPU, more than the light class's ~42 us of
// server time), so the limit is on the generator's load, not on that
// per-request cost. The generator has fallen behind when its p99
// lateness exceeds one mean inter-arrival time.
constexpr double kMaxGeneratorBusy = 0.05;

// ---------------------------------------------------------------- cqad --

// A spawned cqad; the destructor stops it and waits for it to exit.
class Cqad {
 public:
  Cqad() = default;
  ~Cqad() { Stop(); }
  Cqad(const Cqad&) = delete;
  Cqad& operator=(const Cqad&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  // Spawns cqad and waits for its "cqad listening on HOST:PORT" line.
  bool Start(const RunConfig& config, std::string* error) {
    Stop();
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    std::vector<std::string> args = {config.cqad, "--port=0"};
    args.insert(args.end(), config.cqad_flags.begin(),
                config.cqad_flags.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Only async-signal-safe calls until exec. cqad dies with the
      // benchmark, so a killed run leaves no server behind.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    if (pid < 0) {
      ::close(pipe_fds[0]);
      *error = "cannot spawn " + config.cqad;
      return false;
    }
    pid_ = pid;
    std::string line;
    const double deadline = Now() + 30.0;
    while (line.find('\n') == std::string::npos && Now() < deadline) {
      pollfd p{pipe_fds[0], POLLIN, 0};
      if (::poll(&p, 1, 200) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(pipe_fds[0], buf, sizeof(buf));
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    // cqad's later lines go to a closed pipe; it ignores SIGPIPE.
    ::close(pipe_fds[0]);
    const size_t colon = line.rfind(':', line.find('\n'));
    if (line.rfind("cqad listening on ", 0) != 0 ||
        colon == std::string::npos) {
      *error = "cqad did not start: " + line;
      Stop();
      return false;
    }
    port_ = std::atoi(line.c_str() + colon + 1);
    return true;
  }

  // SIGTERM (cqad drains), then SIGKILL if it has not exited in 20 s.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const double deadline = Now() + 20.0;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// ------------------------------------------------------- request stream --

struct Mix {
  std::string data_dir;
  std::string light, heavy, miss;  // Query texts.
  uint64_t seed = 1;
  size_t renames = 0;  // Miss requests issued so far (unique cache keys).

  // Renames the orders atom's customer-key variable, which is neither an
  // answer variable nor a join variable: same work, new cache key.
  std::string MissQuery() {
    const std::string fresh = "CK" + std::to_string(seed) + "R" +
                              std::to_string(renames++);
    std::string q = miss;
    const size_t at = q.find(", CK, ");
    return q.replace(at + 2, 2, fresh);
  }

  Request Make(Class cls, uint64_t index) {
    Request r;
    r.id = std::to_string(index);
    r.schema = "tpch";
    r.data = data_dir;
    r.threads = 1;
    r.deadline_s = 60.0;
    r.seed = cqa::SplitMix64(seed * 7919ULL + index);
    switch (cls) {
      case kLight:
        r.query = light;
        r.scheme = "Natural";
        break;
      case kHeavy:
        r.query = heavy;
        r.scheme = "KL";
        break;
      case kMiss:
        r.query = MissQuery();
        r.scheme = "Natural";
        break;
    }
    return r;
  }
};

struct Stream {
  std::vector<Request> requests;
  std::vector<Class> classes;
};

// A stream of n requests with exactly the mix's class shares, in seeded
// random order, so every pass or loop does the same amount of work.
Stream MakeStream(Mix* mix, cqa::Rng& rng, size_t n, uint64_t first_index) {
  Stream s;
  const size_t light = static_cast<size_t>(std::lround(kLightShare * n));
  const size_t heavy = static_cast<size_t>(std::lround(kHeavyShare * n));
  for (size_t i = 0; i < n; ++i) {
    s.classes.push_back(i < light ? kLight : (i < light + heavy ? kHeavy : kMiss));
  }
  rng.Shuffle(s.classes);
  for (size_t i = 0; i < n; ++i) {
    s.requests.push_back(mix->Make(s.classes[i], first_index + i));
  }
  return s;
}

// ------------------------------------------------------------ checking --

// In-process reference for the three classes: the preprocessing answer
// sets, and the exact scheme output for a given request seed.
struct Reference {
  const cqa::PreprocessResult* pre[3] = {nullptr, nullptr, nullptr};
  std::vector<std::string> tuples[3];

  void Init(Class cls, const cqa::PreprocessResult* p) {
    pre[cls] = p;
    for (const cqa::AnswerSynopsis& as : p->answers()) {
      tuples[cls].push_back(cqa::TupleToString(as.answer));
    }
  }
};

// Response-level check every response gets: ok, the preprocessing answer
// set in order, estimates in (0, 1].
bool CheckResponse(const Reference& ref, Class cls, const Response& resp,
                   std::string* why) {
  if (!resp.ok()) {
    *why = "code " + std::to_string(static_cast<int>(resp.code)) + " " +
           resp.error;
    return false;
  }
  if (resp.timed_out || resp.answers.size() != ref.tuples[cls].size()) {
    *why = "answer count mismatch";
    return false;
  }
  for (size_t i = 0; i < resp.answers.size(); ++i) {
    const double f = resp.answers[i].frequency;
    if (resp.answers[i].tuple != ref.tuples[cls][i] || !(f > 0.0 && f <= 1.0)) {
      *why = "answer mismatch";
      return false;
    }
  }
  return true;
}

// The bit-for-bit check: the served estimates equal an in-process
// ApxCqaOnSynopses with the request's seed at threads=1.
bool CheckBitForBit(const Reference& ref, Class cls, const Request& req,
                    const Response& resp) {
  cqa::ApxParams params;
  params.epsilon = req.epsilon;
  params.delta = req.delta;
  cqa::Rng rng(req.seed);
  const cqa::CqaRunResult run = cqa::ApxCqaOnSynopses(
      *ref.pre[cls], *cqa::ParseSchemeKind(req.scheme), params, rng);
  if (run.answers.size() != resp.answers.size()) return false;
  for (size_t i = 0; i < run.answers.size(); ++i) {
    if (run.answers[i].frequency != resp.answers[i].frequency) return false;
  }
  return true;
}

// --------------------------------------------------------- closed loop --

struct Outcome {
  bool transport_ok = false;
  double sent = 0.0;
  double recv = 0.0;
  Response response;
};

struct ClosedPass {
  double wall = 0.0;
  std::vector<Outcome> outcomes;
};

ClosedPass RunClosedPass(int port, const Stream& stream, size_t connections) {
  ClosedPass pass;
  pass.outcomes.resize(stream.requests.size());
  std::atomic<size_t> next{0};
  const double start = Now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&] {
      CqaClient client;
      std::string error;
      const bool connected = client.Connect("127.0.0.1", port, &error);
      for (size_t i = next++; i < stream.requests.size(); i = next++) {
        Outcome& o = pass.outcomes[i];
        o.sent = Now();
        o.transport_ok =
            connected && client.Call(stream.requests[i], &o.response, &error);
        o.recv = Now();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pass.wall = Now() - start;
  return pass;
}

// One caller on one connection: each request goes out after the previous
// reply, and cqad's CPU clock is read around each call, so every
// request's server CPU time is its own.
struct SerialPass {
  std::vector<Outcome> outcomes;
  std::vector<double> cpu;  // cqad CPU seconds per request.
};

SerialPass RunSerialPass(const Cqad& cqad, const Stream& stream) {
  SerialPass pass;
  pass.outcomes.resize(stream.requests.size());
  pass.cpu.resize(stream.requests.size());
  CqaClient client;
  std::string error;
  const bool connected = client.Connect("127.0.0.1", cqad.port(), &error);
  for (size_t i = 0; i < stream.requests.size(); ++i) {
    Outcome& o = pass.outcomes[i];
    const double cpu_start = ProcessCpuSeconds(cqad.pid());
    o.sent = Now();
    o.transport_ok =
        connected && client.Call(stream.requests[i], &o.response, &error);
    o.recv = Now();
    pass.cpu[i] = ProcessCpuSeconds(cqad.pid()) - cpu_start;
  }
  return pass;
}

// ----------------------------------------------------------- open loop --

struct OpenLoop {
  std::vector<double> due, sent, recv;
  std::vector<std::string> payloads;
  std::vector<Response> responses;
  std::vector<uint8_t> received;
  double generator_cpu = 0.0;
};

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// The request id of a JSON response payload, found without decoding the
// rest, so the receiver's cost per response stays small; the payloads are
// decoded after the loop.
std::string PeekId(const std::string& payload) {
  static const std::string kKey = "\"id\":\"";
  const size_t at = payload.find(kKey);
  if (at == std::string::npos) return "";
  const size_t start = at + kKey.size();
  return payload.substr(start, payload.find('"', start) - start);
}

// Sends the stream on one pipelined connection at seeded Poisson arrival
// times, regardless of responses; a receiver thread timestamps responses
// as they arrive. Frames are encoded before the clock starts and decoded
// after it stops, so the generator's own cost per request is a timed
// sleep, a write and a read.
bool RunOpenLoop(int port, const Stream& stream, double rate, cqa::Rng& rng,
                 OpenLoop* out, std::string* error) {
  const size_t n = stream.requests.size();
  if (n == 0) return true;
  std::vector<std::string> frames;
  std::unordered_map<std::string, size_t> slot;
  for (size_t i = 0; i < n; ++i) {
    const Request& r = stream.requests[i];
    frames.push_back(cqa::serve::EncodeFrame(r.ToPayload(WireCodec::kJson)));
    slot[r.id] = i;
  }
  out->due.resize(n);
  out->sent.assign(n, 0.0);
  out->recv.assign(n, 0.0);
  out->payloads.resize(n);
  out->responses.resize(n);
  out->received.assign(n, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    *error = "open loop: connect failed";
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  const double start = Now() + 0.05;
  double t = start;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.UniformReal()) / rate;
    out->due[i] = t;
  }

  double receiver_cpu = 0.0;
  std::thread receiver([&] {
    cqa::serve::FrameDecoder decoder;
    size_t got = 0;
    char buf[1 << 16];
    const double give_up = out->due.back() + 120.0;
    while (got < n && Now() < give_up) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 200) <= 0) continue;
      const ssize_t k = ::recv(fd, buf, sizeof(buf), 0);
      if (k <= 0) break;
      const double now = Now();
      decoder.Append(buf, static_cast<size_t>(k));
      std::string payload, decode_error;
      while (decoder.Next(&payload, &decode_error) ==
             cqa::serve::FrameDecoder::Status::kFrame) {
        const auto it = slot.find(PeekId(payload));
        if (it == slot.end() || out->received[it->second]) continue;
        out->recv[it->second] = now;
        out->payloads[it->second] = std::move(payload);
        out->received[it->second] = 1;
        ++got;
      }
    }
    receiver_cpu = ThreadCpuSeconds();
  });

  const double sender_cpu_start = ThreadCpuSeconds();
  bool ok = true;
  for (size_t i = 0; i < n && ok; ++i) {
    const double wait = out->due[i] - Now();
    if (wait > 0) {
      timespec ts{static_cast<time_t>(wait),
                  static_cast<long>((wait - std::floor(wait)) * 1e9)};
      ::nanosleep(&ts, nullptr);
    }
    out->sent[i] = Now();
    ok = SendAll(fd, frames[i]);
  }
  const double sender_cpu = ThreadCpuSeconds() - sender_cpu_start;
  receiver.join();
  ::close(fd);
  out->generator_cpu = sender_cpu + receiver_cpu;
  for (size_t i = 0; i < n; ++i) {
    std::string decode_error;
    if (out->received[i] &&
        !Response::FromPayload(out->payloads[i], &out->responses[i],
                               &decode_error)) {
      out->received[i] = 0;
    }
  }
  if (!ok) *error = "open loop: send failed";
  return ok;
}

// --------------------------------------------------------------- codec --

// Mean microseconds per call of `fn` over `items`, repeated to ~50 ms.
template <typename Fn>
double MeanMicros(size_t items, Fn fn) {
  size_t calls = 0;
  const double start = Now();
  while (Now() - start < 0.05 || calls < items) {
    for (size_t i = 0; i < items; ++i) fn(i);
    calls += items;
  }
  return (Now() - start) / static_cast<double>(calls) * 1e6;
}

}  // namespace

int RunServeMix(const RunConfig& config, Tracer& tracer, RunResult* result) {
  const cqa::Schema schema = cqa::MakeTpchSchema();
  std::map<std::string, cqa::ConjunctiveQuery> queries;
  for (const cqa::NamedQuery& q : cqa::TpchValidationQueries(schema)) {
    queries.emplace(q.name, q.query);
  }
  Mix mix;
  mix.data_dir = config.data_dir;
  mix.seed = config.seed;
  mix.light = queries.at("Q19_H").ToString(schema);
  mix.heavy = queries.at("Q8_H").ToString(schema);
  mix.miss = queries.at("Q12_H").ToString(schema);

  // In-process reference: the same instance and the three queries.
  cqa::Database db(&schema);
  std::string error;
  double load_s = 0.0;
  {
    ScopedSpan span(tracer, "storage.ReadTblDirectory", 0, "reference");
    const double t0 = Now();
    if (!cqa::ReadTblDirectory(&db, config.data_dir, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    load_s = Now() - t0;
  }
  const cqa::PreprocessResult light_pre =
      cqa::BuildSynopses(db, queries.at("Q19_H"));
  const cqa::PreprocessResult heavy_pre =
      cqa::BuildSynopses(db, queries.at("Q8_H"));
  const cqa::PreprocessResult miss_pre =
      cqa::BuildSynopses(db, cqa::MustParseCq(schema, mix.MissQuery()));
  Reference ref;
  ref.Init(kLight, &light_pre);
  ref.Init(kHeavy, &heavy_pre);
  ref.Init(kMiss, &miss_pre);
  for (const auto& [cls, pre] :
       {std::pair{"Q19_H", &light_pre}, std::pair{"Q8_H", &heavy_pre},
        std::pair{"Q12_H", &miss_pre}}) {
    const std::string name = cls;
    result->counts["query." + name + ".homomorphisms"] =
        pre->stats().num_homomorphisms;
    result->counts["query." + name + ".distinct_images"] =
        pre->stats().num_distinct_images;
    result->counts["query." + name + ".answers"] = pre->NumAnswers();
  }
  for (size_t r = 0; r < schema.NumRelations(); ++r) {
    const std::string& name = schema.relation(r).name();
    result->counts["rows." + name] = db.relation(r).size();
    uint64_t sum = 0;
    if (!ChecksumFile(config.data_dir + "/" + name + ".tbl", &sum)) {
      std::fprintf(stderr, "error: cannot read %s.tbl\n", name.c_str());
      return 1;
    }
    result->counts["tbl." + name + ".checksum"] = sum;
  }

  auto record = [&](Class cls, const Request& req, const Outcome& o,
                    bool bit_check) {
    ++result->attempted;
    std::string why = "transport error";
    bool ok = o.transport_ok && CheckResponse(ref, cls, o.response, &why);
    if (ok && bit_check) {
      ok = CheckBitForBit(ref, cls, req, o.response);
      if (!ok) why = "differs from in-process ApxCqaOnSynopses";
    }
    if (!ok) {
      ++result->failed;
      result->Fail(std::string(kClassNames[cls]) + " request " + req.id +
                   ": " + why);
    }
  };

  // Set-up: spawn cqad five times, each until it has answered one
  // request of every class, and take the CPU time cqad used for that;
  // the last instance serves the measurement.
  std::vector<double> setups;
  Cqad cqad;
  uint64_t index = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    cqad.Stop();
    ScopedSpan span(tracer, "serve.setup", 0, "spawn");
    CqaClient client;
    if (!cqad.Start(config, &error) ||
        !client.Connect("127.0.0.1", cqad.port(), &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    for (Class cls : {kLight, kHeavy, kMiss}) {
      const Request req = mix.Make(cls, index++);
      Outcome o;
      o.transport_ok = client.Call(req, &o.response, &error);
      record(cls, req, o, true);
    }
    setups.push_back(ProcessCpuSeconds(cqad.pid()));
    if (setups.back() < 0.0) {
      std::fprintf(stderr, "error: cannot read cqad's CPU clock\n");
      return 1;
    }
  }

  cqa::Rng stream_rng(cqa::SplitMix64(config.seed));

  // Untraced runs send one batch per pass from one caller until the time
  // is up (at least three passes). Every pass sends the same requests
  // with the same seeds, except that the miss requests get fresh variable
  // names and so miss the cache again. Each request's cqad CPU time is
  // split into preprocessing and sampling by the shares of its
  // server-side `timing`. pass_cpu_s is the fastest pass. Sampling work
  // depends on the request's seed, so scheme_cpu_s sums each request's
  // fastest repeat; every request of a class preprocesses the same query,
  // so preprocess_cpu_s sums the fastest request of its class. One
  // request in 40 is checked bit for bit.
  if (!config.traced) {
    std::vector<double> passes;
    std::vector<double> preprocess[3];
    std::vector<std::vector<double>> scheme(config.batch);
    double peak_rss_mb = 0.0;
    Stream stream = MakeStream(&mix, stream_rng, config.batch, index);
    const double measure_start = Now();
    do {
      for (size_t i = 0; i < stream.requests.size(); ++i) {
        if (stream.classes[i] == kMiss) {
          stream.requests[i] = mix.Make(kMiss, index + i);
        }
      }
      const double start = Now();
      const SerialPass pass = RunSerialPass(cqad, stream);
      const double wall = Now() - start;
      double cpu = 0.0;
      for (size_t i = 0; i < pass.outcomes.size(); ++i) {
        const Outcome& o = pass.outcomes[i];
        record(stream.classes[i], stream.requests[i], o, i % 40 == 0);
        cpu += pass.cpu[i];
        const cqa::serve::PhaseTiming& t = o.response.timing;
        const double share =
            t.total_micros == 0
                ? 0.0
                : pass.cpu[i] / static_cast<double>(t.total_micros);
        preprocess[stream.classes[i]].push_back(
            share * static_cast<double>(t.preprocess_micros));
        scheme[i].push_back(share * static_cast<double>(t.sample_micros));
      }
      passes.push_back(cpu);
      // Each pass adds misses to cqad's synopsis cache until it is full,
      // so peak memory is read after a fixed number of passes.
      if (passes.size() == 3) peak_rss_mb = PeakRssMb(cqad.pid());
      std::fprintf(stderr, "pass %zu: %.3f s wall, cqad %.3f s CPU\n",
                   passes.size(), wall, cpu);
    } while (passes.size() < 3 || Now() - measure_start < config.seconds);
    double preprocess_s = 0.0, scheme_s = 0.0;
    for (size_t i = 0; i < config.batch; ++i) {
      preprocess_s += Min(preprocess[stream.classes[i]]);
      scheme_s += Min(scheme[i]);
    }
    result->Set("setup_s", Median(setups), "s");
    result->Set("pass_cpu_s", Min(passes), "s");
    result->Set("preprocess_cpu_s", preprocess_s, "s");
    result->Set("scheme_cpu_s", scheme_s, "s");
    result->Set("peak_rss_mb", peak_rss_mb, "MB");
    return 0;
  }

  // Traced closed pass: `connections` callers, each waiting for its
  // reply. Saturation, tracing overhead, coverage, CPU per request.
  const size_t connections =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const Stream stream = MakeStream(&mix, stream_rng, config.batch, index);
  index += config.batch;
  const double cpu_start = ProcessCpuSeconds(cqad.pid());
  ScopedSpan pass_span(tracer, "bench.pass", 0, "pass");
  const uint64_t pass_id = pass_span.id();
  const ClosedPass pass = RunClosedPass(cqad.port(), stream, connections);
  pass_span.Close();
  const double cpu_ms_per_req =
      (ProcessCpuSeconds(cqad.pid()) - cpu_start) /
      static_cast<double>(config.batch) * 1e3;
  double in_calls = 0.0;
  for (size_t i = 0; i < pass.outcomes.size(); ++i) {
    const Outcome& o = pass.outcomes[i];
    tracer.Add("serve.Call", pass_id, stream.requests[i].id, o.sent, o.recv);
    record(stream.classes[i], stream.requests[i], o, i % 40 == 0);
    in_calls += o.recv - o.sent;
  }

  // Open loop: seeded Poisson arrivals at a fixed rate, each request timed
  // from when it was due.
  Stream open = MakeStream(&mix, stream_rng, config.open_requests, index);
  index += config.open_requests;
  OpenLoop loop;
  if (!RunOpenLoop(cqad.port(), open, config.open_rate, stream_rng, &loop,
                   &error)) {
    result->Fail(error);
  }
  std::vector<double> latency[3], overhead[3], late, queue_wait,
      miss_preprocess;
  size_t ok_responses = 0, hits = 0, shed = 0;
  for (size_t i = 0; i < open.requests.size(); ++i) {
    const Class cls = open.classes[i];
    Outcome o;
    o.transport_ok = loop.received[i] != 0;
    o.sent = loop.sent[i];
    o.recv = loop.recv[i];
    o.response = loop.responses[i];
    record(cls, open.requests[i], o, i % 100 == 0);
    if (!o.transport_ok) continue;
    const Response& r = o.response;
    if (r.code == cqa::serve::ErrorCode::kOverloaded) ++shed;
    tracer.Add("serve.request", 0, r.id, loop.due[i], o.recv);
    latency[cls].push_back((o.recv - loop.due[i]) * 1e3);
    late.push_back((o.sent - loop.due[i]) * 1e3);
    if (!r.ok()) continue;
    ++ok_responses;
    hits += r.cache_hit ? 1 : 0;
    overhead[cls].push_back((o.recv - o.sent) * 1e3 -
                            r.timing.total_micros * 1e-3);
    queue_wait.push_back(r.timing.queue_wait_micros * 1e-3);
    if (cls == kMiss) miss_preprocess.push_back(r.timing.preprocess_micros * 1e-3);
  }
  const double self_us =
      loop.generator_cpu / static_cast<double>(open.requests.size()) * 1e6;
  const double late_p99 = Quantile(late, 0.99);
  const double busy =
      loop.generator_cpu / (loop.due.back() - loop.due.front());
  // A generator that fell behind or loaded its core measures itself, not
  // cqad: the run says so in loadgen.valid (and on stderr) but still
  // reports every figure.
  const bool valid =
      late_p99 <= 1e3 / config.open_rate && busy <= kMaxGeneratorBusy;
  if (!valid) {
    std::fprintf(stderr,
                 "warning: open loop invalid: late p99 %.3f ms, generator "
                 "busy %.3f of a core\n",
                 late_p99, busy);
  }
  for (Class cls : {kLight, kHeavy, kMiss}) {
    const std::string name = kClassNames[cls];
    const double tail = cls == kLight ? 0.99 : 0.90;
    result->Set(name + "_ms.p50", Median(latency[cls]), "ms");
    result->Set(name + (cls == kLight ? "_ms.p99" : "_ms.p90"),
                Quantile(latency[cls], tail), "ms");
    result->Set("serve.overhead." + name + "_ms", Median(overhead[cls]), "ms");
  }

  // Codec cost on this workload's own payloads.
  const size_t sample = std::min<size_t>(200, open.requests.size());
  for (WireCodec codec : {WireCodec::kJson, WireCodec::kBinary}) {
    const std::string name =
        codec == WireCodec::kJson ? "serve.codec.json" : "serve.codec.binary";
    std::vector<std::string> payloads;
    for (size_t i = 0; i < sample; ++i) {
      payloads.push_back(open.requests[i].ToPayload(codec));
    }
    ScopedSpan span(tracer, "serve.codec", 0, name);
    result->Set(name + ".req_decode_us", MeanMicros(sample, [&](size_t i) {
                  Request out;
                  WireCodec detected;
                  cqa::serve::ErrorCode code;
                  std::string err;
                  Request::FromPayload(payloads[i], &out, &detected, &code,
                                       &err);
                }),
                "us");
    result->Set(name + ".resp_encode_us", MeanMicros(sample, [&](size_t i) {
                  const std::string bytes = loop.responses[i].ToPayload(codec);
                  if (bytes.empty()) std::abort();
                }),
                "us");
  }

  // In-process replay of the same requests through CqaEngine: the server
  // time without transport, queueing or codec.
  {
    cqa::serve::EngineOptions options;
    cqa::serve::CqaEngine engine(options);
    std::vector<double> engine_ms[3];
    for (Class cls : {kLight, kHeavy}) {  // Warm the hit classes.
      const Request req = mix.Make(cls, index++);
      engine.ExecuteQuery(req, engine.MakeDeadline(req));
    }
    for (size_t i = 0; i < sample; ++i) {
      const Request& req = open.requests[i];
      ScopedSpan span(tracer, "serve.ExecuteQuery", 0, req.id);
      const double t0 = Now();
      engine.ExecuteQuery(req, engine.MakeDeadline(req));
      engine_ms[open.classes[i]].push_back((Now() - t0) * 1e3);
    }
    for (Class cls : {kLight, kHeavy, kMiss}) {
      result->Set(std::string("serve.engine.") + kClassNames[cls] + "_ms",
                  Median(engine_ms[cls]), "ms");
    }
  }

  const double facts = static_cast<double>(db.NumFacts());
  result->Set("storage.load_s", load_s, "s");
  result->Set("storage.load_mrows_per_s", facts / load_s / 1e6, "Mrows/s");
  result->Set("storage.bytes_per_fact",
              static_cast<double>(db.MemoryBytes()) / facts, "B");
  result->Set("serve.queue_wait_ms.p99", Quantile(queue_wait, 0.99), "ms");
  result->Set("serve.cache_hit_ratio",
              ok_responses ? static_cast<double>(hits) / ok_responses : 0.0,
              "ratio");
  result->Set("serve.preprocess_ms.p50", Median(miss_preprocess), "ms");
  result->Set("serve.shed", static_cast<double>(shed), "count");
  result->Set("serve.cpu_ms_per_req", cpu_ms_per_req, "ms");
  result->Set("loadgen.late_ms.p99", late_p99, "ms");
  result->Set("loadgen.self_us", self_us, "us");
  result->Set("loadgen.valid", valid ? 1.0 : 0.0, "bool");
  result->Set("sat_rps", static_cast<double>(config.batch) / pass.wall,
              "1/s");
  // One span per request of the pass, plus the pass span itself.
  result->Set("obs.trace_overhead",
              static_cast<double>(config.batch + 1) *
                  Tracer::SpanCostSeconds() / pass.wall,
              "ratio");
  result->Set("trace.coverage",
              in_calls / (pass.wall * static_cast<double>(connections)),
              "ratio");
  result->Set("fail_ratio",
              static_cast<double>(result->failed) /
                  static_cast<double>(result->attempted),
              "ratio");
  return 0;
}

}  // namespace perfbench
