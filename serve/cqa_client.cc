// cqa_client — the thin command-line client for cqad:
//
//   cqa_client query --port=N --data=DIR --query='Q(N) :- ...'
//              [--host=ADDR] [--schema=tpch|tpcds]
//              [--scheme=Natural|KL|KLM|Cover] [--epsilon=F] [--delta=F]
//              [--deadline=S] [--seed=N] [--threads=N] [--record=1]
//              [--id=STR] [--trace=STR] [--codec=json|binary]
//   cqa_client stats --port=N [--host=ADDR] [--codec=json|binary]
//   cqa_client ping  --port=N [--host=ADDR] [--codec=json|binary]
//
// --trace attaches the given id as the request's trace context; the
// server stamps its spans and access-log line with it, and the reply's
// phase breakdown is printed as a "# timing" comment line.
//
// --codec picks the wire payload codec: v1 JSON (default) or the v2
// tagged binary codec. The server answers in the codec the request
// arrived in, so the printed output is identical either way.
//
// `query` prints the same answer lines as `cqa_cli run` (tuple TAB
// frequency) so outputs diff cleanly against a local run with the same
// seed. Exit codes: 0 ok, 1 transport failure, 3 server-side error
// (status printed on stderr with the protocol code name).

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "serve/client.h"

using namespace cqa;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: cqa_client <query|stats|ping> --port=N [--host=ADDR]\n"
      "  query --data=DIR --query=Q [--schema=tpch|tpcds]\n"
      "        [--scheme=Natural|KL|KLM|Cover] [--epsilon=F] [--delta=F]\n"
      "        [--deadline=S] [--seed=N] [--threads=N] [--record=1]\n"
      "        [--id=STR] [--trace=STR] [--codec=json|binary]\n"
      "  stats [--codec=json|binary]\n"
      "  ping  [--codec=json|binary]\n");
  return 2;
}

int ReportServerError(const serve::Response& response) {
  std::fprintf(stderr, "error %d (%s): %s\n",
               static_cast<int>(response.code),
               serve::ErrorCodeName(response.code), response.error.c_str());
  if (response.retry_after_s > 0) {
    std::fprintf(stderr, "retry_after_s: %.3f\n", response.retry_after_s);
  }
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags args;
  args.command = argv[1];
  if (!args.Parse(argc, argv, 2)) return Usage();

  serve::Request request;
  if (args.command == "query") {
    if (!args.ValidateKeys({"host", "port", "data", "query", "schema",
                            "scheme", "epsilon", "delta", "deadline", "seed",
                            "threads", "record", "id", "trace", "codec"})) {
      return Usage();
    }
    request.op = "query";
    request.schema = args.Get("schema", "tpch");
    request.data = args.Get("data", "");
    request.query = args.Get("query", "");
    request.scheme = args.Get("scheme", "KLM");
    request.epsilon = args.GetDouble("epsilon", 0.1);
    request.delta = args.GetDouble("delta", 0.25);
    request.deadline_s = args.GetDouble("deadline", 0.0);
    request.seed = args.GetCount("seed", 7);
    request.threads = static_cast<int>(args.GetCount("threads", 1));
    request.want_record = args.GetDouble("record", 0) != 0;
    request.id = args.Get("id", "");
    request.trace_id = args.Get("trace", "");
    if (request.data.empty() || request.query.empty()) {
      std::fprintf(stderr, "error: query needs --data and --query\n");
      return Usage();
    }
  } else if (args.command == "stats" || args.command == "ping") {
    if (!args.ValidateKeys({"host", "port", "codec"})) return Usage();
    request.op = args.command;
  } else {
    return Usage();
  }
  const int port = args.GetPort("port", 0);
  if (!args.ok()) return Usage();
  const std::string codec_name = args.Get("codec", "json");
  if (codec_name != "json" && codec_name != "binary") {
    std::fprintf(stderr, "error: --codec must be json or binary\n");
    return Usage();
  }

  serve::CqaClient client;
  client.set_codec(codec_name == "binary" ? serve::WireCodec::kBinary
                                          : serve::WireCodec::kJson);
  std::string error;
  if (!client.Connect(args.Get("host", "127.0.0.1"), port, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  serve::Response response;
  if (!client.Call(request, &response, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!response.ok()) return ReportServerError(response);

  if (request.op == "ping") {
    std::printf("pong\n");
  } else if (request.op == "stats") {
    std::printf("%s\n%s\n", response.server_json.c_str(),
                response.metrics_json.c_str());
  } else {
    std::printf("# %s, preprocessing %.4fs, scheme %.4fs, %llu samples%s\n",
                response.cache_hit ? "cache hit" : "cache miss",
                response.preprocess_seconds, response.scheme_seconds,
                static_cast<unsigned long long>(response.total_samples),
                response.timed_out ? " (TIMED OUT, partial)" : "");
    if (response.timing.recorded) {
      std::printf(
          "# timing: queue_wait %llu us, cache %llu us, preprocess %llu us, "
          "sample %llu us, encode %llu us, total %llu us\n",
          static_cast<unsigned long long>(response.timing.queue_wait_micros),
          static_cast<unsigned long long>(response.timing.cache_micros),
          static_cast<unsigned long long>(response.timing.preprocess_micros),
          static_cast<unsigned long long>(response.timing.sample_micros),
          static_cast<unsigned long long>(response.timing.encode_micros),
          static_cast<unsigned long long>(response.timing.total_micros));
    }
    for (const serve::ResponseAnswer& a : response.answers) {
      std::printf("%s\t%.6f\n", a.tuple.c_str(), a.frequency);
    }
    if (!response.run_record_json.empty()) {
      std::printf("%s\n", response.run_record_json.c_str());
    }
  }
  return 0;
}
