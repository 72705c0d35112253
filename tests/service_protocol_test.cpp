// End-to-end tests of the planning service: NDJSON protocol round-trips
// (error envelopes, id correlation, out-of-order completion), cache
// semantics at the service level (spelling-invariant keys, warm-hit
// replies byte-identical to cold-miss, --cache-entries eviction,
// single-flight under 8 threads), and the headline equivalence contract:
// a served "optimize" result is value-identical to the one-shot
// `ayd optimize --json` record for the same spec.

#include "ayd/service/server.hpp"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "ayd/io/json.hpp"
#include "ayd/io/json_parse.hpp"
#include "ayd/service/protocol.hpp"
#include "ayd/service/shm_transport.hpp"
#include "ayd/tool/tool.hpp"

namespace ayd::service {
namespace {

/// Canonical compact re-serialisation (strips formatting differences;
/// double values round-trip exactly through %.17g, so equality below is
/// value equality bit for bit).
std::string compact(const io::JsonValue& v) {
  std::ostringstream os;
  io::JsonWriter w(os, /*pretty=*/false);
  v.write(w);
  return os.str();
}

std::string compact(const std::string& json) {
  return compact(io::parse_json(json));
}

// A cheap but real simulated-optimizer request (Weibull arrivals force
// the simulation path; small caps keep the test fast).
const char* kSimulateParams =
    R"("procs":512,"failure-dist":"weibull:k=0.7","simulate":true,)"
    R"("runs":8,"patterns":20,"max-reps":32,"ci-rel-tol":0.05)";

std::string optimize_request(int id, const std::string& params) {
  return "{\"op\":\"optimize\",\"id\":" + std::to_string(id) + "," + params +
         "}";
}

// -- protocol round-trip -------------------------------------------------

TEST(ServiceProtocol, MalformedLineYieldsParseErrorReply) {
  PlanningService service({/*threads=*/1});
  const std::string reply = service.handle_line("this is not json");
  const io::JsonValue v = io::parse_json(reply);
  EXPECT_TRUE(v.at("id").is_null());
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("error").at("code").as_string(), "parse_error");
}

TEST(ServiceProtocol, NonObjectAndMissingOpAreRejected) {
  PlanningService service({/*threads=*/1});
  EXPECT_EQ(io::parse_json(service.handle_line("[1,2,3]"))
                .at("error").at("code").as_string(),
            "parse_error");
  // A missing (or non-string) op still echoes the request's id — the
  // client must be able to correlate the failure.
  const io::JsonValue missing_op =
      io::parse_json(service.handle_line(R"({"id":9})"));
  EXPECT_EQ(missing_op.at("error").at("code").as_string(), "bad_request");
  EXPECT_EQ(missing_op.at("id").as_int(), 9);
  EXPECT_EQ(io::parse_json(service.handle_line(R"({"op":5,"id":11})"))
                .at("id").as_int(),
            11);
}

TEST(ServiceProtocol, ParameterNamesWithEqualsAreRejected) {
  // {"procs=512": true} must not be spliced into the argv form
  // --procs=512 (a parameter the client never set).
  PlanningService service({/*threads=*/1});
  const io::JsonValue v = io::parse_json(
      service.handle_line(R"({"op":"optimize","id":1,"procs=512":true})"));
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(v.at("error").at("message").as_string().find("procs=512"),
            std::string::npos);
}

TEST(ServiceProtocol, UnknownOpEchoesIdWithUnknownOpCode) {
  PlanningService service({/*threads=*/1});
  const io::JsonValue v =
      io::parse_json(service.handle_line(R"({"op":"frobnicate","id":17})"));
  EXPECT_EQ(v.at("id").as_int(), 17);
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("error").at("code").as_string(), "unknown_op");
  EXPECT_NE(v.at("error").at("message").as_string().find("frobnicate"),
            std::string::npos);
}

TEST(ServiceProtocol, UnknownParameterIsABadRequest) {
  PlanningService service({/*threads=*/1});
  const io::JsonValue v = io::parse_json(
      service.handle_line(R"({"op":"optimize","id":1,"bogus-knob":3})"));
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request");
}

TEST(ServiceProtocol, NonScalarParameterIsABadRequest) {
  PlanningService service({/*threads=*/1});
  const io::JsonValue v = io::parse_json(
      service.handle_line(R"({"op":"optimize","id":1,"procs":[512]})"));
  EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request");
}

TEST(ServiceProtocol, InvalidProcsIsABadRequestNamingTheOption) {
  // The reply text must not depend on where the binary was built: no
  // source path, absolute or otherwise, leaks into it.
  PlanningService service({/*threads=*/1});
  for (const char* line : {R"({"op":"optimize","id":1,"procs":0})",
                           R"({"op":"simulate","id":1,"procs":-5})",
                           R"({"op":"plan","id":1,"max-procs":0})",
                           R"({"op":"optimize","id":1,"max-procs":1})"}) {
    const io::JsonValue v = io::parse_json(service.handle_line(line));
    EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request") << line;
    const std::string message = v.at("error").at("message").as_string();
    EXPECT_NE(message.find("procs"), std::string::npos) << message;
    EXPECT_EQ(message.find('/'), std::string::npos) << message;
  }
}

TEST(ServiceProtocol, BadReplicationAndPeriodAreBadRequestsNamingTheOption) {
  // Each is refused naming the option, not by a library precondition
  // whose message quotes a source path.
  PlanningService service({/*threads=*/1});
  for (const auto& [line, name] :
       {std::pair{R"({"op":"simulate","id":1,"runs":0})", "--runs"},
        std::pair{R"({"op":"simulate","id":1,"patterns":0})", "--patterns"},
        std::pair{R"({"op":"simulate","id":1,"period":0})", "--period"},
        std::pair{R"({"op":"simulate","id":1,"period":-5})", "--period"},
        std::pair{R"({"op":"optimize","id":1,"simulate":true,)"
                  R"("failure-dist":"weibull:k=0.7","procs":512,)"
                  R"("patterns":0})",
                  "--patterns"}}) {
    const io::JsonValue v = io::parse_json(service.handle_line(line));
    EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request") << line;
    const std::string message = v.at("error").at("message").as_string();
    EXPECT_NE(message.find(name), std::string::npos) << message;
    EXPECT_EQ(message.find('/'), std::string::npos) << message;
  }
}

TEST(ServiceProtocol, SimulateRefusesASingleRun) {
  // One replica has no CI, so the op would reply with a zero-width one.
  PlanningService service({/*threads=*/1});
  const io::JsonValue v = io::parse_json(
      service.handle_line(R"({"op":"simulate","id":1,"runs":1})"));
  EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request");
  const std::string message = v.at("error").at("message").as_string();
  EXPECT_NE(message.find("needs --runs >= 2"), std::string::npos) << message;
}

TEST(ServiceProtocol, SubscribeRefusesEstimatorOptionsItCannotHonour) {
  // The subscribe op shares `ayd watch`'s option checks: a zero refit
  // interval or a non-finite noise floor is a bad request naming the
  // option, not a replay that silently runs something else.
  PlanningService service({/*threads=*/1});
  for (const auto& [param, name] :
       {std::pair{R"("refit-interval":"0")", "--refit-interval"},
        std::pair{R"("window":"0")", "--window"},
        std::pair{R"("min-mean-llr":"nan")", "--min-mean-llr"}}) {
    const io::JsonValue v = io::parse_json(service.handle_line(
        std::string(R"({"op":"subscribe","id":1,"procs":"1",)") + param +
        R"(,"events":[3600,3600]})"));
    EXPECT_FALSE(v.at("ok").as_bool()) << param;
    EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request") << param;
    EXPECT_NE(v.at("error").at("message").as_string().find(name),
              std::string::npos)
        << param;
  }
}

TEST(ServiceProtocol, OptimizeAndSubscribeRefuseABadCiRelTol) {
  // Both ops read their search knobs through the CLI's shared helper, so
  // a non-positive or non-finite target is a bad request naming the
  // option, not a failed precondition inside the adaptive driver.
  PlanningService service({/*threads=*/1});
  for (const char* value : {"0", "-1", "nan"}) {
    for (const std::string& line :
         {std::string(R"({"op":"optimize","id":1,"platform":"hera",)"
                      R"("failure-dist":"weibull:k=0.7","simulate":true,)"
                      R"("procs":"512","ci-rel-tol":")") +
              value + R"("})",
          std::string(R"({"op":"subscribe","id":2,"procs":"1",)"
                      R"("ci-rel-tol":")") +
              value + R"(","events":[3600,3600]})"}) {
      const io::JsonValue v = io::parse_json(service.handle_line(line));
      EXPECT_FALSE(v.at("ok").as_bool()) << line;
      EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request") << line;
      EXPECT_NE(v.at("error").at("message").as_string().find("--ci-rel-tol"),
                std::string::npos)
          << line;
    }
  }
}

TEST(ServiceProtocol, PlanRefusesWhatItsAnalyticPlanCannotActOn) {
  // The plan is the exponential, i.i.d. analytic optimum: a failure law,
  // a shock stream or component classes would be silently ignored.
  PlanningService service({/*threads=*/1});
  for (const auto& [param, name] :
       {std::pair{R"("failure-dist":"weibull:k=0.5")", "--failure-dist"},
        std::pair{R"("shock":"rho=0.3")", "--shock"},
        std::pair{R"("hetero":"0.5*1.5*exponential;0.5*0.5*exponential")",
                  "--hetero"}}) {
    const io::JsonValue v = io::parse_json(service.handle_line(
        std::string(R"({"op":"plan","id":1,"platform":"hera",)") + param +
        "}"));
    EXPECT_FALSE(v.at("ok").as_bool()) << param;
    EXPECT_EQ(v.at("error").at("code").as_string(), "bad_request") << param;
    const std::string message = v.at("error").at("message").as_string();
    EXPECT_NE(message.find(name), std::string::npos) << message;
    EXPECT_NE(message.find("ayd optimize --simulate"), std::string::npos)
        << message;
  }
  // An exponential law with its rate in the spec still plans.
  EXPECT_TRUE(io::parse_json(
                  service.handle_line(
                      R"({"op":"plan","id":2,"platform":"hera",)"
                      R"("failure-dist":"exponential,mtbf=3e9"})"))
                  .at("ok")
                  .as_bool());
  // The optimize op takes the correlated-world options only with its
  // simulation.
  const io::JsonValue shock = io::parse_json(service.handle_line(
      R"({"op":"optimize","id":3,"platform":"hera","shock":"rho=0.3"})"));
  EXPECT_EQ(shock.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(shock.at("error").at("message").as_string().find(
                "--shock requires --simulate"),
            std::string::npos);
}

TEST(ServiceProtocol, StringAndNumberIdsEchoVerbatim) {
  PlanningService service({/*threads=*/1});
  const std::string num = service.handle_line(
      R"({"op":"plan","id":42,"platform":"hera","scenario":3})");
  EXPECT_EQ(num.rfind("{\"id\":42,", 0), 0u) << num;
  const std::string str = service.handle_line(
      R"({"op":"plan","id":"req-a","platform":"hera","scenario":3})");
  EXPECT_EQ(str.rfind("{\"id\":\"req-a\",", 0), 0u) << str;
  // Duplicate members: the first "id" and the first "op" count, and
  // neither reaches the parameters.
  const std::string dup = service.handle_line(
      R"({"id":7,"op":"plan","id":8,"op":"nope","platform":"hera"})");
  EXPECT_EQ(dup.rfind(R"({"id":7,"ok":true,"op":"plan",)", 0), 0u) << dup;
}

TEST(ServiceProtocol, ReplyIdBytesMatchJsonWriter) {
  // The envelopes write the id straight into the reply; the bytes must be
  // exactly what JsonWriter writes for the same value.
  const std::vector<io::JsonValue> ids = {
      io::JsonValue::integer(0),
      io::JsonValue::integer(-1),
      io::JsonValue::integer(-9007199254740993),
      io::JsonValue::integer(std::numeric_limits<std::int64_t>::min()),
      io::JsonValue::integer(std::numeric_limits<std::int64_t>::max()),
      io::JsonValue::number(2.5),
      io::JsonValue::number(-0.1),
      io::JsonValue::number(1e300),
      io::JsonValue::string(""),
      io::JsonValue::string("req-a"),
      io::JsonValue::string("q\"b\\s/\b\f\n\r\t\x01\x1f caf\xc3\xa9"),
      io::JsonValue::boolean(true),
      io::JsonValue::boolean(false),
      io::JsonValue::null(),
  };
  for (const io::JsonValue& id : ids) {
    const std::string written = compact(id);
    EXPECT_EQ(make_ok_reply(id, "plan", "{}"),
              "{\"id\":" + written + R"(,"ok":true,"op":"plan","result":{}})");
    EXPECT_EQ(make_error_reply(id, "bad_request", "m"),
              "{\"id\":" + written +
                  R"(,"ok":false,"error":{"code":"bad_request","message":"m"}})");
  }
  // The same through the parser, for ids as clients spell them.
  PlanningService service({/*threads=*/1});
  for (const char* literal :
       {"0", "-7", "-9223372036854775808", "9223372036854775807", "2.5",
        "1e3", "-0.0", R"("a\"b\u0001")", "true", "false", "null"}) {
    const std::string reply = service.handle_line(
        std::string(R"({"op":"nope","id":)") + literal + "}");
    const std::string written = compact(io::parse_json(literal));
    EXPECT_EQ(reply.rfind("{\"id\":" + written + ",", 0), 0u)
        << literal << " -> " << reply;
  }
}

TEST(ServiceProtocol, OkReplyCarriesOpAndResult) {
  PlanningService service({/*threads=*/1});
  const io::JsonValue v = io::parse_json(service.handle_line(
      R"({"op":"simulate","id":5,"procs":512,"period":6000,)"
      R"("runs":6,"patterns":10})"));
  EXPECT_TRUE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("op").as_string(), "simulate");
  const io::JsonValue& result = v.at("result");
  EXPECT_DOUBLE_EQ(result.at("procs").as_double(), 512.0);
  EXPECT_DOUBLE_EQ(result.at("period").as_double(), 6000.0);
  EXPECT_GT(result.at("overhead").at("mean").as_double(), 0.0);
  EXPECT_GT(result.at("analytic_overhead").as_double(), 0.0);
}

TEST(ServiceProtocol, ServeAnswersEveryRequestOutOfOrderSafe) {
  // serve() may reply in any order; ids are the correlation handle. A
  // multi-worker pool plus one malformed line exercises the envelope on
  // the same session.
  PlanningService service({/*threads=*/4});
  std::ostringstream session;
  for (int id = 1; id <= 6; ++id) {
    session << R"({"op":"plan","id":)" << id
            << R"(,"platform":"hera","scenario":3,"work":)" << id * 1e6
            << "}\n";
  }
  session << "garbage line\n";
  std::istringstream in(session.str());
  std::ostringstream out;
  EXPECT_TRUE(service.serve(in, out));

  std::set<std::int64_t> ids;
  int errors = 0;
  std::istringstream replies(out.str());
  std::string line;
  while (std::getline(replies, line)) {
    const io::JsonValue v = io::parse_json(line);
    if (v.at("ok").as_bool()) {
      ids.insert(v.at("id").as_int());
    } else {
      ++errors;
      EXPECT_EQ(v.at("error").at("code").as_string(), "parse_error");
    }
  }
  EXPECT_EQ(ids, (std::set<std::int64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(errors, 1);
}

TEST(ServiceProtocol, ServeProcessesFinalUnterminatedLine) {
  // A client that omits the trailing '\n' on its last request (common
  // when the writer is killed, or with `printf '%s'`) still gets a
  // reply: EOF terminates the line.
  PlanningService service({/*threads=*/1});
  std::istringstream in(
      R"({"op":"plan","id":7,"platform":"hera","scenario":3,"work":1e6})");
  std::ostringstream out;
  EXPECT_TRUE(service.serve(in, out));
  const io::JsonValue v = io::parse_json(out.str());
  EXPECT_EQ(v.at("id").as_int(), 7);
  EXPECT_TRUE(v.at("ok").as_bool());
}

TEST(ServiceProtocol, ServeReturnsFalseAndStopsReadingOnDeadOutput) {
  // When the reply stream dies (client closed the pipe; cmd_serve turns
  // SIGPIPE into a stream failure), serve() must report the failure and
  // stop consuming input instead of draining stdin forever while every
  // reply is discarded.
  PlanningService service({/*threads=*/1});
  std::ostringstream session;
  for (int id = 1; id <= 500; ++id) {
    session << R"({"op":"stats","id":)" << id << "}\n";
  }
  std::istringstream in(session.str());
  std::ostringstream out;
  out.setstate(std::ios::badbit);  // every write fails, like a closed pipe
  EXPECT_FALSE(service.serve(in, out));
  // The reader bailed early: most of the session is still unread (the
  // backpressure window bounds how far ahead it got).
  std::string leftover;
  int unread = 0;
  in.clear();
  while (std::getline(in, leftover)) ++unread;
  EXPECT_GT(unread, 300);
}

// -- malformed / truncated frames, via both transports -------------------

// The frame battery: every entry is one broken request line — cut off
// mid-token, structurally invalid, or semantically wrong — paired with
// the error code its envelope must carry. Shared by the pipe and shm
// transport robustness tests below so the two byte channels are held to
// the same contract.
const std::vector<std::pair<const char*, const char*>>& broken_frames() {
  static const std::vector<std::pair<const char*, const char*>> kFrames = {
      {R"({"op":"plan","id":1,"pla)", "parse_error"},      // truncated mid-key
      {R"({"op":"plan","id":1,"work":1e)", "parse_error"},  // truncated number
      {R"({"op":"plan","id":1)", "parse_error"},            // missing brace
      {"\x01\x02binary\xff", "parse_error"},                // not JSON at all
      {R"("just a string")", "parse_error"},                // non-object
      {R"({})", "bad_request"},                             // no op at all
      {R"({"op":"plan","id":9,"work":{"nested":1}})",
       "bad_request"},                                      // non-scalar param
  };
  return kFrames;
}

TEST(ServiceProtocol, BrokenFramesOverPipeYieldEnvelopesAndNeverWedge) {
  PlanningService service({/*threads=*/2});
  std::ostringstream session;
  for (const auto& [frame, code] : broken_frames()) {
    session << frame << "\n";
  }
  // A valid request after the battery proves the session survived.
  session << R"({"op":"stats","id":"alive"})" << "\n";
  std::istringstream in(session.str());
  std::ostringstream out;
  EXPECT_TRUE(service.serve(in, out));

  int envelopes = 0;
  bool alive_answered = false;
  std::istringstream replies(out.str());
  std::string line;
  while (std::getline(replies, line)) {
    const io::JsonValue v = io::parse_json(line);  // replies stay valid JSON
    if (!v.at("ok").as_bool()) {
      ++envelopes;
      EXPECT_FALSE(v.at("error").at("message").as_string().empty());
    } else if (v.at("id").as_string() == "alive") {
      alive_answered = true;
    }
  }
  EXPECT_EQ(envelopes, static_cast<int>(broken_frames().size()));
  EXPECT_TRUE(alive_answered);
}

TEST(ServiceProtocol, BrokenFramesOverShmYieldTheSameEnvelopesAsThePipe) {
  PlanningService service({/*threads=*/2});
  ShmServer server("proto" + std::to_string(::getpid()), service);
  ShmClient client(server.name());
  for (const auto& [frame, code] : broken_frames()) {
    // The documented envelope, byte-identical to the pipe transport's
    // reply for the same broken frame, with the declared code.
    const std::string reply = client.call(frame);
    EXPECT_EQ(reply, service.handle_line(frame)) << frame;
    const io::JsonValue v = io::parse_json(reply);
    EXPECT_FALSE(v.at("ok").as_bool()) << frame;
    EXPECT_EQ(v.at("error").at("code").as_string(), code) << frame;
    // The session never wedges: a valid round trip follows every freak.
    EXPECT_NE(client.call(R"({"op":"stats","id":1})").find("\"ok\":true"),
              std::string::npos);
  }
}

// -- cache semantics -----------------------------------------------------

TEST(ServiceCacheSemantics, WarmHitReplyIsByteIdenticalToColdMiss) {
  PlanningService service({/*threads=*/1});
  const std::string request = optimize_request(7, kSimulateParams);
  const std::string cold = service.handle_line(request);
  const std::string warm = service.handle_line(request);
  EXPECT_EQ(cold, warm);
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ServiceCacheSemantics, SpellingAndOrderInvariantKeys) {
  PlanningService service({/*threads=*/1});
  // Same scenario four ways: member order, case, string-vs-number,
  // underscore-vs-hyphen, defaults passed explicitly.
  const std::vector<std::string> spellings = {
      R"({"op":"optimize","id":1,"platform":"hera","scenario":3})",
      R"({"op":"optimize","id":1,"scenario":"3","platform":"HERA"})",
      R"({"op":"optimize","id":1,"platform":"Hera","scenario":3,)"
      R"("alpha":0.1,"downtime":3600})",
      R"({"op":"optimize","id":1,"max_procs":1e7,"platform":"hera",)"
      R"("scenario":3})",
  };
  std::vector<std::string> replies;
  for (const std::string& req : spellings) {
    replies.push_back(service.handle_line(req));
  }
  for (const std::string& r : replies) EXPECT_EQ(r, replies.front());
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(ServiceCacheSemantics, DistinctScenariosDoNotCollide) {
  PlanningService service({/*threads=*/1});
  (void)service.handle_line(
      R"({"op":"optimize","id":1,"platform":"hera","scenario":3})");
  (void)service.handle_line(
      R"({"op":"optimize","id":2,"platform":"hera","scenario":1})");
  (void)service.handle_line(
      R"({"op":"optimize","id":3,"platform":"atlas","scenario":3})");
  EXPECT_EQ(service.cache_stats().misses, 3u);
  EXPECT_EQ(service.cache_stats().hits, 0u);
}

TEST(ServiceCacheSemantics, EvictionRespectsCacheEntries) {
  ServiceOptions options;
  options.threads = 1;
  options.cache_entries = 2;
  options.cache_shards = 1;
  PlanningService service(options);
  for (int scenario : {1, 2, 3, 4}) {
    (void)service.handle_line(
        R"({"op":"optimize","id":1,"platform":"hera","scenario":)" +
        std::to_string(scenario) + "}");
  }
  CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  // Scenario 1 was evicted: repeating it recomputes (a miss, not a hit).
  (void)service.handle_line(
      R"({"op":"optimize","id":1,"platform":"hera","scenario":1})");
  EXPECT_EQ(service.cache_stats().misses, 5u);
}

TEST(ServiceCacheSemantics, SingleFlightUnderEightThreads) {
  PlanningService service({/*threads=*/1});
  const std::string request = optimize_request(1, kSimulateParams);
  std::vector<std::thread> threads;
  std::vector<std::string> replies(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      replies[static_cast<std::size_t>(t)] = service.handle_line(request);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& r : replies) EXPECT_EQ(r, replies.front());
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, 7u);
}

TEST(ServiceCacheSemantics, StatsOpReportsCounters) {
  PlanningService service({/*threads=*/1});
  const std::string request = optimize_request(1, kSimulateParams);
  (void)service.handle_line(request);
  (void)service.handle_line(request);
  const io::JsonValue v =
      io::parse_json(service.handle_line(R"({"op":"stats","id":99})"));
  EXPECT_TRUE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("result").at("misses").as_int(), 1);
  EXPECT_EQ(v.at("result").at("hits").as_int(), 1);
  EXPECT_EQ(v.at("result").at("entries").as_int(), 1);
  // Stats itself is never cached.
  EXPECT_EQ(io::parse_json(service.handle_line(R"({"op":"stats","id":1})"))
                .at("result").at("misses").as_int(),
            1);
}

// -- equivalence with the one-shot CLI -----------------------------------

TEST(ServiceEquivalence, OptimizeResultMatchesOneShotJsonRecord) {
  // The same spec through `ayd optimize --json` (pretty) and the service
  // (compact): after canonical compact re-serialisation the two records
  // must be byte-identical — every double, CI bound and replica count.
  std::ostringstream out;
  std::ostringstream err;
  const int code = tool::run_tool(
      {"optimize", "--json", "--procs", "512", "--failure-dist",
       "weibull:k=0.7", "--simulate", "--runs", "8", "--patterns", "20",
       "--max-reps", "32", "--ci-rel-tol", "0.05"},
      out, err);
  ASSERT_EQ(code, 0) << err.str();
  const std::string one_shot = compact(out.str());

  PlanningService service({/*threads=*/1});
  const io::JsonValue reply =
      io::parse_json(service.handle_line(optimize_request(1, kSimulateParams)));
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(compact(reply.at("result")), one_shot);
}

TEST(ServiceEquivalence, AnalyticOptimizeMatchesOneShotToo) {
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(tool::run_tool({"optimize", "--json", "--platform", "coastal",
                            "--scenario", "5"},
                           out, err),
            0);
  PlanningService service({/*threads=*/1});
  const io::JsonValue reply = io::parse_json(service.handle_line(
      R"({"op":"optimize","id":1,"platform":"coastal","scenario":5})"));
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(compact(reply.at("result")), compact(out.str()));
}

}  // namespace
}  // namespace ayd::service
