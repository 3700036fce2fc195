// Concurrency tests for the service core: many sessions multiplexed onto
// one Workspace/Dispatcher, at per-request thread counts {1, 2, 8}, must
// produce bit-identical verdicts regardless of interleaving — the PR 5
// determinism guarantee lifted to the daemon. Runs under ci-tsan (the
// preset's filter matches "Service").
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/dispatcher.h"
#include "service/protocol.h"
#include "tests/test_util.h"

namespace viewcap {
namespace {

constexpr const char* kProgram = R"(
schema { r(A, B, C); }
view V { v := pi{A,B}(r) * pi{B,C}(r); }
view W {
  w1 := pi{A,B}(r);
  w2 := pi{B,C}(r);
}
view Narrow { n := pi{A,B}(r); }
)";

/// The mixed read-only workload each simulated session runs. Every
/// request is answerable deterministically, so the expected transcript
/// is a pure function of the request list.
std::vector<Request> SessionWorkload(std::size_t threads) {
  std::vector<Request> requests;
  {
    Request r;
    r.kind = RequestKind::kEquiv;
    r.view = "V";
    r.other_view = "W";
    r.threads = threads;
    requests.push_back(r);
    r.view = "Narrow";
    requests.push_back(r);  // Not equivalent: exit 3.
  }
  {
    Request r;
    r.kind = RequestKind::kAnswerable;
    r.view = "W";
    r.query = "pi{A,C}(r)";
    r.threads = threads;
    requests.push_back(r);
    r.query = "pi{A,B}(r)";
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kLattice;
    r.threads = threads;
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kList;
    requests.push_back(r);
  }
  return requests;
}

std::vector<Response> RunWorkload(Dispatcher& dispatcher,
                                  const std::vector<Request>& workload) {
  std::vector<Response> responses;
  responses.reserve(workload.size());
  for (const Request& request : workload) {
    responses.push_back(dispatcher.Handle(request));
  }
  return responses;
}

TEST(ServiceConcurrentTest, ParallelSessionsMatchSerialBaseline) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    // Serial baseline on a fresh workspace.
    Workspace baseline_ws;
    VIEWCAP_ASSERT_OK(baseline_ws.Load(kProgram));
    Dispatcher baseline_dispatcher(&baseline_ws);
    const std::vector<Request> workload = SessionWorkload(threads);
    const std::vector<Response> baseline =
        RunWorkload(baseline_dispatcher, workload);

    // Eight concurrent sessions against one shared warm workspace.
    Workspace shared_ws;
    VIEWCAP_ASSERT_OK(shared_ws.Load(kProgram));
    Dispatcher shared_dispatcher(&shared_ws);
    constexpr std::size_t kSessions = 8;
    std::vector<std::vector<Response>> transcripts(kSessions);
    {
      std::vector<std::thread> sessions;
      sessions.reserve(kSessions);
      for (std::size_t s = 0; s < kSessions; ++s) {
        sessions.emplace_back([&, s] {
          transcripts[s] = RunWorkload(shared_dispatcher, workload);
        });
      }
      for (std::thread& session : sessions) session.join();
    }

    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_EQ(transcripts[s].size(), baseline.size());
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(transcripts[s][i].output, baseline[i].output)
            << "threads=" << threads << " session=" << s << " request=" << i;
        EXPECT_EQ(transcripts[s][i].exit_code, baseline[i].exit_code);
        EXPECT_EQ(transcripts[s][i].verdict, baseline[i].verdict);
        EXPECT_EQ(transcripts[s][i].witness, baseline[i].witness);
      }
    }
  }
}

TEST(ServiceConcurrentTest, ConcurrentLoadsAndReadsStaySafe) {
  Workspace workspace;
  VIEWCAP_ASSERT_OK(workspace.Load(kProgram));
  Dispatcher dispatcher(&workspace);

  // Readers hammer equivalence while writers grow the workspace with
  // fresh view programs; the reader verdicts must be untouched by the
  // interleaved catalog growth.
  std::vector<std::thread> threads;
  std::vector<int> reader_failures(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&dispatcher, &reader_failures, t] {
      for (int i = 0; i < 8; ++i) {
        Request eq;
        eq.kind = RequestKind::kEquiv;
        eq.view = "V";
        eq.other_view = "W";
        eq.threads = 2;
        Response r = dispatcher.Handle(eq);
        if (!r.verdict.has_value() || !*r.verdict || r.exit_code != 0) {
          ++reader_failures[t];
        }
      }
    });
  }
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&workspace, t] {
      for (int i = 0; i < 4; ++i) {
        const std::string name =
            "Extra_" + std::to_string(t) + "_" + std::to_string(i);
        const std::string program =
            "view " + name + " { x" + std::to_string(t) +
            std::to_string(i) + " := pi{A,B}(r); }";
        VIEWCAP_EXPECT_OK(workspace.Load(program));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int failures : reader_failures) EXPECT_EQ(failures, 0);

  Request list;
  list.kind = RequestKind::kList;
  const std::string views = dispatcher.Handle(list).output;
  EXPECT_NE(views.find("Extra_0_3"), std::string::npos);
  EXPECT_NE(views.find("Extra_1_3"), std::string::npos);
}

TEST(ServiceConcurrentTest, SharedReadersRaceLoads) {
  // Every handler that registers nothing runs under the shared lock, the
  // ones that lower request expressions included; loads take it
  // exclusively and intern new names. The readers' replies must match a
  // serial run, and a rejected query must intern nothing, however the
  // requests interleave.
  constexpr const char* kData = "r(1, 1, 1);\nr(2, 1, 3);\nr(2, 2, 2);\n";
  std::vector<Request> reads;
  {
    Request r;
    r.kind = RequestKind::kAnswerable;
    r.view = "W";
    r.query = "pi{A,C}(pi{A,B}(r) * pi{B,C}(r))";  // Member.
    reads.push_back(r);
    r.query = "pi{A,C}(r)";  // Non-member.
    reads.push_back(r);
    r.query = "pi{Zz}(r)";  // Rejected: Zz is in no relation's scheme.
    reads.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kMinimize;
    r.query = "pi{A,B}(r) * pi{A,B}(r * r)";
    reads.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kCapacity;
    r.view = "W";
    r.max_leaves = 2;
    reads.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kEval;
    r.view = "W";
    r.query = "pi{A,C}(w1 * w2)";
    r.data_text = kData;
    reads.push_back(r);
  }

  Workspace baseline_ws;
  VIEWCAP_ASSERT_OK(baseline_ws.Load(kProgram));
  Dispatcher baseline_dispatcher(&baseline_ws);
  const std::vector<Response> baseline =
      RunWorkload(baseline_dispatcher, reads);
  ASSERT_EQ(baseline[0].verdict, std::optional<bool>(true));
  ASSERT_EQ(baseline[1].verdict, std::optional<bool>(false));
  ASSERT_EQ(baseline[2].status.code(), StatusCode::kIllFormed);

  Workspace workspace;
  VIEWCAP_ASSERT_OK(workspace.Load(kProgram));
  Dispatcher dispatcher(&workspace);
  const auto attributes = [&workspace] {
    return workspace.WithShared(
        [](const Analyzer& a) { return a.catalog().num_attributes(); });
  };
  const std::size_t attributes_before = attributes();

  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kWriters = 2;
  constexpr int kRounds = 4;
  constexpr int kLoads = 4;
  std::vector<std::vector<Response>> transcripts(kReaders);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (Response& r : RunWorkload(dispatcher, reads)) {
          transcripts[t].push_back(std::move(r));
        }
      }
    });
  }
  for (std::size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&dispatcher, t] {
      for (int i = 0; i < kLoads; ++i) {
        // Each load interns a fresh attribute and relation and registers
        // a view, beside the readers.
        const std::string tag = std::to_string(t) + "_" + std::to_string(i);
        Request load;
        load.kind = RequestKind::kLoad;
        load.program_text = "schema { t" + tag + "(A, X" + tag + "); }\n" +
                            "view Extra" + tag + " { x" + tag +
                            " := pi{A,B}(r); }";
        EXPECT_EQ(dispatcher.Handle(load).exit_code, 0) << tag;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kReaders; ++t) {
    ASSERT_EQ(transcripts[t].size(), kRounds * reads.size());
    for (std::size_t i = 0; i < transcripts[t].size(); ++i) {
      const Response& got = transcripts[t][i];
      const Response& want = baseline[i % reads.size()];
      EXPECT_EQ(got.output, want.output) << "reader=" << t << " reply=" << i;
      EXPECT_EQ(got.exit_code, want.exit_code);
      EXPECT_EQ(got.verdict, want.verdict);
      EXPECT_EQ(got.witness, want.witness);
      EXPECT_EQ(got.status.code(), want.status.code());
      EXPECT_EQ(got.status.message(), want.status.message());
    }
  }
  // The loads interned one attribute each; the rejected queries none.
  EXPECT_EQ(attributes(), attributes_before + kWriters * kLoads);
}

TEST(ServiceConcurrentTest, ConcurrentProtocolSessionsShareServerStats) {
  Workspace workspace;
  VIEWCAP_ASSERT_OK(workspace.Load(kProgram));
  Dispatcher dispatcher(&workspace);
  ServerStats stats;

  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kRequestsPerSession = 3;
  std::vector<std::string> outputs(kSessions);
  std::vector<std::thread> sessions;
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&dispatcher, &stats, &outputs, s] {
      std::string input;
      for (std::size_t i = 0; i < kRequestsPerSession; ++i) {
        input +=
            R"js({"id":1,"method":"answerable","params":)js"
            R"js({"view":"W","query":"pi{A,B}(r)","threads":2}})js"
            "\n";
      }
      std::istringstream in(input);
      std::ostringstream out;
      ServeSession(dispatcher, &stats, in, out);
      outputs[s] = out.str();
    });
  }
  for (std::thread& session : sessions) session.join();

  for (const std::string& output : outputs) {
    EXPECT_EQ(output, outputs.front());
    EXPECT_NE(output.find("\"verdict\":true"), std::string::npos);
  }
  EXPECT_EQ(stats.sessions.load(), kSessions);
  EXPECT_EQ(stats.requests.load(), kSessions * kRequestsPerSession);
}

}  // namespace
}  // namespace viewcap
