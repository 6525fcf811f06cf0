// Core SpecRPC engine semantics: Figure 1 quickstart behaviour, client- and
// server-side speculation (§2.1), multi-level speculation (§2.2), incorrect
// prediction handling and re-execution (§3.3), rollback and specBlock
// (§3.5.2).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/env.h"
#include "common/sync.h"
#include "specrpc/engine.h"
#include "transport/sim_network.h"

namespace srpc::spec {
namespace {

class SpecEngineTest : public ::testing::Test {
 protected:
  SpecEngineTest() {
    SimConfig config;
    config.executor_threads = 6;
    config.default_delay = std::chrono::milliseconds(2);
    net_ = std::make_unique<SimNetwork>(config);
    client_engine_ = std::make_unique<SpecEngine>(
        net_->add_node("client"), net_->executor(), net_->wheel());
    server_engine_ = std::make_unique<SpecEngine>(
        net_->add_node("server"), net_->executor(), net_->wheel());
    server2_engine_ = std::make_unique<SpecEngine>(
        net_->add_node("server2"), net_->executor(), net_->wheel());
  }

  ~SpecEngineTest() override {
    client_engine_->begin_shutdown();
    server_engine_->begin_shutdown();
    server2_engine_->begin_shutdown();
    net_->executor().shutdown();  // drain in-flight callbacks
    client_engine_.reset();
    server_engine_.reset();
    server2_engine_.reset();
    net_.reset();
  }

  void register_plus() {
    server_engine_->register_method("plus", Handler([](const ServerCallPtr& c) {
      c->finish(Value(c->args().at(0).as_int() + c->args().at(1).as_int()));
    }));
  }

  static CallbackFactory increment_factory(std::atomic<int>* runs = nullptr) {
    return [runs]() -> CallbackFn {
      return [runs](SpecContext&, const Value& v) -> CallbackResult {
        if (runs != nullptr) runs->fetch_add(1);
        return Value(v.as_int() + 1);
      };
    };
  }

  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<SpecEngine> client_engine_;
  std::unique_ptr<SpecEngine> server_engine_;
  std::unique_ptr<SpecEngine> server2_engine_;
};

TEST_F(SpecEngineTest, PlainCallWithoutCallbackResolvesWithRpcResult) {
  register_plus();
  auto future = client_engine_->call("server", "plus", make_args(1, 2));
  EXPECT_EQ(future->get(), Value(3));
}

TEST_F(SpecEngineTest, Figure1CorrectClientPrediction) {
  register_plus();
  std::atomic<int> runs{0};
  auto future = client_engine_->call("server", "plus", make_args(1, 2),
                                     {Value(3)}, increment_factory(&runs));
  EXPECT_EQ(future->get(), Value(4));
  EXPECT_EQ(runs.load(), 1);  // correct prediction: exactly one execution
  auto stats = client_engine_->stats();
  EXPECT_EQ(stats.predictions_correct, 1u);
  EXPECT_EQ(stats.predictions_incorrect, 0u);
  EXPECT_EQ(stats.reexecutions, 0u);
}

TEST_F(SpecEngineTest, IncorrectPredictionReexecutesOnActual) {
  register_plus();
  std::atomic<int> runs{0};
  auto future = client_engine_->call("server", "plus", make_args(1, 2),
                                     {Value(99)}, increment_factory(&runs));
  EXPECT_EQ(future->get(), Value(4));
  EXPECT_EQ(runs.load(), 2);  // speculative run + re-execution
  auto stats = client_engine_->stats();
  EXPECT_EQ(stats.predictions_incorrect, 1u);
  EXPECT_EQ(stats.reexecutions, 1u);
}

TEST_F(SpecEngineTest, MultiplePredictionsOnlyMatchingBranchDelivers) {
  register_plus();
  std::atomic<int> runs{0};
  auto future =
      client_engine_->call("server", "plus", make_args(1, 2),
                           {Value(7), Value(3), Value(11)},
                           increment_factory(&runs));
  EXPECT_EQ(future->get(), Value(4));
  EXPECT_EQ(runs.load(), 3);  // three branches, no re-execution
  auto stats = client_engine_->stats();
  EXPECT_EQ(stats.predictions_correct, 1u);
  EXPECT_EQ(stats.predictions_incorrect, 2u);
  EXPECT_EQ(stats.reexecutions, 0u);
}

TEST_F(SpecEngineTest, DuplicatePredictionsAreDeduplicated) {
  register_plus();
  std::atomic<int> runs{0};
  auto future = client_engine_->call("server", "plus", make_args(1, 2),
                                     {Value(3), Value(3), Value(3)},
                                     increment_factory(&runs));
  EXPECT_EQ(future->get(), Value(4));
  EXPECT_EQ(runs.load(), 1);
}

TEST_F(SpecEngineTest, ServerSidePredictionViaSpecReturn) {
  // Server predicts its result before slow work completes (§2.1, Fig 2c).
  server_engine_->register_method(
      "slow_plus", Handler([](const ServerCallPtr& c) {
        const std::int64_t sum =
            c->args().at(0).as_int() + c->args().at(1).as_int();
        c->spec_return(Value(sum));  // accurate early prediction
        c->finish_after(std::chrono::milliseconds(30), Value(sum));
      }));
  std::atomic<int> runs{0};
  auto t0 = Clock::now();
  auto future = client_engine_->call("server", "slow_plus", make_args(20, 22),
                                     {}, increment_factory(&runs));
  EXPECT_EQ(future->get(), Value(43));
  auto elapsed = Clock::now() - t0;
  EXPECT_EQ(runs.load(), 1);
  // The dependent operation ran during the server's 30ms of work; total
  // time is still bounded by the RPC itself (~34ms), not doubled.
  EXPECT_LT(to_ms(elapsed), 100.0);
  EXPECT_EQ(client_engine_->stats().predictions_correct, 1u);
}

TEST_F(SpecEngineTest, RollbackRunsExactlyOnceOnMisprediction) {
  register_plus();
  std::atomic<int> rollbacks{0};
  auto factory = [&rollbacks]() -> CallbackFn {
    return [&rollbacks](SpecContext& ctx, const Value& v) -> CallbackResult {
      ctx.set_rollback([&rollbacks] { rollbacks.fetch_add(1); });
      return Value(v.as_int() + 1);
    };
  };
  auto future = client_engine_->call("server", "plus", make_args(1, 2),
                                     {Value(99)}, factory);
  EXPECT_EQ(future->get(), Value(4));
  // Allow the deferred rollback action to run.
  for (int i = 0; i < 100 && rollbacks.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rollbacks.load(), 1);
  EXPECT_EQ(client_engine_->stats().rollbacks_run, 1u);
}

TEST_F(SpecEngineTest, SpecBlockReturnsOnCorrectSpeculation) {
  register_plus();
  std::atomic<bool> blocked_then_ran{false};
  auto factory = [&]() -> CallbackFn {
    return [&](SpecContext& ctx, const Value& v) -> CallbackResult {
      ctx.spec_block();  // wait until non-speculative
      blocked_then_ran.store(true);
      return Value(v.as_int() * 10);
    };
  };
  auto future = client_engine_->call("server", "plus", make_args(1, 2),
                                     {Value(3)}, factory);
  EXPECT_EQ(future->get(), Value(30));
  EXPECT_TRUE(blocked_then_ran.load());
}

TEST_F(SpecEngineTest, SpecBlockThrowsOnMisspeculation) {
  // Hold the actual response until the speculative callback has started, so
  // it reliably misspeculates: once the callback runs with the predicted
  // value, the later actual response invalidates it no matter how the
  // threads interleave (a fixed delay here was flaky under CPU load).
  srpc::Event callback_entered;
  server_engine_->register_method(
      "slow_plus", Handler([&callback_entered](const ServerCallPtr& c) {
        callback_entered.wait();
        c->finish_after(
            std::chrono::milliseconds(1),
            Value(c->args().at(0).as_int() + c->args().at(1).as_int()));
      }));
  std::atomic<int> misspeculations{0};
  std::atomic<int> completions{0};
  // The parked speculative callback observes its invalidation
  // asynchronously: the future resolves via the actual-value branch, so
  // get() returning does not order after the misspeculation throw.
  srpc::Event misspeculation_seen;
  auto factory = [&]() -> CallbackFn {
    return [&](SpecContext& ctx, const Value& v) -> CallbackResult {
      callback_entered.set();
      try {
        ctx.spec_block();
      } catch (const MisspeculationError&) {
        misspeculations.fetch_add(1);
        misspeculation_seen.set();
        throw;
      }
      completions.fetch_add(1);
      return Value(v.as_int() * 10);
    };
  };
  auto future = client_engine_->call("server", "slow_plus", make_args(1, 2),
                                     {Value(99)}, factory);
  EXPECT_EQ(future->get(), Value(30));
  EXPECT_TRUE(misspeculation_seen.wait_for(std::chrono::seconds(10)));
  EXPECT_EQ(misspeculations.load(), 1);
  EXPECT_EQ(completions.load(), 1);
}

TEST_F(SpecEngineTest, ChainedCallsMultiLevelSpeculation) {
  // client -> plus(1,2) -> callback issues plus(result,10) -> final callback.
  register_plus();
  std::atomic<int> second_runs{0};
  auto inner_factory = [&second_runs]() -> CallbackFn {
    return [&second_runs](SpecContext&, const Value& v) -> CallbackResult {
      second_runs.fetch_add(1);
      return Value(v.as_int() + 100);
    };
  };
  auto outer_factory = [inner_factory]() -> CallbackFn {
    return [inner_factory](SpecContext& ctx, const Value& v) -> CallbackResult {
      // Speculatively predict the nested RPC result too (MLS, §2.2).
      return ctx.call("server", "plus", make_args(v.as_int(), 10),
                      {Value(v.as_int() + 10)}, inner_factory);
    };
  };
  auto future = client_engine_->call("server", "plus", make_args(1, 2),
                                     {Value(3)}, outer_factory);
  EXPECT_EQ(future->get(), Value(113));  // ((1+2)+10)+100
  EXPECT_EQ(second_runs.load(), 1);      // both levels predicted correctly
}

TEST_F(SpecEngineTest, ChainWithWrongFirstPredictionAbandonsNestedCall) {
  register_plus();
  std::atomic<int> inner_runs{0};
  auto inner_factory = [&inner_runs]() -> CallbackFn {
    return [&inner_runs](SpecContext&, const Value& v) -> CallbackResult {
      inner_runs.fetch_add(1);
      return Value(v.as_int() + 100);
    };
  };
  auto outer_factory = [inner_factory]() -> CallbackFn {
    return [inner_factory](SpecContext& ctx, const Value& v) -> CallbackResult {
      return ctx.call("server", "plus", make_args(v.as_int(), 10),
                      {Value(v.as_int() + 10)}, inner_factory);
    };
  };
  auto future = client_engine_->call("server", "plus", make_args(1, 2),
                                     {Value(50)}, outer_factory);
  // Wrong first prediction (50 != 3): the speculative nested chain is
  // abandoned; the re-executed chain delivers the correct value.
  EXPECT_EQ(future->get(), Value(113));
  auto stats = client_engine_->stats();
  EXPECT_GE(stats.branches_abandoned, 1u);
}

TEST_F(SpecEngineTest, ServerToServerSpeculation) {
  // Figure 3 shape: client -> server(getPI) -> server2(getPH). The middle
  // server speculatively returns its result based on a predicted getPH.
  server2_engine_->register_method(
      "getPH", Handler([](const ServerCallPtr& c) {
        c->spec_return(Value("history"));  // local data before sync completes
        c->finish_after(std::chrono::milliseconds(20), Value("history"));
      }));
  server_engine_->register_method(
      "getPI", Handler([](const ServerCallPtr& c) {
        auto factory = [call = c]() -> CallbackFn {
          return [call](SpecContext&, const Value& ph) -> CallbackResult {
            Value pi("PI:" + ph.as_string());
            call->finish(pi);  // predicted first, actual once PH resolves
            return pi;
          };
        };
        c->call("server2", "getPH", make_args("user1"), {}, factory);
      }));
  auto t0 = Clock::now();
  auto future = client_engine_->call("server", "getPI", make_args("user1"));
  EXPECT_EQ(future->get(), Value("PI:history"));
  // The client must eventually receive the *actual* response even though the
  // first response it saw was speculative.
  EXPECT_LT(to_ms(Clock::now() - t0), 500.0);
}

TEST_F(SpecEngineTest, QuorumCallFirstResponsePredictsResult) {
  for (auto* engine : {server_engine_.get(), server2_engine_.get()}) {
    engine->register_method("read", Handler([](const ServerCallPtr& c) {
      c->finish(Value("v1"));
    }));
  }
  client_engine_->register_method("read", Handler([](const ServerCallPtr& c) {
    c->finish(Value("v1"));
  }));
  // Make server2 far away so the quorum (2 of 3) is dominated by it... use
  // asymmetric delays: client->server2 slow.
  net_->set_rtt("client", "server2", std::chrono::milliseconds(40));
  std::atomic<int> runs{0};
  auto combiner = [](const std::vector<Value>& responses) {
    return responses.front();
  };
  auto factory = [&runs]() -> CallbackFn {
    return [&runs](SpecContext&, const Value& v) -> CallbackResult {
      runs.fetch_add(1);
      return v;
    };
  };
  auto future = client_engine_->call_quorum(
      {"server", "server2"}, 2, "read", make_args("k"), combiner, factory);
  EXPECT_EQ(future->get(), Value("v1"));
  EXPECT_EQ(runs.load(), 1);  // first response predicted the quorum result
  auto stats = client_engine_->stats();
  EXPECT_EQ(stats.quorum_calls_issued, 1u);
  EXPECT_EQ(stats.predictions_correct, 1u);
}

TEST_F(SpecEngineTest, UnknownMethodFailsTheFuture) {
  auto future = client_engine_->call("server", "nope", make_args(1));
  EXPECT_THROW(future->get(), rpc::RpcError);
}

TEST_F(SpecEngineTest, HandlerFailurePropagates) {
  server_engine_->register_method("boom", Handler([](const ServerCallPtr& c) {
    c->fail("kaboom");
  }));
  auto future = client_engine_->call("server", "boom", make_args());
  EXPECT_THROW(future->get(), rpc::RpcError);
}

TEST_F(SpecEngineTest, AdversarialAlwaysWrongPredictionsStillComplete) {
  // Figure 6's bad scenario: every prediction is wrong at every level; the
  // client must still observe exactly the sequential-equivalent result.
  register_plus();
  auto inner_factory = []() -> CallbackFn {
    return [](SpecContext&, const Value& v) -> CallbackResult {
      return Value(v.as_int() * 2);
    };
  };
  auto outer_factory = [inner_factory]() -> CallbackFn {
    return [inner_factory](SpecContext& ctx, const Value& v) -> CallbackResult {
      return ctx.call("server", "plus", make_args(v.as_int(), 5),
                      {Value(-1)} /* always wrong */, inner_factory);
    };
  };
  for (int i = 0; i < 5; ++i) {
    auto future = client_engine_->call("server", "plus", make_args(i, 1),
                                       {Value(-1)} /* always wrong */,
                                       outer_factory);
    EXPECT_EQ(future->get(), Value(((i + 1) + 5) * 2));
  }
  auto stats = client_engine_->stats();
  EXPECT_EQ(stats.predictions_correct, 0u);
  EXPECT_GE(stats.reexecutions, 5u);
}

TEST_F(SpecEngineTest, CallsFromAnAbandonedBranchLeaveNoServerState) {
  // A wrong-prediction callback issues calls until its branch is abandoned.
  // One call per chain usually races the abandonment: it passes call()'s
  // liveness check, but its node is born incorrect. Such a call must send
  // nothing — a request sent with caller_speculative=true and no listener
  // to send the state change would pin a server record forever.
  register_plus();
  server2_engine_->register_method("noop", Handler([](const ServerCallPtr& c) {
    c->finish(Value(0));
  }));
  auto factory = []() -> CallbackFn {
    return [](SpecContext& ctx, const Value& v) -> CallbackResult {
      if (v.as_int() == 3) return v;  // the actual: done
      for (int i = 0; i < 20000; ++i) {
        ctx.call("server2", "noop", make_args());  // throws once abandoned
      }
      return v;
    };
  };
  for (int i = 0; i < 30; ++i) {
    auto future = client_engine_->call("server", "plus", make_args(1, 2),
                                       {Value(99)}, factory);
    EXPECT_EQ(future->get(), Value(3));
  }
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (server2_engine_->debug_sizes().incoming != 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server2_engine_->debug_sizes().incoming, 0u);
}

}  // namespace
}  // namespace srpc::spec
