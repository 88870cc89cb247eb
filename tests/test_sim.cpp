/// Unit tests for the discrete-event simulation engine: virtual-time
/// semantics, deterministic scheduling, deadlock detection, exception
/// propagation, and the regression for early wake-ups during advance().

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/participant.hpp"

namespace {

using namespace caf2::sim;

TEST(Engine, AdvanceMovesVirtualTime) {
  Engine engine(1);
  double end_time = -1;
  engine.run([&](int) {
    Engine& e = this_engine();
    EXPECT_EQ(e.now(), 0.0);
    e.advance(2.5);
    EXPECT_EQ(e.now(), 2.5);
    e.advance(0.5);
    end_time = e.now();
  });
  EXPECT_EQ(end_time, 3.0);
}

TEST(Engine, EventsInterleaveByTime) {
  // Participant 0 advances in steps of 3, participant 1 in steps of 2; the
  // global order of resume times must be merged by virtual time.
  std::vector<std::pair<int, double>> resumes;
  Engine engine(2);
  engine.run([&](int id) {
    Engine& e = this_engine();
    for (int i = 0; i < 3; ++i) {
      e.advance(id == 0 ? 3.0 : 2.0);
      resumes.emplace_back(id, e.now());
    }
  });
  // The t=6 tie breaks by insertion order: p0 scheduled its wake at t=3,
  // before p1 scheduled its own at t=4.
  const std::vector<std::pair<int, double>> expect{
      {1, 2.0}, {0, 3.0}, {1, 4.0}, {0, 6.0}, {1, 6.0}, {0, 9.0}};
  EXPECT_EQ(resumes, expect);
}

TEST(Engine, EqualTimesDispatchFifo) {
  std::vector<int> order;
  Engine engine(3);
  engine.run([&](int id) {
    Engine& e = this_engine();
    e.advance(1.0);  // all three schedule wakes for t=1
    order.push_back(id);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, PostRunsCallbacksAtTheirTime) {
  std::vector<double> call_times;
  Engine engine(1);
  engine.run([&](int) {
    Engine& e = this_engine();
    e.post(5.0, [&] { call_times.push_back(e.now()); });
    e.post(2.0, [&] { call_times.push_back(e.now()); });
    e.advance(10.0);
  });
  EXPECT_EQ(call_times, (std::vector<double>{2.0, 5.0}));
}

TEST(Engine, PostInThePastClampsToNow) {
  Engine engine(1);
  double ran_at = -1;
  engine.run([&](int) {
    Engine& e = this_engine();
    e.advance(4.0);
    e.post(1.0, [&] { ran_at = e.now(); });  // "1.0" is in the past
    e.advance(1.0);
  });
  EXPECT_EQ(ran_at, 4.0);
}

TEST(Engine, BlockAndUnblockHandOff) {
  Engine engine(2);
  double woke_at = -1;
  engine.run([&](int id) {
    Engine& e = this_engine();
    if (id == 0) {
      e.block();
      woke_at = e.now();
    } else {
      e.advance(7.0);
      e.unblock(0);
    }
  });
  EXPECT_EQ(woke_at, 7.0);
}

TEST(Engine, AdvanceIgnoresStrayWakes) {
  // Regression: a spurious unblock must not end a modeled computation early.
  Engine engine(2);
  double resumed_at = -1;
  engine.run([&](int id) {
    Engine& e = this_engine();
    if (id == 0) {
      e.advance(0.5);  // let participant 1 set up
      e.advance(100.0);
      resumed_at = e.now();
    } else {
      for (int i = 0; i < 5; ++i) {
        e.advance(3.0);
        e.unblock(0);  // stray wakes aimed at the computing participant
      }
    }
  });
  EXPECT_EQ(resumed_at, 100.5);
}

TEST(Engine, DeterministicTraces) {
  auto body = [](int id) {
    Engine& e = this_engine();
    for (int i = 0; i < 20; ++i) {
      e.advance(0.1 * (id + 1));
      if (i % 3 == 0) {
        e.post_in(0.05, [] {});
      }
    }
  };
  EngineOptions options;
  options.record_trace = true;
  Engine a(4, options);
  Engine b(4, options);
  a.run(body);
  b.run(body);
  EXPECT_EQ(render_trace(a.trace()), render_trace(b.trace()));
  EXPECT_GT(a.trace().size(), 80u);
}

TEST(Engine, DeadlockDetectedWithDiagnostic) {
  Engine engine(3);
  try {
    engine.run([](int id) {
      if (id != 0) {
        this_engine().block();
      }
    });
    FAIL() << "expected FatalError";
  } catch (const caf2::FatalError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("p1"), std::string::npos);
    EXPECT_NE(what.find("p2"), std::string::npos);
  }
}

TEST(Engine, ParticipantExceptionPropagates) {
  Engine engine(3);
  EXPECT_THROW(engine.run([](int id) {
                 this_engine().advance(1.0);
                 if (id == 1) {
                   throw std::runtime_error("boom");
                 }
                 // The others park; the engine must unwind them.
                 this_engine().block();
               }),
               std::runtime_error);
}

TEST(Engine, EventBudgetGuardsRunaways) {
  EngineOptions options;
  options.max_events = 50;
  Engine engine(1, options);
  EXPECT_THROW(engine.run([](int) {
                 Engine& e = this_engine();
                 for (;;) {
                   e.advance(1.0);
                 }
               }),
               caf2::FatalError);
}

TEST(Engine, RunTwiceRejected) {
  Engine engine(1);
  engine.run([](int) {});
  EXPECT_THROW(engine.run([](int) {}), caf2::UsageError);
}

TEST(Engine, CallbacksMayScheduleMoreCallbacks) {
  Engine engine(1);
  int depth_reached = 0;
  engine.run([&](int) {
    Engine& e = this_engine();
    std::function<void(int)> chain = [&](int depth) {
      depth_reached = depth;
      if (depth < 10) {
        e.post_in(1.0, [&, depth] { chain(depth + 1); });
      }
    };
    e.post_in(1.0, [&] { chain(1); });
    e.advance(30.0);
  });
  EXPECT_EQ(depth_reached, 10);
}

TEST(Engine, BlockOutsideParticipantRejected) {
  Engine engine(1);
  EXPECT_THROW(engine.block(), caf2::UsageError);
  EXPECT_THROW(engine.advance(1.0), caf2::UsageError);
  engine.run([](int) {});
}

TEST(Engine, OutsideContextCallsRejectedOnMultiShardEngine) {
  EngineOptions options;
  options.shards = 2;
  options.lookahead_us = 1.0;
  Engine engine(4, options);
  ASSERT_EQ(engine.shard_count(), 2);
  // Participant 0 lives on shard 0, participant 3 on shard 1: both are
  // rejected, whichever shard the target is on.
  for (int participant : {0, 3}) {
    EXPECT_THROW(engine.unblock(participant), caf2::UsageError);
    EXPECT_THROW(engine.post_for(participant, 5.0, [] {}), caf2::UsageError);
  }
  engine.run([](int) {});
}

TEST(Engine, CurrentContextHelpers) {
  EXPECT_FALSE(on_participant_thread());
  Engine engine(2);
  engine.run([&](int id) {
    EXPECT_TRUE(on_participant_thread());
    EXPECT_EQ(this_participant(), id);
    EXPECT_EQ(&this_engine(), &engine);
  });
}

TEST(Engine, NegativeAdvanceRejected) {
  Engine engine(1);
  EXPECT_THROW(engine.run([](int) { this_engine().advance(-1.0); }),
               caf2::UsageError);
}

/// --- environment switches ----------------------------------------------------

/// Sets an environment variable for one scope and restores the prior value
/// (CI exports these switches for whole suites).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* prior = std::getenv(name)) {
      prior_ = prior;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (prior_) {
      ::setenv(name_, prior_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> prior_;
};

/// The UsageError message \p call throws, or "" when it does not throw.
std::string usage_error(const std::function<void()>& call) {
  try {
    call();
  } catch (const caf2::UsageError& error) {
    return error.what();
  }
  return "";
}

TEST(EngineEnv, ShardCountParsedStrictly) {
  for (const char* bad : {"4x", "abc", "-2", "0", " 3", "99999999999"}) {
    ScopedEnv env("CAF2_SIM_SHARDS", bad);
    const std::string message = usage_error([] { resolve_shards(0); });
    EXPECT_NE(message.find(std::string("CAF2_SIM_SHARDS='") + bad + "'"),
              std::string::npos)
        << "value '" << bad << "': " << message;
  }
  {
    ScopedEnv env("CAF2_SIM_SHARDS", "3");
    EXPECT_EQ(resolve_shards(0), 3);
    EXPECT_EQ(resolve_shards(2), 2);  // an explicit request wins
  }
  ScopedEnv empty("CAF2_SIM_SHARDS", "");  // empty means unset
  EXPECT_EQ(resolve_shards(0), 1);
}

TEST(EngineEnv, NoFastpathParsedStrictly) {
  for (const char* bad : {"bogus", "true", "2", "ON"}) {
    ScopedEnv env("CAF2_SIM_NO_FASTPATH", bad);
    const std::string message = usage_error([] { Engine engine(1); });
    EXPECT_NE(message.find(std::string("CAF2_SIM_NO_FASTPATH='") + bad +
                           "' is not valid (expected 0, off, 1 or on)"),
              std::string::npos)
        << "value '" << bad << "': " << message;
  }
  for (const char* keep : {"0", "off", ""}) {
    ScopedEnv env("CAF2_SIM_NO_FASTPATH", keep);
    EXPECT_TRUE(Engine(1).fastpath_enabled()) << "value '" << keep << "'";
    EngineOptions slow;
    slow.enable_fastpath = false;
    EXPECT_FALSE(Engine(1, slow).fastpath_enabled());
  }
  for (const char* disable : {"1", "on"}) {
    ScopedEnv env("CAF2_SIM_NO_FASTPATH", disable);
    EXPECT_FALSE(Engine(1).fastpath_enabled()) << "value '" << disable << "'";
  }
}

}  // namespace
