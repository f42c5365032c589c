// Failpoint registry semantics: arm/disarm, trigger policies, the env
// spec grammar, and the ABC_FAILPOINT fast path. The end-to-end behavior
// of the woven points lives in tests/test_fault_matrix.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <new>
#include <string>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace abc {
namespace {

constexpr const char* kPoint = "test.point";

/// Every test leaves the registry clean, so suites can run in any order.
struct FailpointTest : ::testing::Test {
  void TearDown() override { fail::disarm_all(); }
};

TEST_F(FailpointTest, UnarmedPointIsInvisible) {
  EXPECT_FALSE(fail::armed(kPoint));
  for (int i = 0; i < 100; ++i) ABC_FAILPOINT(kPoint);
  EXPECT_EQ(fail::hits(kPoint), 0u);
  EXPECT_EQ(fail::fires(kPoint), 0u);
}

TEST_F(FailpointTest, ArmedAlwaysThrowsEveryHit) {
  fail::arm(kPoint, fail::Policy{});
  EXPECT_TRUE(fail::armed(kPoint));
  EXPECT_THROW(ABC_FAILPOINT(kPoint), InvalidArgument);
  EXPECT_THROW(ABC_FAILPOINT(kPoint), InvalidArgument);
  EXPECT_EQ(fail::hits(kPoint), 2u);
  EXPECT_EQ(fail::fires(kPoint), 2u);
  fail::disarm(kPoint);
  EXPECT_FALSE(fail::armed(kPoint));
  ABC_FAILPOINT(kPoint);  // must be silent again
}

TEST_F(FailpointTest, ActionsMapToTheAdvertisedExceptionTypes) {
  fail::Policy policy;
  policy.action = fail::Action::kThrowLogicError;
  fail::arm(kPoint, policy);
  EXPECT_THROW(ABC_FAILPOINT(kPoint), LogicError);
  policy.action = fail::Action::kThrowRuntimeError;
  fail::arm(kPoint, policy);
  EXPECT_THROW(ABC_FAILPOINT(kPoint), std::runtime_error);
  policy.action = fail::Action::kThrowBadAlloc;
  fail::arm(kPoint, policy);
  EXPECT_THROW(ABC_FAILPOINT(kPoint), std::bad_alloc);
}

TEST_F(FailpointTest, InjectedMessageNamesThePoint) {
  fail::arm(kPoint, fail::Policy{});
  try {
    ABC_FAILPOINT(kPoint);
    FAIL() << "failpoint did not fire";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(kPoint), std::string::npos);
  }
}

TEST_F(FailpointTest, NthHitFiresExactlyOnce) {
  fail::Policy policy;
  policy.trigger = fail::Trigger::kNthHit;
  policy.nth = 3;
  fail::arm(kPoint, policy);
  ABC_FAILPOINT(kPoint);
  ABC_FAILPOINT(kPoint);
  EXPECT_EQ(fail::fires(kPoint), 0u);
  EXPECT_THROW(ABC_FAILPOINT(kPoint), InvalidArgument);
  ABC_FAILPOINT(kPoint);  // hit 4: past the nth, silent again
  EXPECT_EQ(fail::hits(kPoint), 4u);
  EXPECT_EQ(fail::fires(kPoint), 1u);
}

TEST_F(FailpointTest, ProbabilityReplaysDeterministicallyForASeed) {
  const auto pattern = [&](u64 seed) {
    fail::Policy policy;
    policy.trigger = fail::Trigger::kProbability;
    policy.probability = 0.5;
    policy.seed = seed;
    fail::arm(kPoint, policy);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      try {
        ABC_FAILPOINT(kPoint);
        fired.push_back(false);
      } catch (const InvalidArgument&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const std::vector<bool> a = pattern(7);
  const std::vector<bool> b = pattern(7);
  EXPECT_EQ(a, b) << "same seed must replay the same fault pattern";
  EXPECT_NE(a, pattern(8)) << "different seeds should diverge";
  // p=0.5 over 64 draws: both outcomes must appear (P[miss] ~ 2^-64).
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST_F(FailpointTest, ProbabilityZeroNeverFiresOneAlwaysDoes) {
  fail::Policy policy;
  policy.trigger = fail::Trigger::kProbability;
  policy.probability = 0.0;
  fail::arm(kPoint, policy);
  for (int i = 0; i < 50; ++i) ABC_FAILPOINT(kPoint);
  EXPECT_EQ(fail::fires(kPoint), 0u);
  policy.probability = 1.0;
  fail::arm(kPoint, policy);
  EXPECT_THROW(ABC_FAILPOINT(kPoint), InvalidArgument);
}

TEST_F(FailpointTest, MaxFiresExhaustsButStaysRegistered) {
  fail::Policy policy;
  policy.max_fires = 2;
  fail::arm(kPoint, policy);
  EXPECT_THROW(ABC_FAILPOINT(kPoint), InvalidArgument);
  EXPECT_THROW(ABC_FAILPOINT(kPoint), InvalidArgument);
  ABC_FAILPOINT(kPoint);  // exhausted: passes through
  ABC_FAILPOINT(kPoint);
  EXPECT_TRUE(fail::armed(kPoint));
  EXPECT_EQ(fail::hits(kPoint), 4u);
  EXPECT_EQ(fail::fires(kPoint), 2u);
  // Re-arming resets the counters and the exhaustion.
  fail::arm(kPoint, policy);
  EXPECT_THROW(ABC_FAILPOINT(kPoint), InvalidArgument);
  EXPECT_EQ(fail::fires(kPoint), 1u);
}

TEST_F(FailpointTest, DelayActionSleepsThenContinues) {
  fail::Policy policy;
  policy.action = fail::Action::kDelay;
  policy.delay_us = 2000;
  fail::arm(kPoint, policy);
  const auto t0 = std::chrono::steady_clock::now();
  ABC_FAILPOINT(kPoint);  // must not throw
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            2000);
  EXPECT_EQ(fail::fires(kPoint), 1u);
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    fail::ScopedFailpoint guard(kPoint, fail::Policy{});
    EXPECT_TRUE(fail::armed(kPoint));
  }
  EXPECT_FALSE(fail::armed(kPoint));
}

TEST_F(FailpointTest, InstallSpecArmsEveryEntry) {
  fail::install_spec(
      "serialize.ct=throw@hit:2;backend.worker_job=delay:200@prob:0.25/7,"
      "limit:4;engine.encrypt_item=badalloc");
  EXPECT_TRUE(fail::armed(fail::points::kDeserializeCiphertext));
  EXPECT_TRUE(fail::armed(fail::points::kBackendWorkerJob));
  EXPECT_TRUE(fail::armed(fail::points::kEncryptItem));
  // hit:2 semantics survive the round trip through the grammar.
  ABC_FAILPOINT(fail::points::kDeserializeCiphertext);
  EXPECT_THROW(ABC_FAILPOINT(fail::points::kDeserializeCiphertext),
               InvalidArgument);
}

TEST_F(FailpointTest, InstallSpecToleratesSeparatorSlack) {
  fail::install_spec(";test.point=throw;;");
  EXPECT_TRUE(fail::armed(kPoint));
}

TEST_F(FailpointTest, MalformedSpecsThrowInvalidArgument) {
  const char* bad[] = {
      "noequals",                 // not name=action
      "=throw",                   // empty name
      "a=bogus",                  // unknown action
      "a=delay:xyz",              // non-integer delay
      "a=throw@hit:0",            // hit is 1-based
      "a=throw@prob:2.0",         // probability out of range
      "a=throw@prob:0.5/abc",     // non-integer seed
      "a=throw@limit:0",          // limit at least 1
      "a=throw@frequency:3",      // unknown modifier
  };
  for (const char* spec : bad) {
    EXPECT_THROW(fail::install_spec(spec), InvalidArgument) << spec;
    EXPECT_FALSE(fail::armed("a"));
  }
}

TEST_F(FailpointTest, DisarmAllClearsEveryPoint) {
  fail::arm("test.a", fail::Policy{});
  fail::arm("test.b", fail::Policy{});
  fail::disarm_all();
  EXPECT_FALSE(fail::armed("test.a"));
  EXPECT_FALSE(fail::armed("test.b"));
  ABC_FAILPOINT("test.a");
  EXPECT_EQ(fail::hits("test.a"), 0u);
}

TEST_F(FailpointTest, CatalogNamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names;
  for (const fail::points::Entry& e : fail::points::kAll) {
    names.emplace_back(e.name);
  }
  for (const std::string& n : names) EXPECT_FALSE(n.empty());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end())
      << "duplicate catalog entry";
}

}  // namespace
}  // namespace abc
