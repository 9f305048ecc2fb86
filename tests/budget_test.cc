// Unit tests for the resource-governance primitives (util/budget.h): every
// cap trips with an informative kResourceExhausted naming the stage, the
// count reached, and the knob to raise.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "phr/phr.h"
#include "query/evaluator.h"
#include "query/phr_compile.h"
#include "util/budget.h"

namespace hedgeq {
namespace {

bool Contains(const Status& s, const char* needle) {
  return s.message().find(needle) != std::string::npos;
}

TEST(BudgetScopeTest, StateCapTripsWithInformativeMessage) {
  ExecBudget budget;
  budget.max_states = 10;
  BudgetScope scope(budget);
  EXPECT_TRUE(scope.ChargeStates(10, "determinize").ok());
  EXPECT_EQ(scope.states_used(), 10u);
  Status s = scope.ChargeStates(1, "determinize");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(Contains(s, "determinize")) << s.ToString();
  EXPECT_TRUE(Contains(s, "max_states=10")) << s.ToString();
  EXPECT_TRUE(Contains(s, "reached 11")) << s.ToString();
  EXPECT_TRUE(Contains(s, "larger ExecBudget")) << s.ToString();
}

TEST(BudgetScopeTest, ByteCapReleasesAllowReuse) {
  ExecBudget budget;
  budget.max_memory_bytes = 100;
  BudgetScope scope(budget);
  EXPECT_TRUE(scope.ChargeBytes(80, "cache").ok());
  Status s = scope.ChargeBytes(40, "cache");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(Contains(s, "max_memory_bytes")) << s.ToString();
  // Eviction gives the bytes back; the pool is reusable.
  scope.ReleaseBytes(60);
  EXPECT_EQ(scope.bytes_used(), 60u);
  EXPECT_TRUE(scope.ChargeBytes(40, "cache").ok());
  // Over-release clamps to zero rather than underflowing.
  scope.ReleaseBytes(std::numeric_limits<size_t>::max());
  EXPECT_EQ(scope.bytes_used(), 0u);
}

TEST(BudgetScopeTest, StepCapIsCumulativeAcrossStages) {
  ExecBudget budget;
  budget.max_steps = 5;
  BudgetScope scope(budget);
  EXPECT_TRUE(scope.ChargeSteps(3, "stage-one").ok());
  EXPECT_TRUE(scope.ChargeSteps(2, "stage-two").ok());
  // One shared pool: the third stage pays for the first two.
  Status s = scope.ChargeSteps(1, "stage-three");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(Contains(s, "stage-three")) << s.ToString();
  EXPECT_TRUE(Contains(s, "max_steps")) << s.ToString();
}

TEST(BudgetScopeTest, DepthGuardIsRaii) {
  ExecBudget budget;
  budget.max_depth = 2;
  BudgetScope scope(budget);
  {
    DepthGuard d1(scope, "recurse");
    EXPECT_TRUE(d1.status().ok());
    {
      DepthGuard d2(scope, "recurse");
      EXPECT_TRUE(d2.status().ok());
      DepthGuard d3(scope, "recurse");
      EXPECT_EQ(d3.status().code(), StatusCode::kResourceExhausted);
      EXPECT_TRUE(Contains(d3.status(), "max_depth")) << d3.status().ToString();
    }
    // Unwinding restores headroom.
    EXPECT_EQ(scope.depth(), 1u);
    DepthGuard d4(scope, "recurse");
    EXPECT_TRUE(d4.status().ok());
  }
  EXPECT_EQ(scope.depth(), 0u);
}

TEST(BudgetScopeTest, UnlimitedNeverTrips) {
  BudgetScope scope(ExecBudget::Unlimited());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(scope.ChargeStates(1 << 20, "x").ok());
    EXPECT_TRUE(scope.ChargeBytes(size_t{1} << 30, "x").ok());
    EXPECT_TRUE(scope.ChargeSteps(1 << 30, "x").ok());
  }
}

TEST(ExecBudgetTest, DefaultsAreFiniteAndNonTrivial) {
  ExecBudget budget;
  EXPECT_GE(budget.max_states, size_t{1} << 16);
  EXPECT_LT(budget.max_states, std::numeric_limits<size_t>::max());
  EXPECT_GE(budget.max_memory_bytes, size_t{64} << 20);
  EXPECT_LT(budget.max_memory_bytes, std::numeric_limits<size_t>::max());
  EXPECT_GE(budget.max_depth, size_t{256});
}

TEST(DeadlineTest, DefaultBudgetHasNoDeadline) {
  ExecBudget budget;
  EXPECT_FALSE(budget.has_deadline());
  BudgetScope scope(budget);
  // No deadline, no token: the probe is free and never trips.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(scope.ChargeSteps(1, "x").ok());
  }
}

TEST(DeadlineTest, ExpiredDeadlineFailsTheFirstChargeAndSticks) {
  ExecBudget budget;
  budget.SetDeadlineAfterMs(0);  // deadline == now: already expired
  EXPECT_TRUE(budget.has_deadline());
  BudgetScope scope(budget);
  Status s = scope.ChargeStates(1, "determinize");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(Contains(s, "determinize")) << s.ToString();
  EXPECT_TRUE(Contains(s, "deadline")) << s.ToString();
  // Sticky: once expired, every later charge fails without re-reading the
  // clock, through any of the charge entry points.
  EXPECT_EQ(scope.ChargeBytes(1, "x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(scope.ChargeSteps(1, "x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(scope.CheckDeadline("x").code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, GenerousDeadlinePassesAmortizedChecks) {
  ExecBudget budget;
  budget.SetDeadlineAfterMs(60 * 1000);
  BudgetScope scope(budget);
  // Far past the check stride, so the clock genuinely gets consulted.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(scope.ChargeSteps(1, "x").ok());
  }
}

TEST(DeadlineTest, CancelTokenFiresAsDeadlineExceeded) {
  CancelToken token;
  ExecBudget budget;
  budget.cancel = &token;
  BudgetScope scope(budget);
  EXPECT_TRUE(scope.ChargeSteps(1, "stage").ok());
  token.Cancel();
  // The token is read on every probe (no stride), so the very next charge
  // observes it.
  Status s = scope.ChargeSteps(1, "stage");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(Contains(s, "cancelled")) << s.ToString();
  EXPECT_EQ(scope.ChargeStates(1, "stage").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, DeadlineStatusIsDegradable) {
  EXPECT_TRUE(IsDegradable(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsDegradable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(IsDegradable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsDegradable(StatusCode::kInternal));
  EXPECT_FALSE(IsDegradable(StatusCode::kOk));
}

// The Theorem 4 compile charges the dense rows of N last, as the mirror's
// subset construction (stage strre/determinize) grows them: a byte cap one
// short of a full compile trips exactly there, and PhrEvaluator degrades to
// the lazy engine with the same answers.
TEST(PhrDenseBudgetTest, TightByteCapTripsDenseTablesAndDegrades) {
  hedge::Vocabulary vocab;
  auto phr = phr::ParsePhr("[a*; b; a<%z>*^z] (a|b)*", vocab);
  ASSERT_TRUE(phr.ok()) << phr.status().ToString();
  BudgetScope full(ExecBudget::Unlimited());
  auto eager = query::CompilePhr(*phr, full);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  const size_t needed = full.bytes_used();

  ExecBudget tight;
  tight.max_memory_bytes = needed - 1;
  auto starved = query::CompilePhr(*phr, tight);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(Contains(starved.status(), "strre/determinize"))
      << starved.status().ToString();

  auto reference = query::PhrEvaluator::Create(*phr);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->fallback_used());
  auto degraded = query::PhrEvaluator::Create(*phr, tight);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->fallback_used());
  auto doc = hedge::ParseHedge(
      "a<b a b<a<a>> a> b<a b a<b>> a b a<a> b", vocab);
  ASSERT_TRUE(doc.ok());
  const std::vector<bool> want = reference->Locate(*doc);
  EXPECT_EQ(degraded->Locate(*doc), want);
  size_t hits = 0;
  for (bool b : want) hits += b ? 1 : 0;
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace hedgeq
