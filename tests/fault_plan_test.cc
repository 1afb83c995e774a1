// FaultPlan construction, strict validation, and spec parsing.
#include <gtest/gtest.h>

#include <limits>

#include "cluster/fault_plan.h"

namespace qcap {
namespace {

TEST(FaultPlanTest, EmptyPlanValidates) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.Validate(3).ok());
}

TEST(FaultPlanTest, CrashRecoverDegradeValidate) {
  FaultPlan plan;
  plan.Crash(1.0, 0);
  plan.Degrade(2.0, 1, 3.0);
  plan.Recover(5.0, 0);
  plan.Crash(6.0, 0);
  EXPECT_TRUE(plan.Validate(2).ok()) << plan.Validate(2).ToString();
}

TEST(FaultPlanTest, NegativeTimeRejected) {
  FaultPlan plan;
  plan.Crash(-1.0, 0);
  EXPECT_FALSE(plan.Validate(2).ok());
}

TEST(FaultPlanTest, NonFiniteTimeRejected) {
  FaultPlan plan;
  plan.Crash(std::numeric_limits<double>::infinity(), 0);
  EXPECT_FALSE(plan.Validate(2).ok());
}

TEST(FaultPlanTest, OutOfRangeBackendRejected) {
  FaultPlan plan;
  plan.Crash(1.0, 5);
  EXPECT_FALSE(plan.Validate(5).ok());
  EXPECT_TRUE(plan.Validate(6).ok());
}

TEST(FaultPlanTest, RecoverBeforeCrashRejected) {
  FaultPlan plan;
  plan.Recover(1.0, 0);
  auto status = plan.Validate(2);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("recover"), std::string::npos);
}

TEST(FaultPlanTest, DuplicateCrashOfDeadBackendRejected) {
  FaultPlan plan;
  plan.Crash(1.0, 0);
  plan.Crash(2.0, 0);
  EXPECT_FALSE(plan.Validate(2).ok());
}

TEST(FaultPlanTest, DegradeOfCrashedBackendRejected) {
  FaultPlan plan;
  plan.Crash(1.0, 0);
  plan.Degrade(2.0, 0, 2.0);
  EXPECT_FALSE(plan.Validate(2).ok());
}

TEST(FaultPlanTest, BadDegradeFactorRejected) {
  FaultPlan zero;
  zero.Degrade(1.0, 0, 0.0);
  EXPECT_FALSE(zero.Validate(2).ok());
  FaultPlan negative;
  negative.Degrade(1.0, 0, -2.0);
  EXPECT_FALSE(negative.Validate(2).ok());
}

TEST(FaultPlanTest, ReplayIsOrderIndependentOfInsertion) {
  // Events inserted out of order validate by timestamp order.
  FaultPlan plan;
  plan.Recover(5.0, 0);
  plan.Crash(1.0, 0);
  EXPECT_TRUE(plan.Validate(1).ok());
}

TEST(FaultPlanTest, ParseRoundTrip) {
  auto plan = ParseFaultPlan("crash:10:2; recover:25.5:2, degrade:3:0:4.5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->events.size(), 3u);
  auto reparsed = ParseFaultPlan(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->events.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reparsed->events[i].kind, plan->events[i].kind);
    EXPECT_DOUBLE_EQ(reparsed->events[i].time_seconds,
                     plan->events[i].time_seconds);
    EXPECT_EQ(reparsed->events[i].backend, plan->events[i].backend);
    EXPECT_DOUBLE_EQ(reparsed->events[i].factor, plan->events[i].factor);
  }
}

TEST(FaultPlanTest, ParseErrors) {
  EXPECT_FALSE(ParseFaultPlan("reboot:1:0").ok());         // unknown kind
  EXPECT_FALSE(ParseFaultPlan("crash:1").ok());            // missing backend
  EXPECT_FALSE(ParseFaultPlan("crash:abc:0").ok());        // bad time
  EXPECT_FALSE(ParseFaultPlan("crash:1:xyz").ok());        // bad backend
  EXPECT_FALSE(ParseFaultPlan("degrade:1:0").ok());        // missing factor
  EXPECT_FALSE(ParseFaultPlan("crash:1:0:9").ok());        // extra field
  EXPECT_FALSE(ParseFaultPlan("crash:1:-2").ok());         // negative backend
}

TEST(FaultPlanTest, ParseErrorsNameTheOffendingEvent) {
  auto bad_kind = ParseFaultPlan("crash:1:0,reboot:2:1");
  ASSERT_FALSE(bad_kind.ok());
  EXPECT_NE(bad_kind.status().message().find("reboot"), std::string::npos);
  auto bad_number = ParseFaultPlan("crash:1:0,crash:later:1");
  ASSERT_FALSE(bad_number.ok());
  EXPECT_NE(bad_number.status().message().find("crash:later:1"),
            std::string::npos);
}

TEST(FaultPlanTest, ParseRejectsEmptyFields) {
  EXPECT_FALSE(ParseFaultPlan("crash::0").ok());      // empty time
  EXPECT_FALSE(ParseFaultPlan("crash:1:").ok());      // empty backend
  EXPECT_FALSE(ParseFaultPlan(":1:0").ok());          // empty kind
  EXPECT_FALSE(ParseFaultPlan("degrade:1:0:").ok());  // empty factor
  EXPECT_FALSE(ParseFaultPlan(":::").ok());
}

TEST(FaultPlanTest, ParseRejectsOutOfRangeNumbers) {
  // Overflow in the backend index or the time is InvalidArgument.
  EXPECT_FALSE(ParseFaultPlan("crash:1:99999999999999999999999").ok());
  EXPECT_FALSE(ParseFaultPlan("crash:1e99999:0").ok());
}

TEST(FaultPlanTest, ParseRejectsTrailingGarbageInNumbers) {
  EXPECT_FALSE(ParseFaultPlan("crash:1.5x:0").ok());
  EXPECT_FALSE(ParseFaultPlan("crash:1:0zzz").ok());
  EXPECT_FALSE(ParseFaultPlan("degrade:1:0:2.5pts").ok());
}

TEST(FaultPlanTest, ParseRejectsNonFiniteAndValidateStillDoes) {
  EXPECT_FALSE(ParseFaultPlan("crash:inf:0").ok());
  EXPECT_FALSE(ParseFaultPlan("degrade:1:0:nan").ok());
  // A plan built in code never meets the parser, so Validate keeps its own
  // finiteness check.
  FaultPlan plan;
  plan.events.push_back({FaultEvent::Kind::kDegrade, 1.0, 0,
                         std::numeric_limits<double>::quiet_NaN()});
  EXPECT_FALSE(plan.Validate(1).ok());
}

TEST(FaultPlanTest, ParseTrimsWhitespaceAndSkipsEmptyEvents) {
  auto plan = ParseFaultPlan("  crash:1:0 ,, recover:2:0 ;");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->events.size(), 2u);
  EXPECT_TRUE(plan->Validate(1).ok());
}

TEST(FaultPlanTest, ParseEmptySpecIsEmptyPlan) {
  auto plan = ParseFaultPlan("  ");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
}

}  // namespace
}  // namespace qcap
