#include "condor/schedd.hpp"

#include <gtest/gtest.h>

#include "classad/parser.hpp"
#include "sim/simulator.hpp"

namespace phisched::condor {
namespace {

classad::ClassAd simple_ad() {
  classad::ClassAd ad;
  ad.insert_integer("RequestPhiMemory", 1000);
  return ad;
}

class ScheddTest : public ::testing::Test {
 protected:
  Simulator sim_;
  Schedd schedd_{sim_};
};

TEST_F(ScheddTest, SubmitAndPendingFifo) {
  schedd_.submit(3, simple_ad());
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  // FIFO is submission order, not id order.
  EXPECT_EQ(schedd_.pending(), (std::vector<JobId>{3, 1, 2}));
  EXPECT_EQ(schedd_.submitted_count(), 3u);
  EXPECT_EQ(schedd_.pending_count(), 3u);
}

TEST_F(ScheddTest, DuplicateSubmitThrows) {
  schedd_.submit(1, simple_ad());
  EXPECT_THROW(schedd_.submit(1, simple_ad()), std::invalid_argument);
}

TEST_F(ScheddTest, LifecycleTransitions) {
  schedd_.submit(1, simple_ad());
  sim_.run_until(5.0);
  schedd_.mark_matched(1, 2);
  EXPECT_EQ(schedd_.record(1).state, JobState::kMatched);
  EXPECT_EQ(schedd_.record(1).node, 2);
  EXPECT_TRUE(schedd_.pending().empty());
  sim_.run_until(6.0);
  schedd_.mark_running(1);
  EXPECT_DOUBLE_EQ(schedd_.record(1).start_time, 6.0);
  sim_.run_until(20.0);
  schedd_.mark_completed(1);
  EXPECT_EQ(schedd_.record(1).state, JobState::kCompleted);
  EXPECT_DOUBLE_EQ(schedd_.record(1).finish_time, 20.0);
  EXPECT_TRUE(schedd_.drained());
  EXPECT_DOUBLE_EQ(schedd_.last_finish_time(), 20.0);
}

TEST_F(ScheddTest, InvalidTransitionsThrow) {
  schedd_.submit(1, simple_ad());
  EXPECT_THROW(schedd_.mark_running(1), std::invalid_argument);
  EXPECT_THROW(schedd_.mark_completed(1), std::invalid_argument);
  schedd_.mark_matched(1, 0);
  EXPECT_THROW(schedd_.mark_matched(1, 0), std::invalid_argument);
}

TEST_F(ScheddTest, ReleaseMatchReturnsToPending) {
  schedd_.submit(1, simple_ad());
  schedd_.mark_matched(1, 0);
  schedd_.release_match(1);
  EXPECT_EQ(schedd_.record(1).state, JobState::kPending);
  EXPECT_EQ(schedd_.pending(), (std::vector<JobId>{1}));
}

TEST_F(ScheddTest, FailedFromMatchedOrRunning) {
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  schedd_.mark_matched(1, 0);
  schedd_.mark_failed(1);  // killed during dispatch latency
  schedd_.mark_matched(2, 0);
  schedd_.mark_running(2);
  schedd_.mark_failed(2);
  EXPECT_EQ(schedd_.failed_count(), 2u);
  EXPECT_TRUE(schedd_.drained());
}

TEST_F(ScheddTest, QeditRewritesPendingAd) {
  schedd_.submit(1, simple_ad());
  schedd_.qedit_expr(1, "Requirements", "TARGET.Name == \"node5\"");
  const auto req = schedd_.record(1).ad.lookup("Requirements");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(classad::to_string(*req), "(TARGET.Name == \"node5\")");
}

TEST_F(ScheddTest, QeditOnNonPendingThrows) {
  schedd_.submit(1, simple_ad());
  schedd_.mark_matched(1, 0);
  EXPECT_THROW(schedd_.qedit_expr(1, "Requirements", "true"),
               std::invalid_argument);
}

TEST_F(ScheddTest, TerminalCallbackFires) {
  std::vector<JobId> terminal;
  schedd_.set_on_terminal(
      [&](const JobRecord& rec) { terminal.push_back(rec.id); });
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  schedd_.mark_matched(1, 0);
  schedd_.mark_running(1);
  schedd_.mark_completed(1);
  schedd_.mark_matched(2, 0);
  schedd_.mark_failed(2);
  EXPECT_EQ(terminal, (std::vector<JobId>{1, 2}));
}

TEST_F(ScheddTest, PendingKeepsFifoPositionAcrossTransitions) {
  for (const JobId id : std::vector<JobId>{5, 3, 8, 1}) {
    schedd_.submit(id, simple_ad());
  }
  schedd_.mark_matched(3, 0);
  schedd_.mark_matched(8, 0);
  EXPECT_EQ(schedd_.pending(), (std::vector<JobId>{5, 1}));
  EXPECT_EQ(schedd_.pending_count(), 2u);
  // A refused dispatch and a requeue both return to the original slot.
  schedd_.release_match(8);
  schedd_.mark_running(3);
  schedd_.requeue(3, simple_ad());
  EXPECT_EQ(schedd_.pending(), (std::vector<JobId>{5, 3, 8, 1}));
  schedd_.mark_matched(5, 0);
  schedd_.mark_failed(5);
  EXPECT_EQ(schedd_.pending(), (std::vector<JobId>{3, 8, 1}));
  EXPECT_EQ(schedd_.pending_count(), 3u);
}

TEST_F(ScheddTest, AdChangesRefreshSignatureAndPriority) {
  schedd_.submit(1, simple_ad());
  schedd_.submit(2, simple_ad());
  EXPECT_EQ(schedd_.record(1).signature, schedd_.record(2).signature);
  EXPECT_EQ(schedd_.record(1).prio, 0);
  schedd_.qedit_expr(1, "Requirements",
                     "TARGET.PhiFreeMemory >= MY.RequestPhiMemory");
  schedd_.qedit_expr(1, "JobPrio", "2 + 1");
  EXPECT_NE(schedd_.record(1).signature, schedd_.record(2).signature);
  EXPECT_EQ(schedd_.record(1).prio, 3);
  schedd_.mark_matched(1, 0);
  schedd_.requeue(1, simple_ad());
  EXPECT_EQ(schedd_.record(1).signature, schedd_.record(2).signature);
  EXPECT_EQ(schedd_.record(1).prio, 0);
}

TEST_F(ScheddTest, UnknownJobThrows) {
  EXPECT_THROW((void)schedd_.record(9), std::invalid_argument);
  EXPECT_FALSE(schedd_.known(9));
}

TEST_F(ScheddTest, StateNames) {
  EXPECT_STREQ(job_state_name(JobState::kPending), "pending");
  EXPECT_STREQ(job_state_name(JobState::kMatched), "matched");
  EXPECT_STREQ(job_state_name(JobState::kRunning), "running");
  EXPECT_STREQ(job_state_name(JobState::kCompleted), "completed");
  EXPECT_STREQ(job_state_name(JobState::kFailed), "failed");
}

}  // namespace
}  // namespace phisched::condor
