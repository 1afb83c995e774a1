#include "workload/journal_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

namespace qcap {
namespace {

void ExpectJournalsEqual(const QueryJournal& a, const QueryJournal& b) {
  ASSERT_EQ(a.NumDistinct(), b.NumDistinct());
  ASSERT_EQ(a.TotalExecutions(), b.TotalExecutions());
  for (size_t i = 0; i < a.NumDistinct(); ++i) {
    const Query& qa = a.queries()[i];
    const Query& qb = b.queries()[i];
    EXPECT_EQ(qa.text, qb.text);
    EXPECT_EQ(qa.is_update, qb.is_update);
    EXPECT_DOUBLE_EQ(qa.cost, qb.cost);
    EXPECT_EQ(a.count(i), b.count(i));
    ASSERT_EQ(qa.accesses.size(), qb.accesses.size());
    for (size_t j = 0; j < qa.accesses.size(); ++j) {
      EXPECT_EQ(qa.accesses[j].table, qb.accesses[j].table);
      EXPECT_EQ(qa.accesses[j].columns, qb.accesses[j].columns);
      EXPECT_EQ(qa.accesses[j].partitions, qb.accesses[j].partitions);
    }
  }
}

TEST(JournalIoTest, RoundTripSimple) {
  QueryJournal journal;
  journal.Record(Query::Read("q1", {"a", "b"}, 2.5), 10);
  journal.Record(Query::Update("u1", {"a"}, 0.25), 70);
  auto loaded = DeserializeJournal(SerializeJournal(journal));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectJournalsEqual(journal, loaded.value());
}

TEST(JournalIoTest, RoundTripColumnsAndPartitions) {
  QueryJournal journal;
  Query q;
  q.text = "partition scan";
  q.cost = 1.5;
  q.accesses.push_back({"t1", {"c1", "c2"}, {0, 3}});
  q.accesses.push_back({"t2", {}, {}});
  journal.Record(q, 5);
  auto loaded = DeserializeJournal(SerializeJournal(journal));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectJournalsEqual(journal, loaded.value());
}

TEST(JournalIoTest, RoundTripSpecialCharactersInText) {
  QueryJournal journal;
  journal.Record(
      Query::Read("SELECT *\tFROM \"t\"\nWHERE x = '\\path'", {"a"}, 1.0), 3);
  auto loaded = DeserializeJournal(SerializeJournal(journal));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectJournalsEqual(journal, loaded.value());
}

TEST(JournalIoTest, RoundTripRealWorkloads) {
  for (const QueryJournal& journal :
       {workloads::TpchJournal(1000), workloads::TpcAppJournal(2000)}) {
    auto loaded = DeserializeJournal(SerializeJournal(journal));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectJournalsEqual(journal, loaded.value());
  }
}

TEST(JournalIoTest, EmptyJournalRoundTrips) {
  QueryJournal journal;
  auto loaded = DeserializeJournal(SerializeJournal(journal));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(JournalIoTest, RejectsMissingHeader) {
  EXPECT_FALSE(DeserializeJournal("").ok());
  EXPECT_FALSE(DeserializeJournal("not a journal\n").ok());
}

TEST(JournalIoTest, RejectsMalformedLines) {
  const std::string header = "qcap-journal v1\n";
  EXPECT_FALSE(DeserializeJournal(header + "only\tthree\tfields\n").ok());
  EXPECT_FALSE(
      DeserializeJournal(header + "x\t1.0\tR\tq\ttable\n").ok());  // Bad count.
  EXPECT_FALSE(
      DeserializeJournal(header + "1\t1.0\tZ\tq\ttable\n").ok());  // Bad kind.
  EXPECT_FALSE(
      DeserializeJournal(header + "1\t1.0\tR\t\ttable\n").ok());  // No text.
  EXPECT_FALSE(DeserializeJournal(header + "1\t1.0\tR\tq\t:c1\n").ok());
  EXPECT_FALSE(DeserializeJournal(header + "1\t1.0\tR\tq\tt@x\n").ok());
  EXPECT_FALSE(DeserializeJournal(header + "1\t1.0\tR\tq\tt@1x\n").ok());
  EXPECT_FALSE(DeserializeJournal(header + "-1\t1.0\tR\tq\tt\n").ok());
  EXPECT_FALSE(DeserializeJournal(header + "12abc\t1.0\tR\tq\tt\n").ok());
  EXPECT_FALSE(  // UINT64_MAX + 1.
      DeserializeJournal(header + "18446744073709551616\t1.0\tR\tq\tt\n")
          .ok());
  EXPECT_FALSE(DeserializeJournal(header + "1\tnan\tR\tq\tt\n").ok());
  EXPECT_FALSE(DeserializeJournal(header + "1\t-inf\tR\tq\tt\n").ok());
}

TEST(JournalIoTest, SaveAndLoadFile) {
  const std::string path = "/tmp/qcap_journal_io_test.journal";
  QueryJournal journal = workloads::TpchJournal(500);
  ASSERT_TRUE(SaveJournal(journal, path).ok());
  auto loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectJournalsEqual(journal, loaded.value());
  std::remove(path.c_str());
  EXPECT_TRUE(LoadJournal("/tmp/definitely-missing-qcap").status().IsNotFound());
}

}  // namespace
}  // namespace qcap
