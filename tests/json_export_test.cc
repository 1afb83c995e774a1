#include "model/json_export.h"

#include <stack>

#include <gtest/gtest.h>

#include "alloc/greedy.h"
#include "test_util.h"

namespace qcap {
namespace {

/// Structural sanity: braces/brackets balance and quotes pair up outside
/// of escapes. Not a full parser, but catches malformed output.
bool LooksLikeValidJson(const std::string& s) {
  std::stack<char> nesting;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // Skip escaped character.
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': nesting.push('}'); break;
      case '[': nesting.push(']'); break;
      case '}':
      case ']':
        if (nesting.empty() || nesting.top() != c) return false;
        nesting.pop();
        break;
      default: break;
    }
  }
  return !in_string && nesting.empty();
}

TEST(JsonExportTest, ClassificationJsonIsWellFormed) {
  const Classification cls = testutil::AppendixAClassification();
  const std::string json = ClassificationToJson(cls);
  EXPECT_TRUE(LooksLikeValidJson(json)) << json;
  EXPECT_NE(json.find("\"label\":\"Q1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"update\""), std::string::npos);
  EXPECT_NE(json.find("\"weight\":0.24"), std::string::npos);
  EXPECT_NE(json.find("\"total_bytes\":3"), std::string::npos);
}

TEST(JsonExportTest, AllocationJsonCarriesMetricsAndBackends) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = testutil::AppendixABackends();
  GreedyAllocator greedy;
  auto alloc = greedy.Allocate(cls, backends);
  ASSERT_TRUE(alloc.ok());
  const std::string json = AllocationToJson(cls, alloc.value(), backends);
  EXPECT_TRUE(LooksLikeValidJson(json)) << json;
  EXPECT_NE(json.find("\"scale\":1.24"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"B1\""), std::string::npos);
  EXPECT_NE(json.find("\"replica_histogram\":["), std::string::npos);
  // Q4 fully assigned to B1 at 16%.
  EXPECT_NE(json.find("\"Q4\":0.16"), std::string::npos);
  // Update pinning serialized.
  EXPECT_NE(json.find("\"U2\":0.1"), std::string::npos);
}

TEST(JsonExportTest, EmptyAssignmentsSerializeAsEmptyObjects) {
  const Classification cls = testutil::Figure2Classification();
  Allocation a(2, 3, 4, 0);
  a.PlaceSet(0, {0, 1, 2});
  for (size_t r = 0; r < 4; ++r) a.set_read_assign(0, r, cls.reads[r].weight);
  a.Place(1, 0);
  const std::string json =
      AllocationToJson(cls, a, HomogeneousBackends(2));
  EXPECT_TRUE(LooksLikeValidJson(json)) << json;
  EXPECT_NE(json.find("\"read_assign\":{}"), std::string::npos);
}

}  // namespace
}  // namespace qcap
