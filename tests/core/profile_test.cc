#include "src/core/profile.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace osprof {
namespace {

TEST(Profile, RecordsOperationsUnderName) {
  Profile p("read", 1);
  p.Add(100);
  p.Add(200);
  EXPECT_EQ(p.op_name(), "read");
  EXPECT_EQ(p.total_operations(), 2u);
  EXPECT_EQ(p.total_latency(), 300u);
}

TEST(ProfileSet, CreatesProfilesOnDemand) {
  ProfileSet set(1);
  set.Add("read", 100);
  set.Add("write", 5000);
  set.Add("read", 120);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.Find("read")->total_operations(), 2u);
  EXPECT_EQ(set.Find("write")->total_operations(), 1u);
  EXPECT_EQ(set.Find("unknown"), nullptr);
}

TEST(ProfileSet, ByTotalLatencyOrdersDescending) {
  ProfileSet set(1);
  set.Add("cheap", 10);
  set.Add("expensive", 1'000'000);
  set.Add("middle", 1'000);
  const auto order = set.ByTotalLatency();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "expensive");
  EXPECT_EQ(order[1], "middle");
  EXPECT_EQ(order[2], "cheap");
}

TEST(ProfileSet, TotalsAggregateAcrossOperations) {
  ProfileSet set(1);
  set.Add("a", 100);
  set.Add("b", 200);
  EXPECT_EQ(set.TotalLatency(), 300u);
  EXPECT_EQ(set.TotalOperations(), 2u);
}

TEST(ProfileSet, SerializeParseRoundTrip) {
  ProfileSet set(1);
  for (int i = 0; i < 1000; ++i) {
    set.Add("read", static_cast<Cycles>(100 + i));
    set.Add("llseek", static_cast<Cycles>(400));
  }
  set.Add("weird/name.op", 12345);

  const std::string text = set.ToString();
  const ProfileSet parsed = ProfileSet::ParseString(text);

  EXPECT_EQ(parsed.size(), set.size());
  for (const auto& [name, profile] : set) {
    const Profile* q = parsed.Find(name);
    ASSERT_NE(q, nullptr) << name;
    EXPECT_EQ(q->total_operations(), profile.total_operations());
    EXPECT_EQ(q->total_latency(), profile.total_latency());
    for (int b = 0; b < profile.histogram().num_buckets(); ++b) {
      EXPECT_EQ(q->histogram().bucket(b), profile.histogram().bucket(b));
    }
  }
  EXPECT_TRUE(parsed.CheckConsistency());
}

TEST(ProfileSet, RoundTripPreservesResolution) {
  ProfileSet set(2);
  set.Add("op", 1000);
  const ProfileSet parsed = ProfileSet::ParseString(set.ToString());
  EXPECT_EQ(parsed.resolution(), 2);
  EXPECT_EQ(parsed.Find("op")->histogram().resolution(), 2);
}

// Malformed input throws, naming the line.  Counts must be whole decimal
// tokens: "total_latency=-304" used to pass `check`, and "bucket 6 -1" to
// read as 2^64-1.
TEST(ProfileSet, ParseRejectsMalformedInput) {
  const std::pair<const char*, const char*> cases[] = {
      {"bogus directive\n", "line 1:"},
      {"bucket 1 2\n", "line 1:"},
      {"profile x\nbucket notanumber 3\nend\n", "line 2:"},
      {"profile x recorded=1\n", "line 1:"},           // Unterminated block.
      {"profile x\nbucket 9999 1\nend\n", "line 2:"},  // Bucket out of range.
      {"resolution 1\nprofile a recorded=2 total_latency=-304\n", "line 2:"},
      {"profile a\n  bucket 7 1\n  bucket 6 -1\nend\n", "line 3:"},
      {"profile a recorded=2x\nend\n", "line 1:"},
      {"profile a\n  bucket 6 +1\nend\n", "line 2:"},
  };
  for (const auto& [text, line] : cases) {
    try {
      ProfileSet::ParseString(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

TEST(ProfileSet, ParseIgnoresCommentsAndBlankLines) {
  const ProfileSet parsed = ProfileSet::ParseString(
      "# comment\n\nresolution 1\nprofile read recorded=2 total_latency=300\n"
      "  bucket 6 2\nend\n");
  ASSERT_NE(parsed.Find("read"), nullptr);
  EXPECT_EQ(parsed.Find("read")->total_operations(), 2u);
  EXPECT_EQ(parsed.Find("read")->total_latency(), 300u);
}

TEST(ProfileSet, EmptySetSerializes) {
  ProfileSet set(1);
  const ProfileSet parsed = ProfileSet::ParseString(set.ToString());
  EXPECT_TRUE(parsed.empty());
}

}  // namespace
}  // namespace osprof
