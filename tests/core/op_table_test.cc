#include "src/core/op_table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/profile.h"

namespace osprof {
namespace {

TEST(OpTable, InternAssignsDenseStableIds) {
  OpTable table;
  const OpId read = table.Intern("read");
  const OpId write = table.Intern("write");
  const OpId llseek = table.Intern("llseek");
  EXPECT_EQ(read, 0u);
  EXPECT_EQ(write, 1u);
  EXPECT_EQ(llseek, 2u);
  // Re-interning returns the original id.
  EXPECT_EQ(table.Intern("read"), read);
  EXPECT_EQ(table.Intern("write"), write);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Name(read), "read");
  EXPECT_EQ(table.Name(llseek), "llseek");
}

TEST(OpTable, FindDoesNotIntern) {
  OpTable table;
  EXPECT_EQ(table.Find("read"), kInvalidOpId);
  EXPECT_TRUE(table.empty());
  const OpId id = table.Intern("read");
  EXPECT_EQ(table.Find("read"), id);
  EXPECT_EQ(table.Find("write"), kInvalidOpId);
  EXPECT_EQ(table.size(), 1u);
}

TEST(OpTable, ByNameIteratesLexicographically) {
  OpTable table;
  table.Intern("write");
  table.Intern("llseek");
  table.Intern("read");
  std::vector<std::string> names;
  for (const auto& [name, id] : table.by_name()) {
    names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"llseek", "read", "write"}));
}

TEST(ProbeHandle, DefaultIsInvalid) {
  ProbeHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(handle.id(), kInvalidOpId);
  EXPECT_TRUE(ProbeHandle(0).valid());
}

// The interning-order independence guarantee: two sets whose operations
// were first recorded in different orders serialize byte-identically.
TEST(ProfileSetInterning, RecordOrderDoesNotChangeSerialization) {
  ProfileSet forward(1);
  forward.Add("open", 100);
  forward.Add("read", 2'000);
  forward.Add("write", 3'000);
  forward.Add("read", 2'100);

  ProfileSet reversed(1);
  reversed.Add("write", 3'000);
  reversed.Add("read", 2'100);
  reversed.Add("read", 2'000);
  reversed.Add("open", 100);

  EXPECT_EQ(forward.ToString(), reversed.ToString());
  EXPECT_EQ(forward.OperationNames(), reversed.OperationNames());
}

TEST(ProfileSetInterning, HandleRecordMatchesStringRecord) {
  ProfileSet by_string(1);
  ProfileSet by_handle(1);
  const ProbeHandle read = by_handle.Resolve("read");
  const ProbeHandle write = by_handle.Resolve("write");
  for (int i = 0; i < 100; ++i) {
    const Cycles latency = static_cast<Cycles>(50 + i * 37);
    by_string.Add("read", latency);
    by_handle.AddById(read.id(), latency);
  }
  by_string.Add("write", 12'345);
  by_handle.AddById(write.id(), 12'345);
  EXPECT_EQ(by_string.ToString(), by_handle.ToString());
}

// Pre-resolving a probe that never fires must not perturb any observable
// view of the set -- this is what keeps attach-time resolution (the ten
// Vfs op handles, four DriverProfiler disk keys) from leaking empty
// profiles into golden outputs.
TEST(ProfileSetInterning, ResolvedButUnrecordedOpsStayInvisible) {
  ProfileSet set(1);
  const ProbeHandle never_fired = set.Resolve("mmap");
  EXPECT_TRUE(never_fired.valid());
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.Find("mmap"), nullptr);
  EXPECT_TRUE(set.OperationNames().empty());
  EXPECT_EQ(set.ToString(), "# osprof profile set v1\nresolution 1\n");

  set.Add("read", 500);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.OperationNames(), std::vector<std::string>{"read"});
  EXPECT_EQ(set.Find("mmap"), nullptr);

  // Once the probe fires, the op appears exactly like a declared one.
  set.AddById(never_fired.id(), 700);
  EXPECT_EQ(set.size(), 2u);
  ASSERT_NE(set.Find("mmap"), nullptr);
  EXPECT_EQ(set.Find("mmap")->total_operations(), 1u);
}

TEST(ProfileSetInterning, ClearCountsKeepsHandlesValid) {
  ProfileSet set(1);
  const ProbeHandle read = set.Resolve("read");
  set.AddById(read.id(), 1'000);
  set.AddById(read.id(), 2'000);
  ASSERT_NE(set.Find("read"), nullptr);
  EXPECT_EQ(set.Find("read")->total_operations(), 2u);

  set.ClearCounts();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.Find("read"), nullptr);
  // Same handle, same id, still records into the same op.
  EXPECT_EQ(set.Resolve("read").id(), read.id());
  set.AddById(read.id(), 3'000);
  ASSERT_NE(set.Find("read"), nullptr);
  EXPECT_EQ(set.Find("read")->total_operations(), 1u);
  EXPECT_EQ(set.Find("read")->total_latency(), 3'000u);
}

TEST(ProfileSetInterning, MergeAndParseDeclareOps) {
  // Parse round-trips profiles with recorded=0 (declared via operator[]).
  ProfileSet declared(1);
  declared["touched_never_recorded"];
  const std::string text = declared.ToString();
  EXPECT_NE(text.find("profile touched_never_recorded"), std::string::npos);
  const ProfileSet reparsed = ProfileSet::ParseString(text);
  EXPECT_EQ(reparsed.ToString(), text);

  // Merge carries visible ops (even empty ones) into the target.
  ProfileSet target(1);
  target.Merge(declared);
  EXPECT_EQ(target.size(), 1u);
}

}  // namespace
}  // namespace osprof
