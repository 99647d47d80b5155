// Serialization stability of the committed golden corpus: every file in
// tests/golden -- each .prof through the (vector + OpTable backed)
// ProfileSet, each .layers through ParseLayers -- must survive a
// Parse -> Serialize round trip byte-for-byte.  This is the direct guard
// against interning-order or iteration-order changes silently rewriting
// baselines the regression gate depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/core/layered.h"
#include "src/core/profile.h"
#include "tests/test_files.h"

namespace osprof {
namespace {

class GoldenStabilityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenStabilityTest, ReserializesByteIdentically) {
  const std::string& name = GetParam();
  const std::string original = ostest::ReadFile(ostest::kGoldenDir + name);
  ASSERT_FALSE(original.empty());

  std::string reserialized;
  if (name.ends_with(".layers")) {
    reserialized = LayersToString(ParseLayersString(original));
  } else {
    const ProfileSet set = ProfileSet::ParseString(original);
    EXPECT_TRUE(set.CheckConsistency());
    EXPECT_GT(set.size(), 0u);
    reserialized = set.ToString();
  }
  EXPECT_EQ(reserialized, original)
      << name << " does not round-trip byte-identically";
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenStabilityTest,
                         ::testing::ValuesIn(ostest::GoldenFileNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '.', '_');
                           return name;
                         });

}  // namespace
}  // namespace osprof
