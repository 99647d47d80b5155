// Invariants of the layered-decomposition containers and their
// serialization: merge algebra (associative, commutative, resolution
// checked), byte-stable round trips, and the renderer's stacked view.

#include "src/core/layered.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/histogram.h"

namespace osprof {
namespace {

LayeredProfileSet MakeSet(int seed) {
  LayeredProfileSet set(1);
  // Two ops, overlapping buckets, components varied by seed so merges of
  // distinct sets are distinguishable.
  for (int b = 4; b < 8; ++b) {
    Cycles comp[kNumLayerComponents] = {};
    comp[kLayerSelf] = static_cast<Cycles>(10 * seed + b);
    comp[kLayerDriver] = static_cast<Cycles>(100 * seed);
    set.Slot("readdir")->Add(b, comp);
  }
  Cycles comp[kNumLayerComponents] = {};
  comp[kLayerSelf] = static_cast<Cycles>(seed);
  comp[kLayerNet] = static_cast<Cycles>(7 * seed);
  set.Slot("read")->Add(12 + seed, comp);
  return set;
}

std::string Text(const LayeredProfileSet& set) {
  std::map<std::string, LayeredProfileSet> layers;
  layers.emplace("fs", set);
  return LayersToString(layers);
}

TEST(LayeredProfileTest, AddAccumulatesCountAndComponents) {
  LayeredProfile p(1);
  Cycles comp[kNumLayerComponents] = {};
  comp[kLayerSelf] = 30;
  comp[kLayerDriver] = 70;
  p.Add(5, comp);
  p.Add(5, comp);
  const LayeredBucket bucket = p.buckets().at(5);
  EXPECT_EQ(bucket.count, 2u);
  EXPECT_EQ(bucket.cycles[kLayerSelf], 60u);
  EXPECT_EQ(bucket.cycles[kLayerDriver], 140u);
  EXPECT_EQ(bucket.TotalCycles(), 200u);
  EXPECT_EQ(p.total_count(), 2u);
}

TEST(LayeredMergeTest, MergeIsCommutative) {
  LayeredProfileSet ab = MakeSet(1);
  ab.Merge(MakeSet(2));
  LayeredProfileSet ba = MakeSet(2);
  ba.Merge(MakeSet(1));
  EXPECT_EQ(Text(ab), Text(ba));
}

TEST(LayeredMergeTest, MergeIsAssociative) {
  LayeredProfileSet left = MakeSet(1);  // (A + B) + C
  left.Merge(MakeSet(2));
  left.Merge(MakeSet(3));
  LayeredProfileSet bc = MakeSet(2);    // A + (B + C)
  bc.Merge(MakeSet(3));
  LayeredProfileSet right = MakeSet(1);
  right.Merge(bc);
  EXPECT_EQ(Text(left), Text(right));
}

TEST(LayeredProfileTest, ResolutionOutsideOneToSixteenThrows) {
  EXPECT_THROW(LayeredProfile(0), std::invalid_argument);
  EXPECT_THROW(LayeredProfile(17), std::invalid_argument);
  EXPECT_EQ(LayeredProfile(16).num_buckets(), kMaxLog2Buckets * 16);
}

TEST(LayeredMergeTest, ResolutionMismatchThrows) {
  LayeredProfileSet r1(1);
  LayeredProfileSet r2(2);
  EXPECT_THROW(r1.Merge(r2), std::invalid_argument);
}

TEST(LayeredSetTest, SlotPointersAreStableAndEmptyTracksBuckets) {
  LayeredProfileSet set(1);
  EXPECT_TRUE(set.empty());
  LayeredProfile* readdir = set.Slot("readdir");
  LayeredProfile* read = set.Slot("read");
  EXPECT_TRUE(set.empty()) << "ops without buckets do not count";
  EXPECT_EQ(set.Slot("readdir"), readdir) << "same op, same slot";
  Cycles comp[kNumLayerComponents] = {};
  comp[kLayerSelf] = 1;
  read->Add(3, comp);
  EXPECT_FALSE(set.empty());
  set.ClearCounts();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.Slot("read"), read) << "ClearCounts keeps slots alive";
}

TEST(LayeredSerializationTest, RoundTripIsByteIdentical) {
  std::map<std::string, LayeredProfileSet> layers;
  layers.emplace("fs", MakeSet(3));
  layers.emplace("driver", MakeSet(1));
  const std::string text = LayersToString(layers);
  EXPECT_NE(text.find("# osprof layers v1"), std::string::npos);
  const auto parsed = ParseLayersString(text);
  EXPECT_EQ(LayersToString(parsed), text);
}

// A bad bucket line throws, naming its line: every count and index must
// be a whole decimal token ("fs -5" used to read as 2^64-5).
TEST(LayeredSerializationTest, MalformedInputThrowsWithLineNumber) {
  EXPECT_THROW(ParseLayersString("not a layers file\n"), std::runtime_error);
  const char* buckets[] = {
      "five count 1 self 1 fs 0",
      "5 count 1 self 1 fs -5",
      "5 count -1 self 1 fs 0",
      "5 count 1 self 1x fs 0",
      "-5 count 1 self 1 fs 0",
  };
  for (const char* bucket : buckets) {
    try {
      ParseLayersString("layer fs resolution 1\nop x\nbucket " +
                        std::string(bucket) + " driver 0 net 0 lock 0 runq 0");
      ADD_FAILURE() << "accepted: " << bucket;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3:"), std::string::npos)
          << e.what();
    }
  }
}

TEST(LayeredRenderTest, StackedViewCarriesSharesAndLegend) {
  std::map<std::string, LayeredProfileSet> layers;
  LayeredProfileSet set(1);
  Cycles comp[kNumLayerComponents] = {};
  comp[kLayerSelf] = 10;
  comp[kLayerDriver] = 90;
  set.Slot("readdir")->Add(23, comp);
  layers.emplace("fs", set);
  const std::string view = RenderLayers(layers);
  EXPECT_NE(view.find("readdir"), std::string::npos);
  EXPECT_NE(view.find("driver=90%"), std::string::npos);
  EXPECT_NE(view.find("self=10%"), std::string::npos);
  // The bar is dominated by the driver glyph.
  EXPECT_NE(view.find("DDDD"), std::string::npos);
}

}  // namespace
}  // namespace osprof
