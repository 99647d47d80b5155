#include "src/core/sampling.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

namespace osprof {
namespace {

TEST(SampledProfile, SplitsByEpoch) {
  SampledProfile p("read", 1000, 1);
  p.Add(10, 100);     // Epoch 0.
  p.Add(999, 100);    // Epoch 0.
  p.Add(1000, 5000);  // Epoch 1.
  p.Add(2500, 100);   // Epoch 2.
  ASSERT_EQ(p.num_epochs(), 3);
  EXPECT_EQ(p.epoch(0).TotalOperations(), 2u);
  EXPECT_EQ(p.epoch(1).TotalOperations(), 1u);
  EXPECT_EQ(p.epoch(1).bucket(12), 1u);
  EXPECT_EQ(p.epoch(2).TotalOperations(), 1u);
}

TEST(SampledProfile, FlattenMergesAllEpochs) {
  SampledProfile p("read", 1000, 1);
  for (Cycles t = 0; t < 10'000; t += 100) {
    p.Add(t, 128);
  }
  const Histogram flat = p.Flatten();
  EXPECT_EQ(flat.TotalOperations(), 100u);
  EXPECT_EQ(flat.bucket(7), 100u);
  EXPECT_TRUE(flat.CheckConsistency());
}

TEST(SampledProfile, SkippedEpochsAreEmpty) {
  SampledProfile p("read", 1000, 1);
  p.Add(0, 100);
  p.Add(5500, 100);  // Epochs 1-4 never saw an op.
  ASSERT_EQ(p.num_epochs(), 6);
  for (int e = 1; e <= 4; ++e) {
    EXPECT_TRUE(p.epoch(e).empty());
  }
}

TEST(SampledProfile, ZeroEpochLengthThrows) {
  SampledProfile p("x", 0, 1);
  EXPECT_THROW(p.Add(0, 1), std::invalid_argument);
}

TEST(SampledProfileSet, TracksMultipleOperations) {
  SampledProfileSet set(1000, 1);
  set.Add("read", 0, 100);
  set.Add("write_super", 2500, 1 << 20);
  EXPECT_NE(set.Find("read"), nullptr);
  EXPECT_NE(set.Find("write_super"), nullptr);
  EXPECT_EQ(set.Find("nope"), nullptr);
  EXPECT_EQ(set.OperationNames().size(), 2u);
}

TEST(SampledProfileSet, RenderGridShowsDensityClasses) {
  SampledProfileSet set(1000, 1);
  // Epoch 0: 500 ops in bucket 7 -> '#'; epoch 1: 50 ops -> '2';
  // epoch 2: 5 ops -> '1'.
  for (int i = 0; i < 500; ++i) {
    set.Add("read", 0, 128);
  }
  for (int i = 0; i < 50; ++i) {
    set.Add("read", 1500, 128);
  }
  for (int i = 0; i < 5; ++i) {
    set.Add("read", 2500, 128);
  }
  const std::string grid = set.RenderGrid("read", 7, 7);
  EXPECT_NE(grid.find("epoch 0 |#|"), std::string::npos);
  EXPECT_NE(grid.find("epoch 1 |2|"), std::string::npos);
  EXPECT_NE(grid.find("epoch 2 |1|"), std::string::npos);
}

TEST(SampledProfileSet, RenderGridHandlesMissingOp) {
  SampledProfileSet set(1000, 1);
  EXPECT_NE(set.RenderGrid("ghost", 0, 5).find("no data"), std::string::npos);
}

TEST(FindEpochChanges, FlagsBehaviourShifts) {
  SampledProfile p("read", 1'000, 1);
  // Epochs 0-2: fast mode; epochs 3-5: slow mode; epochs 6-7: fast again.
  for (int e = 0; e < 8; ++e) {
    const bool slow = e >= 3 && e <= 5;
    for (int i = 0; i < 100; ++i) {
      p.Add(static_cast<Cycles>(e) * 1'000 + 5,
            slow ? (1 << 20) : 128);
    }
  }
  const auto changes = FindEpochChanges(p);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].epoch, 3);  // Fast -> slow.
  EXPECT_EQ(changes[1].epoch, 6);  // Slow -> fast.
  EXPECT_GT(changes[0].score, 0.5);
}

TEST(FindEpochChanges, SteadyBehaviourIsQuiet) {
  SampledProfile p("read", 1'000, 1);
  for (int e = 0; e < 10; ++e) {
    for (int i = 0; i < 100; ++i) {
      p.Add(static_cast<Cycles>(e) * 1'000 + 5, 128 + (i % 32));
    }
  }
  EXPECT_TRUE(FindEpochChanges(p).empty());
}

TEST(FindEpochChanges, SkipsEmptyEpochs) {
  SampledProfile p("read", 1'000, 1);
  p.Add(500, 128);
  // Epochs 1-3 empty; epoch 4 same behaviour as epoch 0.
  p.Add(4'500, 128);
  EXPECT_TRUE(FindEpochChanges(p).empty());
  // Epoch 6: different behaviour -> one change.
  p.Add(6'500, 1 << 20);
  const auto changes = FindEpochChanges(p);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].epoch, 6);
}

TEST(SampledProfileSet, SerializeParseRoundTrip) {
  SampledProfileSet set(2'500, 1);
  for (Cycles t = 0; t < 20'000; t += 37) {
    set.Add("read", t, 100 + t % 5'000);
    if (t % 5'000 == 0) {
      set.Add("write_super", t, 1 << 21);
    }
  }
  const std::string text = set.ToString();
  const SampledProfileSet parsed = SampledProfileSet::ParseString(text);
  EXPECT_EQ(parsed.ToString(), text);
  EXPECT_EQ(parsed.epoch_cycles(), 2'500u);
  const SampledProfile* rd = parsed.Find("read");
  ASSERT_NE(rd, nullptr);
  EXPECT_EQ(rd->num_epochs(), set.Find("read")->num_epochs());
  EXPECT_EQ(rd->Flatten().TotalOperations(),
            set.Find("read")->Flatten().TotalOperations());
  EXPECT_TRUE(rd->Flatten().CheckConsistency());
}

TEST(SampledProfileSet, ParsePreservesEmptyMiddleEpochs) {
  SampledProfileSet set(1'000, 1);
  set.Add("op", 0, 100);
  set.Add("op", 5'500, 100);
  const SampledProfileSet parsed = SampledProfileSet::ParseString(set.ToString());
  const SampledProfile* p = parsed.Find("op");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->num_epochs(), 6);
  EXPECT_TRUE(p->epoch(3).empty());
}

// Malformed input throws, naming the line.  Counts must be whole decimal
// tokens; a leading '-' used to wrap.
TEST(SampledProfileSet, ParseRejectsGarbage) {
  const std::pair<const char*, const char*> cases[] = {
      {"nonsense\n", "line 1:"},
      {"sampled op\nend\n", "line 1:"},                 // Missing epoch=.
      {"sampled op epoch=0\nbucket 1 1\n", "line 2:"},  // Unterminated.
      {"epoch_cycles 10\nsampled a epoch=0 total_latency=-100\n", "line 2:"},
      {"sampled a epoch=0\n  bucket 7 1\n  bucket 6 -1\nend\n", "line 3:"},
      {"epoch_cycles -5\n", "line 1:"},
  };
  for (const auto& [text, line] : cases) {
    try {
      SampledProfileSet::ParseString(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

TEST(SampledProfileSet, RenderGnuplot3DEmitsClassedPoints) {
  SampledProfileSet set(1000, 1);
  for (int i = 0; i < 500; ++i) {
    set.Add("read", 0, 128);  // Epoch 0, bucket 7: class ">100".
  }
  for (int i = 0; i < 50; ++i) {
    set.Add("read", 1500, 1 << 20);  // Epoch 1, bucket 20: class "11-100".
  }
  set.Add("read", 2500, 128);  // Epoch 2: class "1-10".
  const std::string script = set.RenderGnuplot3D("read", 1.7e9);
  EXPECT_NE(script.find("> 100 Operations"), std::string::npos);
  EXPECT_NE(script.find("11-100 Operations"), std::string::npos);
  // Bucket 7 at t=0 in the >100 block; bucket 20 in the 11-100 block.
  EXPECT_NE(script.find("\n7 0\n"), std::string::npos);
  EXPECT_NE(script.find("\n20 "), std::string::npos);
  // Three data blocks terminated by 'e'.
  std::size_t blocks = 0;
  for (std::size_t pos = script.find("\ne\n"); pos != std::string::npos;
       pos = script.find("\ne\n", pos + 1)) {
    ++blocks;
  }
  EXPECT_EQ(blocks, 3u);
}

TEST(SampledProfileSet, RenderGnuplot3DHandlesMissingOp) {
  SampledProfileSet set(1000, 1);
  EXPECT_NE(set.RenderGnuplot3D("ghost", 1.7e9).find("no data"),
            std::string::npos);
}

// A periodic disturbance shows up in alternating epochs -- the Figure 9
// pattern, distilled.
TEST(SampledProfileSet, RevealsPeriodicContention) {
  SampledProfileSet set(1000, 1);
  for (Cycles t = 0; t < 10'000; t += 10) {
    const bool disturbed = (t / 1000) % 2 == 1;  // Every other epoch.
    set.Add("read", t, disturbed ? (1 << 21) : 128);
  }
  const SampledProfile* p = set.Find("read");
  ASSERT_NE(p, nullptr);
  for (int e = 0; e < p->num_epochs(); ++e) {
    const bool disturbed = e % 2 == 1;
    EXPECT_EQ(p->epoch(e).bucket(21) > 0, disturbed) << "epoch " << e;
    EXPECT_EQ(p->epoch(e).bucket(7) > 0, !disturbed) << "epoch " << e;
  }
}

}  // namespace
}  // namespace osprof
