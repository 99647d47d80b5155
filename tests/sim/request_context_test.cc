// Unit tests for the kernel-owned span stack: frame lifecycle, exact
// wait decomposition, opaque vs transparent child charging, and the
// per-owner lineage that SimProfiler derives its call edges from.
// This file is on the probe-discipline allowlist: it is the one place
// outside the profiling spine that drives RequestContext by hand.

#include "src/sim/request_context.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/op_table.h"

namespace osim {
namespace {

using osprof::Cycles;
using osprof::kInvalidOpId;
using osprof::OpId;
using osprof::OpTable;

class RequestContextTest : public ::testing::Test {
 protected:
  OpTable ops_;
  RequestContext ctx_;
  // Two distinct owner descriptors (one per profiler in production):
  // owner_a is transparent, owner_b charges parents as an FS layer.
  const SpanOwner owner_a_{&ops_, osprof::kLayerSelf};
  const SpanOwner owner_b_{&ops_, osprof::kLayerFs};
};

TEST_F(RequestContextTest, PureSelfSpan) {
  const OpId read = ops_.Intern("read");
  ctx_.Push(0, &owner_a_, read, 100);
  const auto r = ctx_.Pop(0, 350);
  EXPECT_EQ(r.duration, 250u);
  EXPECT_EQ(r.components[osprof::kLayerSelf], 250u);
  for (int c = osprof::kLayerSelf + 1; c < osprof::kNumLayerComponents; ++c) {
    EXPECT_EQ(r.components[c], 0u) << c;
  }
  EXPECT_EQ(r.caller, kInvalidOpId);
}

TEST_F(RequestContextTest, WaitsSubtractFromSelfExactly) {
  const OpId read = ops_.Intern("read");
  ctx_.Push(0, &owner_a_, read, 0);
  ctx_.AttributeWait(0, osprof::kLayerDriver, 600);
  ctx_.AttributeWait(0, osprof::kLayerRunQueue, 100);
  const auto r = ctx_.Pop(0, 1000);
  EXPECT_EQ(r.components[osprof::kLayerDriver], 600u);
  EXPECT_EQ(r.components[osprof::kLayerRunQueue], 100u);
  EXPECT_EQ(r.components[osprof::kLayerSelf], 300u);
  Cycles sum = 0;
  for (int c = 0; c < osprof::kNumLayerComponents; ++c) {
    sum += r.components[c];
  }
  EXPECT_EQ(sum, r.duration);
}

TEST_F(RequestContextTest, SelfClampsAtZeroWhenWaitsExceedDuration) {
  // An untagged park can leave attributed waits larger than the clocked
  // duration; self must clamp, never wrap.
  const OpId op = ops_.Intern("op");
  ctx_.Push(0, &owner_a_, op, 500);
  ctx_.AttributeWait(0, osprof::kLayerLockWait, 900);
  const auto r = ctx_.Pop(0, 1000);
  EXPECT_EQ(r.duration, 500u);
  EXPECT_EQ(r.components[osprof::kLayerSelf], 0u);
  EXPECT_EQ(r.components[osprof::kLayerLockWait], 900u);
}

TEST_F(RequestContextTest, WaitsBubbleUpToParentVerbatim) {
  const OpId user_read = ops_.Intern("user_read");
  const OpId fs_read = ops_.Intern("fs_read");
  ctx_.Push(0, &owner_a_, user_read, 0);
  ctx_.Push(0, &owner_a_, fs_read, 100);
  ctx_.AttributeWait(0, osprof::kLayerDriver, 300);
  (void)ctx_.Pop(0, 500);
  const auto parent = ctx_.Pop(0, 600);
  // The child's driver wait is the parent's driver wait; the child's
  // transparent self (100) merges into the parent's self.
  EXPECT_EQ(parent.components[osprof::kLayerDriver], 300u);
  EXPECT_EQ(parent.components[osprof::kLayerSelf], 300u);
  EXPECT_EQ(parent.duration, 600u);
}

TEST_F(RequestContextTest, OpaqueChildChargesSelfToItsLayerClass) {
  // An FS-layer op under a user-layer op: the child's own CPU shows up
  // as the parent's `fs` component, not as parent self.
  const OpId user_read = ops_.Intern("user_read");
  const OpId fs_read = ops_.Intern("fs_read");
  ctx_.Push(0, &owner_a_, user_read, 0);
  ctx_.Push(0, &owner_b_, fs_read, 100);
  ctx_.AttributeWait(0, osprof::kLayerDriver, 250);
  const auto child = ctx_.Pop(0, 500);
  EXPECT_EQ(child.components[osprof::kLayerSelf], 150u);
  const auto parent = ctx_.Pop(0, 600);
  EXPECT_EQ(parent.components[osprof::kLayerFs], 150u);
  EXPECT_EQ(parent.components[osprof::kLayerDriver], 250u);
  EXPECT_EQ(parent.components[osprof::kLayerSelf], 200u);
}

TEST_F(RequestContextTest, CallerIsNearestSameOwnerAncestor) {
  const OpId grep = ops_.Intern("grep");
  const OpId fs_read = ops_.Intern("fs_read");
  const OpId disk = ops_.Intern("disk_read");
  // owner_a wraps grep and disk_read; owner_b interleaves fs_read.
  ctx_.Push(0, &owner_a_, grep, 0);
  ctx_.Push(0, &owner_b_, fs_read, 10);
  ctx_.Push(0, &owner_a_, disk, 20);
  const auto leaf = ctx_.Pop(0, 50);
  EXPECT_EQ(leaf.caller, grep) << "must skip the other owner's frame";
  const auto mid = ctx_.Pop(0, 80);
  EXPECT_EQ(mid.caller, kInvalidOpId) << "no same-owner ancestor";
  const auto root = ctx_.Pop(0, 100);
  EXPECT_EQ(root.caller, kInvalidOpId);
}

TEST_F(RequestContextTest, ThreadsHaveIndependentStacks) {
  const OpId a = ops_.Intern("a");
  const OpId b = ops_.Intern("b");
  ctx_.Push(3, &owner_a_, a, 0);
  ctx_.Push(7, &owner_a_, b, 0);
  ctx_.AttributeWait(7, osprof::kLayerNet, 40);
  const auto r3 = ctx_.Pop(3, 100);
  EXPECT_EQ(r3.components[osprof::kLayerNet], 0u);
  const auto r7 = ctx_.Pop(7, 100);
  EXPECT_EQ(r7.components[osprof::kLayerNet], 40u);
}

TEST_F(RequestContextTest, TopOpSeesInnermostActiveSpan) {
  const OpTable* ops = nullptr;
  OpId op = kInvalidOpId;
  osprof::LayerComponent cls = osprof::kLayerSelf;
  EXPECT_FALSE(ctx_.TopSpan(0, &ops, &op, &cls));
  const OpId outer = ops_.Intern("outer");
  const OpId inner = ops_.Intern("inner");
  ctx_.Push(0, &owner_a_, outer, 0);
  ctx_.Push(0, &owner_b_, inner, 0);
  ASSERT_TRUE(ctx_.TopSpan(0, &ops, &op, &cls));
  EXPECT_EQ(op, inner);
  EXPECT_EQ(cls, osprof::kLayerFs);
  EXPECT_EQ(&ops->Name(op), &ops_.Name(inner));
  (void)ctx_.Pop(0, 10);
  ASSERT_TRUE(ctx_.TopSpan(0, &ops, &op, &cls));
  EXPECT_EQ(op, outer);
  EXPECT_EQ(cls, osprof::kLayerSelf);
}

TEST_F(RequestContextTest, NegativeTidIsIgnoredAndEmptyPopThrows) {
  const OpId op = ops_.Intern("op");
  ctx_.Push(-1, &owner_a_, op, 0);  // No-op.
  const OpTable* ops = nullptr;
  OpId top = kInvalidOpId;
  osprof::LayerComponent cls = osprof::kLayerSelf;
  EXPECT_FALSE(ctx_.TopSpan(-1, &ops, &top, &cls));
  EXPECT_THROW(ctx_.Pop(0, 10), std::logic_error);
  EXPECT_THROW(ctx_.Pop(-1, 10), std::logic_error);
}

TEST_F(RequestContextTest, ResetDropsAllFrames) {
  const OpId op = ops_.Intern("op");
  ctx_.Push(0, &owner_a_, op, 0);
  ctx_.Reset();
  const OpTable* ops = nullptr;
  OpId top = kInvalidOpId;
  osprof::LayerComponent cls = osprof::kLayerSelf;
  EXPECT_FALSE(ctx_.TopSpan(0, &ops, &top, &cls));
  EXPECT_THROW(ctx_.Pop(0, 10), std::logic_error);
}

}  // namespace
}  // namespace osim
