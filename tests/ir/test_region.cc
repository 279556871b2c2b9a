#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/dfg.hh"
#include "ir/serialize.hh"

namespace nachos {
namespace {

TEST(Region, AddObjectAssignsIds)
{
    Region r;
    MemObject a;
    a.name = "A";
    a.size = 64;
    MemObject b;
    b.name = "B";
    b.size = 128;
    EXPECT_EQ(r.addObject(a), 0u);
    EXPECT_EQ(r.addObject(b), 1u);
    EXPECT_EQ(r.object(1).name, "B");
}

TEST(Region, LayoutObjectsDisjoint)
{
    Region r;
    for (int i = 0; i < 5; ++i) {
        MemObject o;
        o.size = 1000;
        r.addObject(o);
    }
    r.layoutObjects(0x1000, 4096);
    for (size_t i = 1; i < 5; ++i) {
        const auto &prev = r.object(static_cast<ObjectId>(i - 1));
        const auto &cur = r.object(static_cast<ObjectId>(i));
        EXPECT_GE(cur.baseAddr, prev.baseAddr + prev.size + 4096);
        EXPECT_EQ(cur.baseAddr % 64, 0u);
    }
}

TEST(Region, FinalizeBuildsUsersAndMemOps)
{
    RegionBuilder b("t");
    ObjectId obj = b.object("A", 4096);
    OpId c = b.constant(1);
    OpId ld = b.load(b.at(obj, 0));
    OpId sum = b.iadd(c, ld);
    OpId st = b.store(b.at(obj, 64), sum);
    Region r = b.build();

    ASSERT_EQ(r.memOps().size(), 2u);
    EXPECT_EQ(r.memOps()[0], ld);
    EXPECT_EQ(r.memOps()[1], st);
    // users: c -> sum, ld -> sum, sum -> st
    ASSERT_EQ(r.users(c).size(), 1u);
    EXPECT_EQ(r.users(c)[0], sum);
    ASSERT_EQ(r.users(sum).size(), 1u);
    EXPECT_EQ(r.users(sum)[0], st);
}

TEST(Region, EvalAddrObjectBase)
{
    RegionBuilder b;
    ObjectId obj = b.object("A", 4096);
    OpId ld = b.load(b.at(obj, 24));
    Region r = b.build();
    uint64_t base = r.object(obj).baseAddr;
    EXPECT_EQ(r.evalAddr(ld, 0), base + 24);
    EXPECT_EQ(r.evalAddr(ld, 9), base + 24); // no invocation term
}

TEST(Region, EvalAddrStreamAdvancesPerInvocation)
{
    RegionBuilder b;
    ObjectId obj = b.object("A", 1 << 20);
    OpId ld = b.load(b.stream(obj, 8, 16));
    Region r = b.build();
    uint64_t base = r.object(obj).baseAddr;
    EXPECT_EQ(r.evalAddr(ld, 0), base + 16);
    EXPECT_EQ(r.evalAddr(ld, 3), base + 16 + 24);
}

TEST(Region, EvalAddrParamUsesGroundTruth)
{
    RegionBuilder b;
    ObjectId obj = b.object("A", 4096);
    ParamId p = b.pointerParam("ptr", obj, 128);
    OpId ld = b.load(b.atParam(p, 8));
    Region r = b.build();
    EXPECT_EQ(r.evalAddr(ld, 0), r.object(obj).baseAddr + 128 + 8);
}

TEST(Region, EvalAddr2dUsesStride)
{
    RegionBuilder b;
    ObjectId m = b.object2d("M", 16, 32, DataType::F64);
    OpId ld = b.load(b.at2d(m, 3, 5));
    Region r = b.build();
    EXPECT_EQ(r.evalAddr(ld, 0),
              r.object(m).baseAddr + 3 * 32 * 8 + 5 * 8);
}

TEST(Region, CountsMemAndFloatOps)
{
    RegionBuilder b;
    ObjectId obj = b.object("A", 4096);
    ObjectId loc = b.localObject("L", 256);
    OpId x = b.liveIn(DataType::F64);
    OpId y = b.fmul(x, x);
    b.fadd(y, x);
    b.load(b.at(obj, 0));
    b.scratchLoad(loc, 0);
    Region r = b.build();
    EXPECT_EQ(r.numMemOps(), 1u);
    EXPECT_EQ(r.numScratchpadOps(), 1u);
    EXPECT_EQ(r.numFloatOps(), 2u);
}

TEST(RegionDeathTest, OperandMustPrecedeUser)
{
    Region r;
    Operation op;
    op.kind = OpKind::IAdd;
    op.operands = {5, 6}; // nothing before it
    r.addOp(op);
    EXPECT_DEATH(r.finalize(), "operand must precede");
}

TEST(RegionDeathTest, MemIndexMustBeDense)
{
    Region r;
    MemObject o;
    o.size = 64;
    ObjectId obj = r.addObject(o);
    Operation ld;
    ld.kind = OpKind::Load;
    MemAccess m;
    m.addr.base = {BaseKind::Object, obj};
    m.memIndex = 3; // should be 0
    ld.mem = m;
    r.addOp(ld);
    EXPECT_DEATH(r.finalize(), "dense program order");
}

TEST(RegionDeathTest, PureOpOperandCountsAreChecked)
{
    // Each pure kind with a count evaluation would read past.
    const auto finalizeWith = [](OpKind kind, size_t operands) {
        Region r;
        for (size_t i = 0; i < 3; ++i)
            r.addOp(Operation{}); // Const sources
        Operation op;
        op.kind = kind;
        for (size_t i = 0; i < operands; ++i)
            op.operands.push_back(static_cast<OpId>(i));
        r.addOp(op);
        r.finalize();
    };
    EXPECT_DEATH(finalizeWith(OpKind::IAdd, 0), "wrong operand count");
    EXPECT_DEATH(finalizeWith(OpKind::IAdd, 1), "wrong operand count");
    EXPECT_DEATH(finalizeWith(OpKind::FDiv, 3), "wrong operand count");
    EXPECT_DEATH(finalizeWith(OpKind::Select, 2), "wrong operand count");
    EXPECT_DEATH(finalizeWith(OpKind::LiveOut, 0), "wrong operand count");
    EXPECT_DEATH(finalizeWith(OpKind::LiveOut, 2), "wrong operand count");
    EXPECT_DEATH(finalizeWith(OpKind::Const, 1), "wrong operand count");
    EXPECT_DEATH(finalizeWith(OpKind::LiveIn, 1), "wrong operand count");
    // The allowed counts.
    finalizeWith(OpKind::IAdd, 2);
    finalizeWith(OpKind::Select, 1);
    finalizeWith(OpKind::Select, 3);
    finalizeWith(OpKind::LiveOut, 1);
    finalizeWith(OpKind::LiveIn, 0);
}

TEST(RegionDeathTest, ParsedIaddWithOneOperandIsRejected)
{
    // regionFromString finalizes what it reads.
    EXPECT_DEATH(regionFromString("nachos-region v1\n"
                                  "name bad strict 0\n"
                                  "op 0 1 7 0 0\n"
                                  "op 2 1 0 1 0 0\n"
                                  "end\n"),
                 "wrong operand count");
}

TEST(RegionDeathTest, DoubleFinalizePanics)
{
    Region r;
    r.finalize();
    EXPECT_DEATH(r.finalize(), "double finalize");
}

} // namespace
} // namespace nachos
