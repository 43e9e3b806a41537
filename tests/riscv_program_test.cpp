// Program assembler tests: label fixups, constant materialisation
// (validated by executing on the Machine), data segment, listings.
#include <gtest/gtest.h>

#include "riscv/program.hpp"
#include "sim/machine.hpp"
#include "sim/syscalls.hpp"

namespace {

using namespace hwst::riscv;
namespace sim = hwst::sim;
using hwst::common::i64;
using hwst::common::u64;
using hwst::common::u8;

i64 value_of_li(i64 v)
{
    Program p;
    p.label("main");
    p.emit_li(Reg::a0, v);
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();
    sim::Machine m{p};
    return m.run().exit_code;
}

class EmitLi : public ::testing::TestWithParam<i64> {};

TEST_P(EmitLi, MaterialisesExactValue)
{
    EXPECT_EQ(value_of_li(GetParam()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Constants, EmitLi,
    ::testing::Values(0, 1, -1, 2047, 2048, -2048, -2049, 0x7FFFFFFF,
                      -0x80000000ll, 0x80000000ll, 0xFFFFFFFFll,
                      0x0000'0080'0000'0000ll, 0x0000'0040'0000'0000ll,
                      0x123456789ABCDEFll, -0x123456789ABCDEFll,
                      0x7FFFFFFFFFFFFFFFll,
                      std::numeric_limits<i64>::min()));

TEST(Program, DuplicateLabelRejected)
{
    Program p;
    p.label("x");
    p.emit(nop());
    EXPECT_THROW(p.label("x"), hwst::common::ToolchainError);
}

TEST(Program, UndefinedLabelDiagnosedAtFinalize)
{
    Program p;
    p.label("main");
    p.emit_jal(Reg::zero, "nowhere");
    EXPECT_THROW(p.finalize(), hwst::common::ToolchainError);
}

TEST(Program, BackwardAndForwardBranches)
{
    Program p;
    p.label("main");
    p.emit_li(Reg::t0, 3);
    p.emit_li(Reg::a0, 0);
    p.label("back");
    p.emit(itype(Opcode::ADDI, Reg::a0, Reg::a0, 5));
    p.emit(itype(Opcode::ADDI, Reg::t0, Reg::t0, -1));
    p.emit_branch(Opcode::BNE, Reg::t0, Reg::zero, "back");
    p.emit_branch(Opcode::BEQ, Reg::zero, Reg::zero, "fwd");
    p.emit(itype(Opcode::ADDI, Reg::a0, Reg::a0, 100)); // skipped
    p.label("fwd");
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();
    sim::Machine m{p};
    EXPECT_EQ(m.run().exit_code, 15);
}

TEST(Program, EmitAfterFinalizeRejected)
{
    Program p;
    p.label("main");
    p.emit(nop());
    p.finalize();
    EXPECT_THROW(p.emit(nop()), hwst::common::ToolchainError);
    EXPECT_NO_THROW(p.finalize()); // idempotent
}

TEST(Program, DataAfterFinalizeRejected)
{
    // A finalized Program is what Machines load (and what their shared
    // golden-prefix checkpoints describe): its data never changes again.
    Program p;
    const std::vector<u8> blob{1, 2, 3};
    p.add_data(blob);
    p.label("main");
    p.emit(nop());
    p.finalize();
    const std::vector<u8> before(p.data().begin(), p.data().end());
    EXPECT_THROW(p.add_data(blob), hwst::common::ToolchainError);
    EXPECT_THROW(p.add_data(blob, 64), hwst::common::ToolchainError);
    EXPECT_THROW(p.add_bss(64), hwst::common::ToolchainError);
    EXPECT_THROW(p.add_bss(0, 4096), hwst::common::ToolchainError);
    EXPECT_EQ(std::vector<u8>(p.data().begin(), p.data().end()), before);
}

TEST(Program, DataSegmentAlignmentAndContent)
{
    Program p;
    const std::vector<u8> blob{1, 2, 3};
    const u64 a = p.add_data(blob, 8);
    const u64 b = p.add_data(blob, 16);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_GT(b, a);
    const u64 c = p.add_bss(64, 8);
    EXPECT_GE(c, b + 3);
    EXPECT_GE(p.data().size(), (c - p.layout().data_base) + 64);
}

TEST(Program, DataVisibleToMachine)
{
    Program p;
    std::vector<u8> blob{0xEF, 0xBE, 0xAD, 0xDE};
    const u64 addr = p.add_data(blob, 8);
    p.label("main");
    p.emit_li(Reg::t0, static_cast<i64>(addr));
    p.emit(itype(Opcode::LWU, Reg::a0, Reg::t0, 0));
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.finalize();
    sim::Machine m{p};
    EXPECT_EQ(m.run().exit_code, 0xDEADBEEF);
}

TEST(Program, LaTextLoadsLabelAddress)
{
    Program p;
    p.label("main");
    p.emit_la_text(Reg::a0, "target");
    p.emit_li(Reg::a7, static_cast<i64>(sim::Sys::Exit));
    p.emit(Instruction{Opcode::ECALL});
    p.label("target");
    p.emit(nop());
    p.finalize();
    const u64 want = p.label_addr("target");
    sim::Machine m{p};
    EXPECT_EQ(static_cast<u64>(m.run().exit_code), want);
}

TEST(Program, ListingShowsLabelsAndMnemonics)
{
    Program p;
    p.label("main");
    p.emit(nop());
    p.label("loop");
    p.emit_jal(Reg::zero, "loop");
    p.finalize();
    const std::string text = p.listing();
    EXPECT_NE(text.find("main:"), std::string::npos);
    EXPECT_NE(text.find("loop:"), std::string::npos);
    EXPECT_NE(text.find("addi"), std::string::npos);
    EXPECT_NE(text.find("jal"), std::string::npos);
}

TEST(Program, EntryIsMainLabel)
{
    Program p;
    p.emit(nop());
    p.label("main");
    p.emit(nop());
    p.finalize();
    EXPECT_EQ(p.entry_addr(), p.layout().text_base + 4);
}

} // namespace
