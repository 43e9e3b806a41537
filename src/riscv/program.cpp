#include "riscv/program.hpp"

#include <sstream>

#include "common/error.hpp"
#include "riscv/disasm.hpp"

namespace hwst::riscv {

using common::align_up;
using common::fits_signed;
using common::ToolchainError;

std::size_t Program::emit(const Instruction& in)
{
    if (finalized_) throw ToolchainError{"Program: emit after finalize"};
    code_.push_back(in);
    return code_.size() - 1;
}

void Program::label(const std::string& name)
{
    if (finalized_) throw ToolchainError{"Program: label after finalize"};
    const auto [it, inserted] = labels_.emplace(name, code_.size());
    if (!inserted) throw ToolchainError{"Program: duplicate label " + name};
}

void Program::emit_branch(Opcode op, Reg rs1, Reg rs2,
                          const std::string& target)
{
    const auto idx = emit(btype(op, rs1, rs2, 0));
    fixups_.push_back(Fixup{idx, target, FixupKind::Branch});
}

void Program::emit_jal(Reg rd, const std::string& target)
{
    const auto idx = emit(jal(rd, 0));
    fixups_.push_back(Fixup{idx, target, FixupKind::Jal});
}

void Program::emit_la_text(Reg rd, const std::string& target)
{
    // Two-instruction absolute materialisation (text addresses < 2^31).
    const auto idx = emit(utype(Opcode::LUI, rd, 0));
    emit(itype(Opcode::ADDIW, rd, rd, 0));
    fixups_.push_back(Fixup{idx, target, FixupKind::LaText});
}

void Program::emit_li(Reg rd, i64 value)
{
    if (fits_signed(value, 12)) {
        emit(itype(Opcode::ADDI, rd, Reg::zero, value));
        return;
    }
    const i64 lo = common::sign_extend(static_cast<u64>(value) & 0xFFF, 12);
    // Multiple of 4096. Wraps (in unsigned arithmetic, so without UB)
    // for values within 2^11 of INT64_MAX; the shift/add sequence below
    // wraps back to `value` exactly as the hardware does.
    const i64 hi =
        static_cast<i64>(static_cast<u64>(value) - static_cast<u64>(lo));
    if (fits_signed(hi, 32)) {
        emit(utype(Opcode::LUI, rd, hi));
        if (lo != 0) emit(itype(Opcode::ADDIW, rd, rd, lo));
        return;
    }
    // 64-bit path: materialise the upper bits (compensating for the
    // sign-extended low part), shift, add the low 12.
    emit_li(rd, hi >> 12);
    emit(itype(Opcode::SLLI, rd, rd, 12));
    if (lo != 0) emit(itype(Opcode::ADDI, rd, rd, lo));
}

u64 Program::add_data(std::span<const u8> bytes, unsigned align)
{
    const u64 off = align_up(data_.size(), align);
    data_.resize(off, 0);
    data_.insert(data_.end(), bytes.begin(), bytes.end());
    return layout_.data_base + off;
}

u64 Program::add_bss(u64 size, unsigned align)
{
    const u64 off = align_up(data_.size(), align);
    data_.resize(off + size, 0);
    return layout_.data_base + off;
}

std::size_t Program::label_index(const std::string& name) const
{
    const auto it = labels_.find(name);
    if (it == labels_.end())
        throw ToolchainError{"Program: undefined label " + name};
    return it->second;
}

u64 Program::entry_addr() const
{
    if (labels_.contains("main")) return label_addr("main");
    return layout_.text_base;
}

void Program::finalize()
{
    if (finalized_) return;
    for (const Fixup& fx : fixups_) {
        const auto target = label_index(fx.label);
        const i64 offset =
            (static_cast<i64>(target) - static_cast<i64>(fx.index)) * 4;
        Instruction& in = code_[fx.index];
        switch (fx.kind) {
        case FixupKind::Branch:
            if (!fits_signed(offset, 13))
                throw ToolchainError{"branch to " + fx.label + " out of range"};
            in.imm = offset;
            break;
        case FixupKind::Jal:
            if (!fits_signed(offset, 21))
                throw ToolchainError{"jal to " + fx.label + " out of range"};
            in.imm = offset;
            break;
        case FixupKind::LaText: {
            const i64 addr = static_cast<i64>(text_addr(target));
            const i64 lo =
                common::sign_extend(static_cast<u64>(addr) & 0xFFF, 12);
            const i64 hi = addr - lo;
            if (!fits_signed(hi, 32))
                throw ToolchainError{"la: text address beyond 2^31"};
            in.imm = hi;                 // the LUI
            code_[fx.index + 1].imm = lo; // the ADDIW
            break;
        }
        }
    }
    fixups_.clear();
    finalized_ = true;
}

std::string Program::listing() const
{
    // Invert the label map for printing.
    std::unordered_map<std::size_t, std::vector<std::string>> at;
    for (const auto& [name, idx] : labels_) at[idx].push_back(name);

    std::ostringstream os;
    for (std::size_t i = 0; i < code_.size(); ++i) {
        if (const auto it = at.find(i); it != at.end()) {
            for (const auto& name : it->second) os << name << ":\n";
        }
        os << "  " << std::hex << text_addr(i) << std::dec << ":  "
           << disassemble(code_[i]) << '\n';
    }
    return os.str();
}

} // namespace hwst::riscv
