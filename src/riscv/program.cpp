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

Label Program::new_label()
{
    label_pos_.push_back(kUnbound);
    return Label{static_cast<u32>(label_pos_.size() - 1)};
}

Label Program::named_label(std::string_view name)
{
    if (const auto it = names_.find(name); it != names_.end())
        return Label{it->second};
    const Label l = new_label();
    names_.emplace(std::string{name}, l.id);
    return l;
}

void Program::bind(Label l)
{
    if (finalized_) throw ToolchainError{"Program: label after finalize"};
    if (l.id >= label_pos_.size())
        throw ToolchainError{"Program: bind of a foreign label"};
    if (label_pos_[l.id] != kUnbound)
        throw ToolchainError{"Program: duplicate label " + label_name(l.id)};
    label_pos_[l.id] = static_cast<u32>(code_.size());
}

bool Program::has_label(std::string_view name) const
{
    const auto it = names_.find(name);
    return it != names_.end() && label_pos_[it->second] != kUnbound;
}

void Program::emit_branch(Opcode op, Reg rs1, Reg rs2, Label target)
{
    const auto idx = emit(btype(op, rs1, rs2, 0));
    fixups_.push_back(
        Fixup{static_cast<u32>(idx), target.id, FixupKind::Branch});
}

void Program::emit_jal(Reg rd, Label target)
{
    const auto idx = emit(jal(rd, 0));
    fixups_.push_back(Fixup{static_cast<u32>(idx), target.id, FixupKind::Jal});
}

void Program::emit_la_text(Reg rd, Label target)
{
    // Two-instruction absolute materialisation (text addresses < 2^31).
    const auto idx = emit(utype(Opcode::LUI, rd, 0));
    emit(itype(Opcode::ADDIW, rd, rd, 0));
    fixups_.push_back(
        Fixup{static_cast<u32>(idx), target.id, FixupKind::LaText});
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
    if (finalized_) throw ToolchainError{"Program: add_data after finalize"};
    const u64 off = align_up(data_.size(), align);
    data_.resize(off, 0);
    data_.insert(data_.end(), bytes.begin(), bytes.end());
    return layout_.data_base + off;
}

u64 Program::add_bss(u64 size, unsigned align)
{
    if (finalized_) throw ToolchainError{"Program: add_bss after finalize"};
    const u64 off = align_up(data_.size(), align);
    data_.resize(off + size, 0);
    return layout_.data_base + off;
}

std::string Program::label_name(u32 id) const
{
    for (const auto& [name, named] : names_)
        if (named == id) return name;
    return ".L" + std::to_string(id);
}

std::size_t Program::label_index(std::string_view name) const
{
    const auto it = names_.find(name);
    if (it == names_.end() || label_pos_[it->second] == kUnbound)
        throw ToolchainError{"Program: undefined label " + std::string{name}};
    return label_pos_[it->second];
}

u64 Program::entry_addr() const
{
    if (has_label("main")) return label_addr("main");
    return layout_.text_base;
}

void Program::finalize()
{
    if (finalized_) return;
    for (const Fixup& fx : fixups_) {
        const u32 target =
            fx.label < label_pos_.size() ? label_pos_[fx.label] : kUnbound;
        if (target == kUnbound)
            throw ToolchainError{"Program: undefined label " +
                                 label_name(fx.label)};
        const i64 offset =
            (static_cast<i64>(target) - static_cast<i64>(fx.index)) * 4;
        Instruction& in = code_[fx.index];
        switch (fx.kind) {
        case FixupKind::Branch:
            if (!fits_signed(offset, 13))
                throw ToolchainError{"branch to " + label_name(fx.label) +
                                     " out of range"};
            in.imm = offset;
            break;
        case FixupKind::Jal:
            if (!fits_signed(offset, 21))
                throw ToolchainError{"jal to " + label_name(fx.label) +
                                     " out of range"};
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
    // Invert the label table for printing.
    std::unordered_map<std::size_t, std::vector<std::string>> at;
    for (u32 id = 0; id < label_pos_.size(); ++id)
        if (label_pos_[id] != kUnbound)
            at[label_pos_[id]].push_back(label_name(id));

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
