/**
 * @file
 * The MiniCHERI instruction set.
 *
 * A compact CHERI-MIPS-flavoured ISA executed by the interpreter in
 * interp.h: integer ALU and branches, legacy loads/stores that are
 * implicitly checked against DDC, and the capability instruction set —
 * derivation (CIncOffset, CSetBounds, CAndPerm), inspection (CGetTag,
 * CGetLen, CGetAddr), capability-relative memory access (CLx/CSx/CLC/
 * CSC), sealing (CSeal/CUnseal), and capability jumps (CJR).
 *
 * The encoding is 8 bytes per instruction:
 *   [63:56] opcode  [55:48] rd  [47:40] rs  [39:32] rt  [31:0] imm
 * Register numbers 0..31 name the integer file for integer operands and
 * the capability file for capability operands (the opcode decides).
 */

#ifndef CHERI_ISA_INSN_H
#define CHERI_ISA_INSN_H

#include <cstdint>
#include <string_view>

#include "cap/types.h"

namespace cheri::isa
{

enum class Op : u8
{
    // Control
    Halt = 0,
    Nop,
    // Integer ALU
    Li,    ///< rd = imm (sign-extended)
    Move,  ///< rd = rs
    Add,   ///< rd = rs + rt
    Addi,  ///< rd = rs + imm
    Sub,   ///< rd = rs - rt
    Mul,   ///< rd = rs * rt
    And,   ///< rd = rs & rt
    Or,    ///< rd = rs | rt
    Xor,   ///< rd = rs ^ rt
    Sll,   ///< rd = rs << imm
    Srl,   ///< rd = rs >> imm
    Slt,   ///< rd = rs < rt (unsigned)
    // Branches (imm = signed instruction offset from the next insn)
    Beq,   ///< if rs == rt branch
    Bne,   ///< if rs != rt branch
    J,     ///< unconditional branch
    // Legacy memory (address = rs + imm, checked against DDC)
    Lb,
    Ld,
    Sb,
    Sd,
    // Capability inspection
    CGetTag,  ///< rd = tag(cb=rs)
    CGetLen,  ///< rd = length(cb=rs)
    CGetAddr, ///< rd = address(cb=rs)
    CGetPerm, ///< rd = perms(cb=rs)
    // Capability manipulation (cd=rd, cb=rs)
    CMove,
    CGetDDC,      ///< cd = DDC
    CGetPCC,      ///< cd = PCC
    CIncOffset,   ///< cd = cb + rt (integer register)
    CIncOffsetImm,///< cd = cb + imm
    CSetAddr,     ///< cd = cb with address = rt
    CSetBounds,   ///< cd = cb bounded to rt bytes
    CSetBoundsImm,///< cd = cb bounded to imm bytes
    CAndPerm,     ///< cd = cb with perms &= rt
    CClearTag,    ///< cd = cb untagged
    CSeal,        ///< cd = seal(cb, ct=rt)
    CUnseal,      ///< cd = unseal(cb, ct=rt)
    // Capability memory (address = addr(cb=rs) + imm)
    Clb,  ///< rd = byte via cb
    Cld,  ///< rd = u64 via cb
    Csb,  ///< store byte rt... (value in rd) via cb
    Csd,  ///< store u64 (value in rd) via cb
    Clc,  ///< cd = capability loaded via cb
    Csc,  ///< store capability cd via cb
    // Capability control flow
    Cjr,  ///< PCC = cb (must be tagged, unsealed, executable)
    // Environment
    Syscall, ///< Kernel::dispatch with code = imm
};

/** Decoded instruction. */
struct Insn
{
    Op op = Op::Halt;
    u8 rd = 0;
    u8 rs = 0;
    u8 rt = 0;
    s64 imm = 0; // sign-extended from the 32-bit field

    /** Pack into the 8-byte encoding. */
    u64 encode() const;
    static Insn decode(u64 word);
};

/** Bytes per encoded instruction. */
constexpr u64 insnSize = 8;

std::string_view opName(Op op);

} // namespace cheri::isa

#endif // CHERI_ISA_INSN_H
