// PearlISA: the POWER-flavoured 64-bit ISA executed by the Pearl6 core and
// by the ISA-level golden model.
//
// It is deliberately *not* PowerPC — it is a compact fixed-width ISA with the
// same instruction classes the paper's AVP mix is measured over (loads,
// stores, fixed point, floating point, comparisons, branches; Table 1), so
// that instruction-mix and CPI experiments are meaningful.
//
// Encoding (bit 31 = msb):
//   D-form   [31:26]=opcd [25:21]=RT [20:16]=RA [15:0]=D (signed)
//   X-form   [31:26]=31   [25:21]=RT [20:16]=RA [15:11]=RB [10:1]=XO [0]=0
//   I-form   [31:26]=18   [25:2]=LI24 (signed words)          [1]=0 [0]=LK
//   B-form   [31:26]=16   [25:21]=BO [20:16]=BI [15:2]=BD14   [1]=0 [0]=LK
//   XL-form  [31:26]=19   [25:21]=BO [20:16]=BI [10:1]=XO
//   A-form   [31:26]=63   [25:21]=FRT [20:16]=FRA [15:11]=FRB [5:1]=XO
//   STOP     all-zero word (ends a testcase, like an attn instruction)
//
// Registers: 32×64-bit GPRs, 16×64-bit FPRs (IEEE double bit patterns),
// CR (8 fields × 4 bits: LT,GT,EQ,SO), LR, CTR, PC.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace sfi::isa {

inline constexpr unsigned kNumGprs = 32;
inline constexpr unsigned kNumFprs = 16;
inline constexpr unsigned kNumCrFields = 8;

/// Primary opcodes.
enum PrimaryOp : u32 {
  kOpStop = 0,
  kOpCmpli = 10,
  kOpCmpi = 11,
  kOpAddi = 14,
  kOpAddis = 15,
  kOpBc = 16,
  kOpB = 18,
  kOpXl = 19,
  kOpOri = 24,
  kOpXori = 25,
  kOpAndi = 26,
  kOpX = 31,
  kOpLwz = 32,
  kOpLbz = 34,
  kOpStw = 36,
  kOpStb = 38,
  kOpLfd = 50,
  kOpStfd = 54,
  kOpLd = 58,
  kOpStd = 62,
  kOpFp = 63,
};

/// X-form extended opcodes (opcd 31).
enum XOp : u32 {
  kXoCmp = 0,
  kXoSld = 27,
  kXoAnd = 28,
  kXoCmpl = 32,
  kXoSubf = 40,
  kXoNeg = 104,
  kXoNor = 124,
  kXoMulld = 233,
  kXoAdd = 266,
  kXoXor = 316,
  kXoMfspr = 339,
  kXoOr = 444,
  kXoMtspr = 467,
  kXoDivd = 489,
  kXoSrd = 539,
  kXoSrad = 794,
  kXoExtsw = 986,
};

/// XL-form extended opcodes (opcd 19).
enum XlOp : u32 {
  kXlBclr = 16,
  kXlBcctr = 528,
};

/// A-form FP extended opcodes (opcd 63).
enum FpOp : u32 {
  kFpDiv = 18,
  kFpSub = 20,
  kFpAdd = 21,
  kFpMul = 25,
};

/// SPR numbers for mfspr/mtspr.
enum Spr : u32 {
  kSprLr = 8,
  kSprCtr = 9,
};

/// Branch-option (BO) subset.
enum Bo : u32 {
  kBoFalse = 4,   ///< branch if CR[BI] == 0
  kBoTrue = 12,   ///< branch if CR[BI] == 1
  kBoDnz = 16,    ///< decrement CTR, branch if CTR != 0
  kBoAlways = 20,
};

/// Decoded mnemonic.
enum class Mnemonic : u8 {
  // fixed point immediates
  ADDI, ADDIS, ORI, XORI, ANDI,
  // compares
  CMPI, CMPLI, CMP, CMPL,
  // fixed point register
  ADD, SUBF, AND, OR, XOR, NOR, SLD, SRD, SRAD, NEG, EXTSW,
  MULLD, DIVD,
  // SPR moves
  MFSPR, MTSPR,
  // memory
  LWZ, LBZ, LD, STW, STB, STD, LFD, STFD,
  // branches
  B, BC, BCLR, BCCTR,
  // floating point
  FADD, FSUB, FMUL, FDIV,
  // control
  STOP, ILLEGAL,
};

[[nodiscard]] std::string_view to_string(Mnemonic m);

/// Coarse instruction class; matches Table 1's mix rows.
enum class InstrClass : u8 {
  Load,
  Store,
  FixedPoint,
  FloatingPoint,
  Comparison,
  Branch,
  System,  ///< STOP / SPR moves
};
inline constexpr std::size_t kNumInstrClasses = 7;

[[nodiscard]] std::string_view to_string(InstrClass c);

/// Fully decoded instruction.
struct Instr {
  u32 raw = 0;
  Mnemonic mn = Mnemonic::ILLEGAL;
  InstrClass cls = InstrClass::System;
  u8 rt = 0;    ///< destination GPR/FPR (or source for stores / BO for branches)
  u8 ra = 0;
  u8 rb = 0;
  u8 crf = 0;   ///< CR field for compares
  u8 bo = 0;
  u8 bi = 0;
  i64 imm = 0;  ///< sign-extended immediate / branch displacement (bytes)
  bool lk = false;

  [[nodiscard]] bool is_store() const { return cls == InstrClass::Store; }
  [[nodiscard]] bool writes_gpr() const;
  [[nodiscard]] bool writes_fpr() const;
};

/// Decode one instruction word. Never throws: undecodable words produce
/// Mnemonic::ILLEGAL (the machine must survive corrupted instruction
/// streams; how ILLEGAL is handled is the core's policy).
[[nodiscard]] Instr decode(u32 word);

// --- Encoding helpers (used by the assembler, the AVP generator & tests) ---
[[nodiscard]] u32 enc_d(u32 opcd, u32 rt, u32 ra, u16 d);
[[nodiscard]] u32 enc_x(u32 rt, u32 ra, u32 rb, u32 xo);
[[nodiscard]] u32 enc_i(i32 byte_disp, bool lk);
[[nodiscard]] u32 enc_b(u32 bo, u32 bi, i32 byte_disp, bool lk);
[[nodiscard]] u32 enc_xl(u32 bo, u32 bi, u32 xo);
[[nodiscard]] u32 enc_fp(u32 frt, u32 fra, u32 frb, u32 xo);
inline constexpr u32 kStopWord = 0;

}  // namespace sfi::isa
