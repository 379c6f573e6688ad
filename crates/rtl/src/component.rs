//! RTL component algebra and evaluation semantics.

use crate::design::{ClockId, SignalId};
use pe_util::bits;
use std::fmt;

/// The kind of an RTL component, together with its static parameters.
///
/// Every kind has fixed input/output arity and width rules, documented per
/// variant and enforced by [`ComponentKind::check_widths`]. The functional
/// semantics live in [`ComponentKind::eval`] (combinational kinds) and in
/// the simulator's clock-edge step (sequential kinds: [`ComponentKind::Register`]
/// and [`ComponentKind::Memory`]).
///
/// All signal values are unsigned `u64` words masked to their signal width;
/// signed operators ([`ComponentKind::SLt`], [`ComponentKind::SignExt`],
/// [`ComponentKind::Sar`]) interpret their operands in two's complement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Adder. Inputs `[a, b]` of equal width `w`; output width in
    /// `w..=64`; result is `(a + b) & mask(out)`, so a `w+1`-bit output
    /// captures the carry.
    Add,
    /// Subtractor. Inputs `[a, b]` of equal width `w`; output width `w`
    /// (two's-complement wraparound).
    Sub,
    /// Multiplier. Inputs `[a, b]` of any widths; output of any width;
    /// result is the low `out` bits of the full product.
    Mul,
    /// Two's-complement negation. One input; output of equal width.
    Neg,
    /// Equality comparator. Inputs `[a, b]` of equal width; 1-bit output.
    Eq,
    /// Inequality comparator. Inputs `[a, b]` of equal width; 1-bit output.
    Ne,
    /// Unsigned less-than. Inputs `[a, b]` of equal width; 1-bit output.
    Lt,
    /// Unsigned less-or-equal. Inputs `[a, b]` of equal width; 1-bit output.
    Le,
    /// Signed less-than. Inputs `[a, b]` of equal width; 1-bit output.
    SLt,
    /// Signed less-or-equal. Inputs `[a, b]` of equal width; 1-bit output.
    SLe,
    /// Bitwise AND. Two or more inputs of equal width; output of same width.
    And,
    /// Bitwise OR. Two or more inputs of equal width; output of same width.
    Or,
    /// Bitwise XOR. Two or more inputs of equal width; output of same width.
    Xor,
    /// Bitwise NOT. One input; output of equal width.
    Not,
    /// AND-reduction of all bits. One input; 1-bit output.
    RedAnd,
    /// OR-reduction of all bits. One input; 1-bit output.
    RedOr,
    /// XOR-reduction (parity) of all bits. One input; 1-bit output.
    RedXor,
    /// Logical left shift. Inputs `[data, amount]`; output width equals
    /// data width. Shift amounts ≥ width yield 0.
    Shl,
    /// Logical right shift. Inputs `[data, amount]`; output width equals
    /// data width. Shift amounts ≥ width yield 0.
    Shr,
    /// Arithmetic right shift. Inputs `[data, amount]`; output width equals
    /// data width. Shift amounts ≥ width yield the sign fill.
    Sar,
    /// Multiplexer. Inputs `[sel, d0, d1, …, d(n-1)]` with `2 ≤ n ≤ 2^w(sel)`
    /// and all data inputs of equal width; output of that width. A select
    /// value ≥ `n` picks the last data input (synthesis would leave those
    /// entries as don't-cares; clamping keeps simulation deterministic).
    Mux,
    /// Bit-field extraction: output is bits `lo .. lo + out_width` of the
    /// input. Requires `lo + out_width ≤ in_width`.
    Slice {
        /// Least-significant extracted bit position.
        lo: u32,
    },
    /// Concatenation. Input 0 occupies the least-significant bits; output
    /// width is the sum of input widths.
    Concat,
    /// Zero extension. One input; output at least as wide.
    ZeroExt,
    /// Sign extension. One input; output at least as wide.
    SignExt,
    /// Constant driver. No inputs; `value` must fit the output width.
    Const {
        /// The constant value.
        value: u64,
    },
    /// Lookup table / ROM: output is `table[input]`. The input is at most
    /// 20 bits wide and `table.len()` must equal `2^in_width`; every entry
    /// must fit the output width. Behavioral synthesis uses this for FSM
    /// next-state/output logic and decoders use it for code tables.
    Table {
        /// The full truth table, indexed by the input value.
        table: Vec<u64>,
    },
    /// Edge-triggered register. Inputs `[d]` or `[d, en]` (enable is
    /// 1 bit); output width equals `d` width; `init` is the power-on value
    /// and must fit the width. `None` means the register has **no defined
    /// power-on value**: two-state simulation treats it as zero, but
    /// static analysis must assume arbitrary garbage (X) until the first
    /// write. Requires a clock domain.
    Register {
        /// Power-on / reset value; `None` = uninitialized (X at power-on).
        init: Option<u64>,
        /// Whether the register has a write-enable input.
        has_enable: bool,
    },
    /// Synchronous-read, synchronous-write memory with one read and one
    /// write port (the behaviour of an FPGA block RAM). Inputs
    /// `[raddr, waddr, wdata, wen]`; output is the registered read data
    /// (width of `wdata`), updated on each clock edge with the *pre-write*
    /// contents at `raddr` (read-first). Address widths must equal
    /// `max(clog2(words), 1)`. Out-of-range addresses wrap modulo `words`.
    /// Requires a clock domain.
    Memory {
        /// Number of words.
        words: u32,
        /// Optional initial contents (must have exactly `words` entries,
        /// each fitting the data width). Missing means zero-initialized.
        init: Option<Vec<u64>>,
    },
}

/// Width-rule violation detected when adding a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthError {
    message: String,
}

impl WidthError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for WidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for WidthError {}

impl ComponentKind {
    /// Short lowercase mnemonic used by the textual netlist format.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            ComponentKind::Add => "add",
            ComponentKind::Sub => "sub",
            ComponentKind::Mul => "mul",
            ComponentKind::Neg => "neg",
            ComponentKind::Eq => "eq",
            ComponentKind::Ne => "ne",
            ComponentKind::Lt => "lt",
            ComponentKind::Le => "le",
            ComponentKind::SLt => "slt",
            ComponentKind::SLe => "sle",
            ComponentKind::And => "and",
            ComponentKind::Or => "or",
            ComponentKind::Xor => "xor",
            ComponentKind::Not => "not",
            ComponentKind::RedAnd => "redand",
            ComponentKind::RedOr => "redor",
            ComponentKind::RedXor => "redxor",
            ComponentKind::Shl => "shl",
            ComponentKind::Shr => "shr",
            ComponentKind::Sar => "sar",
            ComponentKind::Mux => "mux",
            ComponentKind::Slice { .. } => "slice",
            ComponentKind::Concat => "concat",
            ComponentKind::ZeroExt => "zext",
            ComponentKind::SignExt => "sext",
            ComponentKind::Const { .. } => "const",
            ComponentKind::Table { .. } => "table",
            ComponentKind::Register { .. } => "reg",
            ComponentKind::Memory { .. } => "mem",
        }
    }

    /// Whether this component holds state across clock edges.
    pub fn is_sequential(&self) -> bool {
        matches!(
            self,
            ComponentKind::Register { .. } | ComponentKind::Memory { .. }
        )
    }

    /// Validates input/output widths for this kind.
    ///
    /// # Errors
    ///
    /// Returns a [`WidthError`] describing the first violated rule.
    pub fn check_widths(&self, in_widths: &[u32], out_width: u32) -> Result<(), WidthError> {
        let arity = |n: usize| -> Result<(), WidthError> {
            if in_widths.len() != n {
                Err(WidthError::new(format!(
                    "{} expects {} inputs, got {}",
                    self.mnemonic(),
                    n,
                    in_widths.len()
                )))
            } else {
                Ok(())
            }
        };
        let equal_inputs = || -> Result<u32, WidthError> {
            let w = in_widths[0];
            if in_widths.iter().any(|&x| x != w) {
                Err(WidthError::new(format!(
                    "{} requires equal input widths, got {:?}",
                    self.mnemonic(),
                    in_widths
                )))
            } else {
                Ok(w)
            }
        };
        let out_eq = |w: u32| -> Result<(), WidthError> {
            if out_width != w {
                Err(WidthError::new(format!(
                    "{} output must be {} bits, got {}",
                    self.mnemonic(),
                    w,
                    out_width
                )))
            } else {
                Ok(())
            }
        };
        if out_width == 0 || out_width > 64 {
            return Err(WidthError::new(format!(
                "output width {out_width} out of range 1..=64"
            )));
        }
        if in_widths.iter().any(|&w| w == 0 || w > 64) {
            return Err(WidthError::new(format!(
                "input widths {in_widths:?} out of range 1..=64"
            )));
        }
        match self {
            ComponentKind::Add => {
                arity(2)?;
                let w = equal_inputs()?;
                if out_width < w {
                    return Err(WidthError::new(format!(
                        "add output width {out_width} narrower than inputs ({w})"
                    )));
                }
                Ok(())
            }
            ComponentKind::Sub | ComponentKind::Neg => {
                arity(if matches!(self, ComponentKind::Neg) {
                    1
                } else {
                    2
                })?;
                let w = equal_inputs()?;
                out_eq(w)
            }
            ComponentKind::Mul => arity(2),
            ComponentKind::Eq
            | ComponentKind::Ne
            | ComponentKind::Lt
            | ComponentKind::Le
            | ComponentKind::SLt
            | ComponentKind::SLe => {
                arity(2)?;
                equal_inputs()?;
                out_eq(1)
            }
            ComponentKind::And | ComponentKind::Or | ComponentKind::Xor => {
                if in_widths.len() < 2 {
                    return Err(WidthError::new(format!(
                        "{} expects at least 2 inputs, got {}",
                        self.mnemonic(),
                        in_widths.len()
                    )));
                }
                let w = equal_inputs()?;
                out_eq(w)
            }
            ComponentKind::Not => {
                arity(1)?;
                out_eq(in_widths[0])
            }
            ComponentKind::RedAnd | ComponentKind::RedOr | ComponentKind::RedXor => {
                arity(1)?;
                out_eq(1)
            }
            ComponentKind::Shl | ComponentKind::Shr | ComponentKind::Sar => {
                arity(2)?;
                out_eq(in_widths[0])
            }
            ComponentKind::Mux => {
                if in_widths.len() < 3 {
                    return Err(WidthError::new(
                        "mux expects a select input and at least 2 data inputs",
                    ));
                }
                let sel_w = in_widths[0];
                let n_data = in_widths.len() - 1;
                if sel_w < 64 && n_data as u64 > (1u64 << sel_w) {
                    return Err(WidthError::new(format!(
                        "mux has {n_data} data inputs but the {sel_w}-bit select \
                         can only address {}",
                        1u64 << sel_w
                    )));
                }
                let d = in_widths[1];
                if in_widths[1..].iter().any(|&w| w != d) {
                    return Err(WidthError::new(format!(
                        "mux data inputs must share a width, got {:?}",
                        &in_widths[1..]
                    )));
                }
                out_eq(d)
            }
            ComponentKind::Slice { lo } => {
                arity(1)?;
                // Widened: `lo` comes from netlist text and may be near
                // u32::MAX.
                let end = u64::from(*lo) + u64::from(out_width);
                if end > u64::from(in_widths[0]) {
                    return Err(WidthError::new(format!(
                        "slice [{lo}..{end}] exceeds input width {}",
                        in_widths[0]
                    )));
                }
                Ok(())
            }
            ComponentKind::Concat => {
                if in_widths.is_empty() {
                    return Err(WidthError::new("concat expects at least 1 input"));
                }
                let total: u32 = in_widths.iter().sum();
                out_eq(total)
            }
            ComponentKind::ZeroExt | ComponentKind::SignExt => {
                arity(1)?;
                if out_width < in_widths[0] {
                    return Err(WidthError::new(format!(
                        "{} output width {} narrower than input {}",
                        self.mnemonic(),
                        out_width,
                        in_widths[0]
                    )));
                }
                Ok(())
            }
            ComponentKind::Const { value } => {
                arity(0)?;
                if *value > bits::mask(out_width) {
                    return Err(WidthError::new(format!(
                        "constant {value:#x} does not fit {out_width} bits"
                    )));
                }
                Ok(())
            }
            ComponentKind::Table { table } => {
                arity(1)?;
                let w = in_widths[0];
                if w > 20 {
                    return Err(WidthError::new(format!(
                        "table input width {w} exceeds the 20-bit limit"
                    )));
                }
                if table.len() as u64 != 1u64 << w {
                    return Err(WidthError::new(format!(
                        "table has {} entries but the {w}-bit input addresses {}",
                        table.len(),
                        1u64 << w
                    )));
                }
                if let Some(bad) = table.iter().find(|&&v| v > bits::mask(out_width)) {
                    return Err(WidthError::new(format!(
                        "table entry {bad:#x} does not fit {out_width} bits"
                    )));
                }
                Ok(())
            }
            ComponentKind::Register { init, has_enable } => {
                arity(if *has_enable { 2 } else { 1 })?;
                if *has_enable && in_widths[1] != 1 {
                    return Err(WidthError::new("register enable must be 1 bit"));
                }
                if let Some(init) = init {
                    if *init > bits::mask(in_widths[0]) {
                        return Err(WidthError::new(format!(
                            "register init {init:#x} does not fit {} bits",
                            in_widths[0]
                        )));
                    }
                }
                out_eq(in_widths[0])
            }
            ComponentKind::Memory { words, init } => {
                arity(4)?;
                if *words == 0 {
                    return Err(WidthError::new("memory must have at least 1 word"));
                }
                let addr_w = bits::clog2(*words as u64).max(1);
                if in_widths[0] != addr_w || in_widths[1] != addr_w {
                    return Err(WidthError::new(format!(
                        "memory of {words} words requires {addr_w}-bit addresses, \
                         got raddr={} waddr={}",
                        in_widths[0], in_widths[1]
                    )));
                }
                if in_widths[3] != 1 {
                    return Err(WidthError::new("memory write enable must be 1 bit"));
                }
                if let Some(init) = init {
                    if init.len() != *words as usize {
                        return Err(WidthError::new(format!(
                            "memory init has {} entries, expected {words}",
                            init.len()
                        )));
                    }
                    if let Some(bad) = init.iter().find(|&&v| v > bits::mask(in_widths[2])) {
                        return Err(WidthError::new(format!(
                            "memory init value {bad:#x} does not fit {} bits",
                            in_widths[2]
                        )));
                    }
                }
                out_eq(in_widths[2])
            }
        }
    }

    /// Evaluates a combinational component.
    ///
    /// `ins` carries the current input values (already masked to their
    /// widths), `in_widths` their widths, and `out_width` the output width.
    /// The result is masked to `out_width`.
    ///
    /// # Panics
    ///
    /// Panics if called on a sequential kind ([`ComponentKind::Register`] or
    /// [`ComponentKind::Memory`]): their semantics live in the simulator's
    /// clock-edge step. Width violations are the caller's responsibility
    /// (they are checked at design construction).
    pub fn eval(&self, ins: &[u64], in_widths: &[u32], out_width: u32) -> u64 {
        let m = bits::mask(out_width);
        match self {
            ComponentKind::Add => ins[0].wrapping_add(ins[1]) & m,
            ComponentKind::Sub => ins[0].wrapping_sub(ins[1]) & m,
            ComponentKind::Mul => ins[0].wrapping_mul(ins[1]) & m,
            ComponentKind::Neg => ins[0].wrapping_neg() & m,
            ComponentKind::Eq => (ins[0] == ins[1]) as u64,
            ComponentKind::Ne => (ins[0] != ins[1]) as u64,
            ComponentKind::Lt => (ins[0] < ins[1]) as u64,
            ComponentKind::Le => (ins[0] <= ins[1]) as u64,
            ComponentKind::SLt => {
                let w = in_widths[0];
                (bits::sign_extend(ins[0], w) < bits::sign_extend(ins[1], w)) as u64
            }
            ComponentKind::SLe => {
                let w = in_widths[0];
                (bits::sign_extend(ins[0], w) <= bits::sign_extend(ins[1], w)) as u64
            }
            ComponentKind::And => ins.iter().copied().fold(m, |a, b| a & b),
            ComponentKind::Or => ins.iter().copied().fold(0, |a, b| a | b) & m,
            ComponentKind::Xor => ins.iter().copied().fold(0, |a, b| a ^ b) & m,
            ComponentKind::Not => !ins[0] & m,
            ComponentKind::RedAnd => (ins[0] == bits::mask(in_widths[0])) as u64,
            ComponentKind::RedOr => (ins[0] != 0) as u64,
            ComponentKind::RedXor => (ins[0].count_ones() & 1) as u64,
            ComponentKind::Shl => {
                let amt = ins[1];
                if amt >= out_width as u64 {
                    0
                } else {
                    (ins[0] << amt) & m
                }
            }
            ComponentKind::Shr => {
                let amt = ins[1];
                if amt >= in_widths[0] as u64 {
                    0
                } else {
                    (ins[0] >> amt) & m
                }
            }
            ComponentKind::Sar => {
                let w = in_widths[0];
                let sx = bits::sign_extend(ins[0], w);
                let amt = ins[1].min(63);
                ((sx >> amt) as u64) & m
            }
            ComponentKind::Mux => {
                let n_data = ins.len() - 1;
                let idx = (ins[0] as usize).min(n_data - 1);
                ins[1 + idx] & m
            }
            ComponentKind::Slice { lo } => (ins[0] >> lo) & m,
            ComponentKind::Concat => {
                let mut acc = 0u64;
                let mut shift = 0u32;
                for (v, w) in ins.iter().zip(in_widths) {
                    acc |= v << shift;
                    shift += w;
                }
                acc & m
            }
            ComponentKind::ZeroExt => ins[0] & m,
            ComponentKind::SignExt => (bits::sign_extend(ins[0], in_widths[0]) as u64) & m,
            ComponentKind::Const { value } => value & m,
            ComponentKind::Table { table } => table[ins[0] as usize] & m,
            ComponentKind::Register { .. } | ComponentKind::Memory { .. } => {
                panic!(
                    "{} is sequential; evaluate it in the clock-edge step",
                    self.mnemonic()
                )
            }
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A component instance in a [`crate::Design`]: a kind plus its netlist
/// connectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    name: String,
    kind: ComponentKind,
    inputs: Vec<SignalId>,
    output: SignalId,
    clock: Option<ClockId>,
}

impl Component {
    pub(crate) fn new(
        name: String,
        kind: ComponentKind,
        inputs: Vec<SignalId>,
        output: SignalId,
        clock: Option<ClockId>,
    ) -> Self {
        Self {
            name,
            kind,
            inputs,
            output,
            clock,
        }
    }

    /// Instance name (unique within the design).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component's kind and parameters.
    pub fn kind(&self) -> &ComponentKind {
        &self.kind
    }

    /// Input signals, in the order required by the kind.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// The single output signal.
    pub fn output(&self) -> SignalId {
        self.output
    }

    /// The clock domain, present iff the component is sequential.
    pub fn clock(&self) -> Option<ClockId> {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval1(kind: ComponentKind, ins: &[u64], in_w: &[u32], out_w: u32) -> u64 {
        kind.check_widths(in_w, out_w).expect("widths");
        kind.eval(ins, in_w, out_w)
    }

    #[test]
    fn add_with_carry_out() {
        assert_eq!(eval1(ComponentKind::Add, &[255, 1], &[8, 8], 8), 0);
        assert_eq!(eval1(ComponentKind::Add, &[255, 1], &[8, 8], 9), 256);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(eval1(ComponentKind::Sub, &[0, 1], &[8, 8], 8), 0xFF);
        assert_eq!(eval1(ComponentKind::Sub, &[5, 3], &[8, 8], 8), 2);
    }

    #[test]
    fn mul_truncates() {
        assert_eq!(eval1(ComponentKind::Mul, &[200, 200], &[8, 8], 16), 40000);
        assert_eq!(
            eval1(ComponentKind::Mul, &[200, 200], &[8, 8], 8),
            40000 & 0xFF
        );
    }

    #[test]
    fn neg_two_complement() {
        assert_eq!(eval1(ComponentKind::Neg, &[1], &[8], 8), 0xFF);
        assert_eq!(eval1(ComponentKind::Neg, &[0], &[8], 8), 0);
    }

    #[test]
    fn comparisons_unsigned_and_signed() {
        assert_eq!(eval1(ComponentKind::Lt, &[3, 5], &[4, 4], 1), 1);
        assert_eq!(eval1(ComponentKind::Le, &[5, 5], &[4, 4], 1), 1);
        // 0xF = -1 signed, so -1 < 2
        assert_eq!(eval1(ComponentKind::SLt, &[0xF, 2], &[4, 4], 1), 1);
        // but unsigned 0xF > 2
        assert_eq!(eval1(ComponentKind::Lt, &[0xF, 2], &[4, 4], 1), 0);
        assert_eq!(eval1(ComponentKind::SLe, &[0xF, 0xF], &[4, 4], 1), 1);
        assert_eq!(eval1(ComponentKind::Eq, &[7, 7], &[4, 4], 1), 1);
        assert_eq!(eval1(ComponentKind::Ne, &[7, 7], &[4, 4], 1), 0);
    }

    #[test]
    fn logic_n_ary() {
        assert_eq!(
            eval1(ComponentKind::And, &[0b1100, 0b1010, 0b1111], &[4, 4, 4], 4),
            0b1000
        );
        assert_eq!(eval1(ComponentKind::Or, &[0b01, 0b10], &[2, 2], 2), 0b11);
        assert_eq!(eval1(ComponentKind::Xor, &[0b11, 0b01], &[2, 2], 2), 0b10);
        assert_eq!(eval1(ComponentKind::Not, &[0b1010], &[4], 4), 0b0101);
    }

    #[test]
    fn reductions() {
        assert_eq!(eval1(ComponentKind::RedAnd, &[0xF], &[4], 1), 1);
        assert_eq!(eval1(ComponentKind::RedAnd, &[0xE], &[4], 1), 0);
        assert_eq!(eval1(ComponentKind::RedOr, &[0], &[4], 1), 0);
        assert_eq!(eval1(ComponentKind::RedOr, &[2], &[4], 1), 1);
        assert_eq!(eval1(ComponentKind::RedXor, &[0b1011], &[4], 1), 1);
        assert_eq!(eval1(ComponentKind::RedXor, &[0b0011], &[4], 1), 0);
    }

    #[test]
    fn shifts() {
        assert_eq!(eval1(ComponentKind::Shl, &[0b0011, 1], &[4, 2], 4), 0b0110);
        assert_eq!(eval1(ComponentKind::Shl, &[0b0011, 3], &[4, 2], 4), 0b1000);
        assert_eq!(eval1(ComponentKind::Shr, &[0b1000, 3], &[4, 2], 4), 1);
        // Shift ≥ width
        assert_eq!(eval1(ComponentKind::Shr, &[0b1000, 63], &[4, 6], 4), 0);
        // Arithmetic: sign fill
        assert_eq!(eval1(ComponentKind::Sar, &[0b1000, 1], &[4, 2], 4), 0b1100);
        assert_eq!(eval1(ComponentKind::Sar, &[0b1000, 3], &[4, 2], 4), 0b1111);
        assert_eq!(eval1(ComponentKind::Sar, &[0b0100, 1], &[4, 2], 4), 0b0010);
    }

    #[test]
    fn mux_selects_and_clamps() {
        let ins = [1, 10, 20, 30];
        assert_eq!(eval1(ComponentKind::Mux, &ins, &[2, 8, 8, 8], 8), 20);
        let ins = [3, 10, 20, 30]; // sel 3 with 3 data inputs → clamp to last
        assert_eq!(eval1(ComponentKind::Mux, &ins, &[2, 8, 8, 8], 8), 30);
    }

    #[test]
    fn slice_concat_extend() {
        assert_eq!(eval1(ComponentKind::Slice { lo: 4 }, &[0xAB], &[8], 4), 0xA);
        assert_eq!(eval1(ComponentKind::Concat, &[0xB, 0xA], &[4, 4], 8), 0xAB);
        assert_eq!(eval1(ComponentKind::ZeroExt, &[0xF], &[4], 8), 0x0F);
        assert_eq!(eval1(ComponentKind::SignExt, &[0xF], &[4], 8), 0xFF);
        assert_eq!(eval1(ComponentKind::SignExt, &[0x7], &[4], 8), 0x07);
    }

    #[test]
    fn const_and_table() {
        assert_eq!(eval1(ComponentKind::Const { value: 42 }, &[], &[], 8), 42);
        let kind = ComponentKind::Table {
            table: vec![3, 1, 0, 2],
        };
        assert_eq!(eval1(kind.clone(), &[0], &[2], 2), 3);
        assert_eq!(eval1(kind, &[3], &[2], 2), 2);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn register_eval_panics() {
        ComponentKind::Register {
            init: Some(0),
            has_enable: false,
        }
        .eval(&[0], &[8], 8);
    }

    #[test]
    fn slice_width_rule_rejects_offsets_near_u32_max() {
        for lo in [u32::MAX, u32::MAX - 3, 1 << 31] {
            let err = ComponentKind::Slice { lo }
                .check_widths(&[6], 4)
                .expect_err("slice past the input");
            assert!(err.to_string().contains("exceeds input width 6"), "{err}");
        }
        assert!(ComponentKind::Slice { lo: 2 }.check_widths(&[6], 4).is_ok());
    }

    #[test]
    fn width_rules_reject_bad_shapes() {
        assert!(ComponentKind::Add.check_widths(&[8, 4], 8).is_err());
        assert!(ComponentKind::Add.check_widths(&[8, 8], 4).is_err());
        assert!(ComponentKind::Eq.check_widths(&[8, 8], 2).is_err());
        assert!(ComponentKind::Mux.check_widths(&[1, 8, 8, 8], 8).is_err());
        assert!(ComponentKind::Slice { lo: 5 }
            .check_widths(&[8], 4)
            .is_err());
        assert!(ComponentKind::Concat.check_widths(&[4, 4], 9).is_err());
        assert!(ComponentKind::Const { value: 256 }
            .check_widths(&[], 8)
            .is_err());
        assert!(ComponentKind::Table { table: vec![0; 3] }
            .check_widths(&[2], 4)
            .is_err());
        assert!(ComponentKind::Register {
            init: Some(256),
            has_enable: false
        }
        .check_widths(&[8], 8)
        .is_err());
        assert!(ComponentKind::Memory {
            words: 16,
            init: None
        }
        .check_widths(&[4, 4, 8, 2], 8)
        .is_err());
        assert!(ComponentKind::Memory {
            words: 16,
            init: Some(vec![0; 15])
        }
        .check_widths(&[4, 4, 8, 1], 8)
        .is_err());
        assert!(ComponentKind::And.check_widths(&[8], 8).is_err());
        assert!(ComponentKind::ZeroExt.check_widths(&[8], 4).is_err());
    }

    #[test]
    fn width_rules_accept_good_shapes() {
        assert!(ComponentKind::Add.check_widths(&[8, 8], 9).is_ok());
        assert!(ComponentKind::Mux.check_widths(&[2, 8, 8, 8], 8).is_ok());
        assert!(ComponentKind::Memory {
            words: 16,
            init: Some(vec![0xFF; 16])
        }
        .check_widths(&[4, 4, 8, 1], 8)
        .is_ok());
        assert!(ComponentKind::Memory {
            words: 1,
            init: None
        }
        .check_widths(&[1, 1, 8, 1], 8)
        .is_ok());
        assert!(ComponentKind::Register {
            init: Some(1),
            has_enable: true
        }
        .check_widths(&[8, 1], 8)
        .is_ok());
    }

    #[test]
    fn zero_width_rejected() {
        assert!(ComponentKind::Not.check_widths(&[0], 1).is_err());
        assert!(ComponentKind::Const { value: 0 }
            .check_widths(&[], 0)
            .is_err());
    }
}
