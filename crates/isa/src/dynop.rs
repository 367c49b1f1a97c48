//! Dynamic operations: the trace records consumed by the timing model.
//!
//! A [`DynOp`] is one executed instruction with all dynamic information
//! resolved: source/destination registers (packed), memory address and size,
//! branch outcome and target, and the work it represents (flops / MACs).
//! The cycle-level model in `p10-uarch` replays these without re-executing
//! semantics.

use crate::reg::{Reg, ARCH_REG_COUNT};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Maximum number of register sources carried per dynamic op.
pub const MAX_SRCS: usize = 4;

/// Execution-resource class of a dynamic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Simple integer ALU op (1-cycle class).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (long latency, unpipelined).
    IntDiv,
    /// Any branch (details in [`DynOp::branch`]).
    Branch,
    /// Memory load (details in [`DynOp::mem`]).
    Load,
    /// Memory store (details in [`DynOp::mem`]).
    Store,
    /// VSX simple (logical/permute/splat) op.
    VsxSimple,
    /// VSX floating-point arithmetic (add/mul/FMA); flops in
    /// [`DynOp::flops`].
    VsxFp,
    /// MMA outer-product op executing on the accelerator grid.
    Mma(MmaKind),
    /// MMA accumulator move / prime / zero.
    MmaMove,
    /// Move to/from special register (CTR/LR).
    MoveSpr,
    /// No-op (still fetched/decoded/completed).
    Nop,
    /// Hint (e.g. MMA wake): consumes front-end slots only.
    Hint,
}

/// Data type executed by an MMA outer-product instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmaKind {
    /// Double-precision `ger` (4×2 grid, 16 flops per op).
    F64,
    /// Single-precision `ger` (4×4 grid, 32 flops per op).
    F32,
    /// Bfloat16 rank-2 `ger` (4×4 grid of f32, 32 MACs per op).
    Bf16,
    /// INT8 rank-4 `ger` (4×4 grid, 64 MACs per op).
    I8,
}

impl MmaKind {
    /// Floating-point operations (or MAC-equivalents for INT8) performed by
    /// one instruction of this kind.
    #[must_use]
    pub fn ops_per_inst(self) -> u32 {
        match self {
            MmaKind::F64 => 16,
            MmaKind::F32 => 32,
            MmaKind::Bf16 => 64, // 32 MACs = 64 flops
            MmaKind::I8 => 128,  // 64 MACs = 128 int ops
        }
    }
}

/// Kind of branch, for predictor modeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Unconditional direct branch.
    Direct,
    /// Conditional direct branch.
    Conditional,
    /// Counter-based loop branch (`bdnz`).
    Counter,
    /// Indirect branch through CTR.
    Indirect,
    /// Call (`bl`): pushes a return address.
    Call,
    /// Return (`blr`): indirect through LR, predictable via a return stack.
    Return,
}

/// Resolved outcome of a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Branch kind.
    pub kind: BranchKind,
    /// Whether the branch was taken.
    pub taken: bool,
    /// The address of the next instruction actually executed.
    pub target: u64,
}

/// Resolved memory access of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRef {
    /// Effective (virtual) byte address.
    pub addr: u64,
    /// Access size in bytes (1–32).
    pub size: u8,
}

/// One executed instruction with dynamic information resolved.
///
/// Packed into 32 bytes: every trace buffer, arena entry and in-flight
/// pipeline slot holds one, so the record size sets the host memory of a
/// long trace. An op carries at most one of a memory access (loads and
/// stores) or a branch outcome (branches), so both share one `addr` word
/// (effective address or branch target) and one `aux` byte (access size
/// or [`BranchKind`]); `flags` says which, if either, is present. Register
/// slots hold [`Reg::packed`] ids, which fit a byte (`ARCH_REG_COUNT` is
/// 114). Read the access and outcome through [`DynOp::mem`] and
/// [`DynOp::branch`]; set them with [`DynOp::set_mem`] and
/// [`DynOp::set_branch`].
#[derive(Clone, Copy, PartialEq)]
pub struct DynOp {
    /// Instruction address.
    pub pc: u64,
    /// Memory effective address (`FLAG_MEM`) or branch target
    /// (`FLAG_BRANCH`); 0 otherwise.
    addr: u64,
    /// Packed source registers (0 = empty slot).
    srcs: [u8; MAX_SRCS],
    /// Packed destination register (0 = none).
    dst: u8,
    /// Packed second destination register (0 = none) — used by update-form
    /// memory ops and paired (32-byte) vector loads.
    dst2: u8,
    /// Floating-point (or int-MAC-equivalent) operations this op performs.
    pub flops: u16,
    /// Resource class.
    pub class: OpClass,
    /// Access size in bytes (`FLAG_MEM`) or `BranchKind` discriminant
    /// (`FLAG_BRANCH`); 0 otherwise.
    aux: u8,
    /// `FLAG_*` bits.
    flags: u8,
    /// Whether the static instruction used the prefixed (8-byte) encoding.
    pub prefixed: bool,
}

const FLAG_MEM: u8 = 1;
const FLAG_BRANCH: u8 = 1 << 1;
const FLAG_TAKEN: u8 = 1 << 2;

const _: () = assert!(std::mem::size_of::<DynOp>() == 32);
const _: () = assert!(ARCH_REG_COUNT <= u8::MAX as u16);

/// `BranchKind` by its `as u8` discriminant.
const BRANCH_KINDS: [BranchKind; 6] = [
    BranchKind::Direct,
    BranchKind::Conditional,
    BranchKind::Counter,
    BranchKind::Indirect,
    BranchKind::Call,
    BranchKind::Return,
];

/// A register's packed id as a one-byte operand slot (lossless: the
/// const assert above bounds every id by `u8::MAX`).
fn slot(r: Reg) -> u8 {
    r.packed() as u8
}

impl DynOp {
    /// A blank op of the given class at `pc` (no operands).
    #[must_use]
    pub fn new(pc: u64, class: OpClass) -> Self {
        DynOp {
            pc,
            addr: 0,
            srcs: [0; MAX_SRCS],
            dst: 0,
            dst2: 0,
            flops: 0,
            class,
            aux: 0,
            flags: 0,
            prefixed: false,
        }
    }

    /// Memory access, for loads/stores.
    #[must_use]
    pub fn mem(&self) -> Option<MemRef> {
        (self.flags & FLAG_MEM != 0).then_some(MemRef {
            addr: self.addr,
            size: self.aux,
        })
    }

    /// Branch outcome, for branches.
    #[must_use]
    pub fn branch(&self) -> Option<BranchInfo> {
        (self.flags & FLAG_BRANCH != 0).then(|| BranchInfo {
            kind: BRANCH_KINDS[usize::from(self.aux)],
            taken: self.flags & FLAG_TAKEN != 0,
            target: self.addr,
        })
    }

    /// Records the op's memory access (replacing any branch outcome: the
    /// two share storage).
    pub fn set_mem(&mut self, m: MemRef) {
        self.addr = m.addr;
        self.aux = m.size;
        self.flags = FLAG_MEM;
    }

    /// Records the op's branch outcome (replacing any memory access: the
    /// two share storage).
    pub fn set_branch(&mut self, b: BranchInfo) {
        self.addr = b.target;
        self.aux = b.kind as u8;
        self.flags = FLAG_BRANCH | if b.taken { FLAG_TAKEN } else { 0 };
    }

    /// Adds a source register (ignores duplicates and full slots are a
    /// logic error caught by `debug_assert`).
    pub fn add_src(&mut self, r: Reg) {
        let p = slot(r);
        for s in &mut self.srcs {
            if *s == p {
                return;
            }
            if *s == 0 {
                *s = p;
                return;
            }
        }
        debug_assert!(false, "more than {MAX_SRCS} sources on one op");
    }

    /// Sets the destination register.
    pub fn set_dst(&mut self, r: Reg) {
        self.dst = slot(r);
    }

    /// Sets the second destination register.
    pub fn set_dst2(&mut self, r: Reg) {
        self.dst2 = slot(r);
    }

    /// Iterator over the populated source registers.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().filter_map(|&p| Reg::from_packed(p.into()))
    }

    /// The destination register, if any.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        Reg::from_packed(self.dst.into())
    }

    /// The second destination register, if any.
    #[must_use]
    pub fn dest2(&self) -> Option<Reg> {
        Reg::from_packed(self.dst2.into())
    }

    /// Whether this op is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.class == OpClass::Load
    }

    /// Whether this op is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }

    /// Whether this op is a branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }

    /// Whether this op executes on the MMA grid.
    #[must_use]
    pub fn is_mma_compute(&self) -> bool {
        matches!(self.class, OpClass::Mma(_))
    }
}

impl fmt::Debug for DynOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynOp")
            .field("pc", &self.pc)
            .field("class", &self.class)
            .field("srcs", &self.sources().collect::<Vec<_>>())
            .field("dst", &self.dest())
            .field("dst2", &self.dest2())
            .field("mem", &self.mem())
            .field("branch", &self.branch())
            .field("flops", &self.flops)
            .field("prefixed", &self.prefixed)
            .finish()
    }
}

/// The serialized form of a [`DynOp`]: the unpacked field layout, so
/// trace JSON names the memory access and branch outcome directly.
#[derive(Serialize, Deserialize)]
struct DynOpRecord {
    pc: u64,
    class: OpClass,
    srcs: [u16; MAX_SRCS],
    dst: u16,
    dst2: u16,
    mem: Option<MemRef>,
    branch: Option<BranchInfo>,
    flops: u16,
    prefixed: bool,
}

impl Serialize for DynOp {
    fn to_value(&self) -> Value {
        DynOpRecord {
            pc: self.pc,
            class: self.class,
            srcs: self.srcs.map(u16::from),
            dst: self.dst.into(),
            dst2: self.dst2.into(),
            mem: self.mem(),
            branch: self.branch(),
            flops: self.flops,
            prefixed: self.prefixed,
        }
        .to_value()
    }
}

impl Deserialize for DynOp {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let r = DynOpRecord::from_value(v)?;
        let reg = |p: u16| {
            if p <= ARCH_REG_COUNT {
                Ok(p as u8)
            } else {
                Err(serde::Error::custom(format!(
                    "DynOp: register id {p} out of range"
                )))
            }
        };
        let mut op = DynOp::new(r.pc, r.class);
        for (s, p) in op.srcs.iter_mut().zip(r.srcs) {
            *s = reg(p)?;
        }
        op.dst = reg(r.dst)?;
        op.dst2 = reg(r.dst2)?;
        op.flops = r.flops;
        op.prefixed = r.prefixed;
        match (r.mem, r.branch) {
            (Some(_), Some(_)) => {
                return Err(serde::Error::custom("DynOp: both mem and branch set"));
            }
            (Some(m), None) => op.set_mem(m),
            (None, Some(b)) => op.set_branch(b),
            (None, None) => {}
        }
        Ok(op)
    }
}

/// A dynamic-op trace: the output of functional execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Executed operations in program (retirement) order.
    pub ops: Vec<DynOp>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of dynamic operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total flops (and int-MAC-equivalents) in the trace.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.ops.iter().map(|o| u64::from(o.flops)).sum()
    }

    /// Fraction of ops satisfying a predicate.
    #[must_use]
    pub fn fraction(&self, pred: impl Fn(&DynOp) -> bool) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.ops.iter().filter(|o| pred(o)).count() as f64 / self.ops.len() as f64
    }
}

impl FromIterator<DynOp> for Trace {
    fn from_iter<T: IntoIterator<Item = DynOp>>(iter: T) -> Self {
        Trace {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<DynOp> for Trace {
    fn extend<T: IntoIterator<Item = DynOp>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_src_dedups_and_fills_slots() {
        let mut op = DynOp::new(0, OpClass::IntAlu);
        op.add_src(Reg::gpr(1));
        op.add_src(Reg::gpr(1));
        op.add_src(Reg::gpr(2));
        let srcs: Vec<_> = op.sources().collect();
        assert_eq!(srcs, vec![Reg::gpr(1), Reg::gpr(2)]);
    }

    #[test]
    fn dst_accessors() {
        let mut op = DynOp::new(0, OpClass::Load);
        assert_eq!(op.dest(), None);
        op.set_dst(Reg::gpr(3));
        op.set_dst2(Reg::gpr(4));
        assert_eq!(op.dest(), Some(Reg::gpr(3)));
        assert_eq!(op.dest2(), Some(Reg::gpr(4)));
    }

    #[test]
    fn class_predicates() {
        assert!(DynOp::new(0, OpClass::Load).is_load());
        assert!(DynOp::new(0, OpClass::Store).is_store());
        assert!(DynOp::new(0, OpClass::Branch).is_branch());
        assert!(DynOp::new(0, OpClass::Mma(MmaKind::F32)).is_mma_compute());
        assert!(!DynOp::new(0, OpClass::MmaMove).is_mma_compute());
    }

    #[test]
    fn mma_ops_per_inst() {
        assert_eq!(MmaKind::F64.ops_per_inst(), 16);
        assert_eq!(MmaKind::F32.ops_per_inst(), 32);
        assert_eq!(MmaKind::Bf16.ops_per_inst(), 64);
        assert_eq!(MmaKind::I8.ops_per_inst(), 128);
    }

    #[test]
    fn trace_aggregates() {
        let mut t = Trace::new();
        let mut a = DynOp::new(0, OpClass::VsxFp);
        a.flops = 4;
        let b = DynOp::new(4, OpClass::IntAlu);
        t.extend([a, b]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_flops(), 4);
        assert!((t.fraction(|o| o.class == OpClass::IntAlu) - 0.5).abs() < 1e-12);
    }

    const ALL_KINDS: [BranchKind; 6] = [
        BranchKind::Direct,
        BranchKind::Conditional,
        BranchKind::Counter,
        BranchKind::Indirect,
        BranchKind::Call,
        BranchKind::Return,
    ];

    #[test]
    fn set_mem_round_trips_every_access_size() {
        for size in 1..=32 {
            for addr in [0, 0x8000 + u64::from(size), u64::MAX] {
                let mut op = DynOp::new(4, OpClass::Load);
                op.set_mem(MemRef { addr, size });
                assert_eq!(op.mem(), Some(MemRef { addr, size }));
                assert_eq!(op.branch(), None);
            }
        }
    }

    #[test]
    fn set_branch_round_trips_every_kind_outcome_and_target() {
        for kind in ALL_KINDS {
            for taken in [false, true] {
                for target in [0, 0x1_0004, u64::MAX] {
                    let b = BranchInfo {
                        kind,
                        taken,
                        target,
                    };
                    let mut op = DynOp::new(4, OpClass::Branch);
                    op.set_branch(b);
                    assert_eq!(op.branch(), Some(b));
                    assert_eq!(op.mem(), None);
                }
            }
        }
    }

    #[test]
    fn mem_and_branch_share_storage() {
        let mut op = DynOp::new(0, OpClass::Load);
        assert_eq!((op.mem(), op.branch()), (None, None));
        op.set_mem(MemRef { addr: 64, size: 8 });
        op.set_branch(BranchInfo {
            kind: BranchKind::Call,
            taken: true,
            target: 0x40,
        });
        assert_eq!(op.mem(), None);
        op.set_mem(MemRef { addr: 64, size: 8 });
        assert_eq!(op.branch(), None);
        // Equality sees through the packing: the same logical op compares
        // equal however it was built.
        let mut fresh = DynOp::new(0, OpClass::Load);
        fresh.set_mem(MemRef { addr: 64, size: 8 });
        assert_eq!(op, fresh);
    }

    #[test]
    fn every_register_fits_an_operand_slot() {
        let mut op = DynOp::new(0, OpClass::IntAlu);
        for p in 1..=ARCH_REG_COUNT {
            let r = Reg::from_packed(p).unwrap();
            op.set_dst(r);
            op.set_dst2(r);
            assert_eq!((op.dest(), op.dest2()), (Some(r), Some(r)));
        }
    }

    #[test]
    fn serialized_form_keeps_the_unpacked_fields() {
        let mut ld = DynOp::new(0x1000, OpClass::Load);
        ld.add_src(Reg::gpr(1));
        ld.set_dst(Reg::vsr(63));
        ld.set_mem(MemRef {
            addr: 0x8000,
            size: 32,
        });
        let mut br = DynOp::new(0x1004, OpClass::Branch);
        br.set_branch(BranchInfo {
            kind: BranchKind::Counter,
            taken: false,
            target: 0x1008,
        });
        for op in [ld, br] {
            let v = op.to_value();
            for key in ["pc", "class", "srcs", "dst", "dst2", "mem", "branch"] {
                assert!(v.get(key).is_some(), "missing {key}");
            }
            assert_eq!(DynOp::from_value(&v).unwrap(), op);
        }
        assert_eq!(ld.to_value().get("branch"), Some(&Value::Null));
    }

    #[test]
    fn deserialize_rejects_unpackable_records() {
        let mut ld = DynOp::new(0, OpClass::Load);
        ld.set_mem(MemRef { addr: 8, size: 8 });
        let Value::Object(mut fields) = ld.to_value() else {
            panic!("DynOp serializes to an object");
        };
        let both = BranchInfo {
            kind: BranchKind::Direct,
            taken: true,
            target: 0,
        };
        let set = |fields: &mut Vec<(String, Value)>, key: &str, v: Value| {
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = v;
        };
        let mut with_branch = fields.clone();
        set(&mut with_branch, "branch", both.to_value());
        assert!(DynOp::from_value(&Value::Object(with_branch)).is_err());
        set(
            &mut fields,
            "dst",
            Value::U64(u64::from(ARCH_REG_COUNT) + 1),
        );
        assert!(DynOp::from_value(&Value::Object(fields)).is_err());
    }

    #[test]
    fn empty_trace_fraction_is_zero() {
        assert_eq!(Trace::new().fraction(|_| true), 0.0);
    }
}
