//! Instruction-fusion legality rules.
//!
//! POWER10 detects over 200 fusible instruction-type pairs at pre-decode
//! and fuses them at decode (paper §II-B), paying one operation's worth of
//! decode/dispatch/issue activity for two instructions' work, and cutting
//! dependent-operation latency. This module defines *which adjacent dynamic
//! ops may fuse*; whether fusion actually happens (and what it saves) is
//! the decode model's job in `p10-uarch`.
//!
//! The >200 architectural pair types collapse into four behavioural
//! categories here, each with the paper's documented effect:
//!
//! * [`FusionKind::CmpBranch`] — compare + conditional branch.
//! * [`FusionKind::DependentAlu`] — dependent simple-ALU pairs (single
//!   shared issue-queue entry, zero-cycle dependent latency).
//! * [`FusionKind::AddrGenLoad`] — address-forming add + load.
//! * [`FusionKind::StorePair`] — stores to consecutive addresses (single
//!   address-generation operation; one store-queue entry when each store is
//!   eight bytes or fewer).

use crate::dynop::{DynOp, OpClass};
#[cfg(test)]
use crate::reg::Reg;
use crate::reg::RegClass;
use serde::{Deserialize, Serialize};

/// Behavioural category of a fusible pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FusionKind {
    /// Compare feeding a conditional branch on the same CR field.
    CmpBranch,
    /// Simple ALU op feeding a dependent simple ALU op.
    DependentAlu,
    /// ALU op producing the base register of an immediately following load.
    AddrGenLoad,
    /// Two stores to consecutive byte addresses.
    StorePair,
    /// `mtctr`/`mtlr` feeding the indirect branch that consumes it — the
    /// paper's "as low as zero cycles" GPR-to-branch-target-register
    /// exchange enabled by merging branch execution into the slices.
    MoveSprBranch,
}

impl FusionKind {
    /// Whether the fused pair occupies a single issue-queue entry.
    #[must_use]
    pub fn single_issue_entry(self) -> bool {
        match self {
            FusionKind::CmpBranch | FusionKind::DependentAlu | FusionKind::MoveSprBranch => true,
            FusionKind::AddrGenLoad => false,
            FusionKind::StorePair => true,
        }
    }
}

/// Returns the fusion category if dynamic ops `a` then `b` (adjacent in
/// program order) form a fusible pair.
#[must_use]
pub fn classify_pair(a: &DynOp, b: &DynOp) -> Option<FusionKind> {
    // A pair never fuses across a branch boundary on the older side:
    // the older op must produce, the younger consume.
    if let Some(kind) = cmp_branch(a, b) {
        return Some(kind);
    }
    if let Some(kind) = store_pair(a, b) {
        return Some(kind);
    }
    if let Some(kind) = addrgen_load(a, b) {
        return Some(kind);
    }
    if let Some(kind) = movespr_branch(a, b) {
        return Some(kind);
    }
    dependent_alu(a, b)
}

fn movespr_branch(a: &DynOp, b: &DynOp) -> Option<FusionKind> {
    if a.class != OpClass::MoveSpr || b.class != OpClass::Branch {
        return None;
    }
    let dst = a
        .dest()
        .filter(|r| matches!(r.class(), RegClass::Ctr | RegClass::Lr))?;
    b.sources()
        .any(|s| s == dst)
        .then_some(FusionKind::MoveSprBranch)
}

fn cmp_branch(a: &DynOp, b: &DynOp) -> Option<FusionKind> {
    if a.class != OpClass::IntAlu || b.class != OpClass::Branch {
        return None;
    }
    let cr_dst = a.dest().filter(|r| r.class() == RegClass::Cr)?;
    b.sources()
        .any(|s| s == cr_dst)
        .then_some(FusionKind::CmpBranch)
}

fn dependent_alu(a: &DynOp, b: &DynOp) -> Option<FusionKind> {
    if a.class != OpClass::IntAlu || b.class != OpClass::IntAlu {
        return None;
    }
    let dst = a.dest().filter(|r| r.class() == RegClass::Gpr)?;
    b.sources()
        .any(|s| s == dst)
        .then_some(FusionKind::DependentAlu)
}

fn addrgen_load(a: &DynOp, b: &DynOp) -> Option<FusionKind> {
    if a.class != OpClass::IntAlu || b.class != OpClass::Load {
        return None;
    }
    let dst = a.dest().filter(|r| r.class() == RegClass::Gpr)?;
    b.sources()
        .any(|s| s == dst)
        .then_some(FusionKind::AddrGenLoad)
}

fn store_pair(a: &DynOp, b: &DynOp) -> Option<FusionKind> {
    let (ma, mb) = (a.mem()?, b.mem()?);
    if !a.is_store() || !b.is_store() {
        return None;
    }
    // Consecutive addresses, each store up to 16 bytes (the fused pair is
    // handled by a single address-generation operation supporting two
    // stores up to 16 bytes each, per the paper).
    (ma.size <= 16 && mb.size <= 16 && mb.addr == ma.addr + u64::from(ma.size))
        .then_some(FusionKind::StorePair)
}

/// Whether a fused [`FusionKind::StorePair`] consumes a single store-queue
/// entry (true when both stores are eight bytes or fewer).
#[must_use]
pub fn store_pair_single_sq_entry(a: &DynOp, b: &DynOp) -> bool {
    matches!((a.mem(), b.mem()), (Some(ma), Some(mb)) if ma.size <= 8 && mb.size <= 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynop::{BranchInfo, BranchKind, MemRef};

    fn alu(dst: Reg, srcs: &[Reg]) -> DynOp {
        let mut op = DynOp::new(0, OpClass::IntAlu);
        for &s in srcs {
            op.add_src(s);
        }
        op.set_dst(dst);
        op
    }

    fn store(addr: u64, size: u8) -> DynOp {
        let mut op = DynOp::new(0, OpClass::Store);
        op.set_mem(MemRef { addr, size });
        op
    }

    #[test]
    fn cmp_branch_fuses() {
        let cmp = alu(Reg::cr(0), &[Reg::gpr(3)]);
        let mut br = DynOp::new(4, OpClass::Branch);
        br.add_src(Reg::cr(0));
        br.set_branch(BranchInfo {
            kind: BranchKind::Conditional,
            taken: true,
            target: 0x100,
        });
        assert_eq!(classify_pair(&cmp, &br), Some(FusionKind::CmpBranch));
    }

    #[test]
    fn cmp_branch_requires_matching_cr_field() {
        let cmp = alu(Reg::cr(1), &[Reg::gpr(3)]);
        let mut br = DynOp::new(4, OpClass::Branch);
        br.add_src(Reg::cr(0));
        assert_eq!(classify_pair(&cmp, &br), None);
    }

    #[test]
    fn dependent_alu_fuses() {
        let a = alu(Reg::gpr(3), &[Reg::gpr(1)]);
        let b = alu(Reg::gpr(4), &[Reg::gpr(3)]);
        assert_eq!(classify_pair(&a, &b), Some(FusionKind::DependentAlu));
    }

    #[test]
    fn independent_alu_does_not_fuse() {
        let a = alu(Reg::gpr(3), &[Reg::gpr(1)]);
        let b = alu(Reg::gpr(4), &[Reg::gpr(2)]);
        assert_eq!(classify_pair(&a, &b), None);
    }

    #[test]
    fn addrgen_load_fuses() {
        let a = alu(Reg::gpr(7), &[Reg::gpr(1)]);
        let mut ld = DynOp::new(4, OpClass::Load);
        ld.add_src(Reg::gpr(7));
        ld.set_dst(Reg::gpr(8));
        ld.set_mem(MemRef { addr: 64, size: 8 });
        assert_eq!(classify_pair(&a, &ld), Some(FusionKind::AddrGenLoad));
    }

    #[test]
    fn consecutive_stores_fuse() {
        let a = store(0x1000, 8);
        let b = store(0x1008, 8);
        assert_eq!(classify_pair(&a, &b), Some(FusionKind::StorePair));
        assert!(store_pair_single_sq_entry(&a, &b));
    }

    #[test]
    fn wide_consecutive_stores_fuse_but_use_two_sq_entries() {
        let a = store(0x1000, 16);
        let b = store(0x1010, 16);
        assert_eq!(classify_pair(&a, &b), Some(FusionKind::StorePair));
        assert!(!store_pair_single_sq_entry(&a, &b));
    }

    #[test]
    fn non_consecutive_stores_do_not_fuse() {
        let a = store(0x1000, 8);
        let b = store(0x1010, 8);
        assert_eq!(classify_pair(&a, &b), None);
        let c = store(0x0ff8, 8); // descending
        assert_eq!(classify_pair(&a, &c), None);
    }

    #[test]
    fn mtctr_bctr_fuses_for_zero_cycle_exchange() {
        let mut mv = DynOp::new(0, OpClass::MoveSpr);
        mv.add_src(Reg::gpr(4));
        mv.set_dst(Reg::ctr());
        let mut br = DynOp::new(4, OpClass::Branch);
        br.add_src(Reg::ctr());
        br.set_branch(BranchInfo {
            kind: BranchKind::Indirect,
            taken: true,
            target: 0x200,
        });
        assert_eq!(classify_pair(&mv, &br), Some(FusionKind::MoveSprBranch));
        // mtctr followed by an unrelated branch does not fuse.
        let mut ret = DynOp::new(4, OpClass::Branch);
        ret.add_src(Reg::lr());
        assert_eq!(classify_pair(&mv, &ret), None);
    }

    #[test]
    fn single_entry_property_per_kind() {
        assert!(FusionKind::CmpBranch.single_issue_entry());
        assert!(FusionKind::DependentAlu.single_issue_entry());
        assert!(!FusionKind::AddrGenLoad.single_issue_entry());
    }
}
