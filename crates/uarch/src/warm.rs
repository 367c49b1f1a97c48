//! Functional warming: timing-free replay of ops through the
//! long-lived microarchitectural state (caches, TLBs, branch predictor).
//!
//! Sampled simulation measures only representative intervals in detail.
//! Cache and predictor state, however, warms over timescales far longer
//! than any affordable detailed warmup prefix (a pointer chase over a
//! 288 KB footprint takes hundreds of thousands of ops to reach steady
//! state). The warmer replays every skipped op against just that state
//! — no pipeline, no timing — so each measured interval starts from the
//! cache/predictor contents the exact run would have had.

use crate::branch::BranchPredictor;
use crate::cache::MemHierarchy;
use crate::config::CoreConfig;
use crate::stats::Activity;
use crate::tlb::{Mmu, TranslateSide};
use crate::wire::{self, Reader};
use p10_isa::{DynOp, TraceView};

/// Checkpoint container magic + format version. Bump on any layout change
/// so stale on-disk checkpoints decode to `None` and are re-warmed.
const CKPT_MAGIC: &[u8; 8] = b"P10WARM1";

/// The long-lived microarchitectural state shared between functional
/// warming and detailed simulation: branch predictor, cache hierarchy,
/// and TLBs. Cheap to clone; snapshot it at an interval boundary and
/// hand it to [`crate::Core::with_state`] to start a detailed run warm.
#[derive(Debug, Clone)]
pub struct WarmState {
    pub(crate) predictor: BranchPredictor,
    pub(crate) mem: MemHierarchy,
    pub(crate) mmu: Mmu,
}

impl WarmState {
    /// Cold state for the given configuration.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        WarmState {
            predictor: BranchPredictor::new(&cfg.branch),
            mem: MemHierarchy::new(cfg),
            mmu: Mmu::new(cfg),
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.predictor.encode(buf);
        self.mem.encode(buf);
        self.mmu.encode(buf);
    }

    fn decode(r: &mut Reader<'_>, cfg: &CoreConfig) -> Option<WarmState> {
        Some(WarmState {
            predictor: BranchPredictor::decode(r, &cfg.branch)?,
            mem: MemHierarchy::decode(r, cfg)?,
            mmu: Mmu::decode(r, cfg)?,
        })
    }
}

/// Replays ops in program order, updating only a [`WarmState`].
///
/// Per op this touches the I-cache (once per fetched line, mirroring the
/// pipeline's one-access-per-fetch-group policy), trains the branch
/// predictor, and sends loads/stores through the TLB and data hierarchy.
/// All counter side effects land in a scratch [`Activity`] that is never
/// reported.
#[derive(Debug)]
pub struct FunctionalWarmer {
    state: WarmState,
    scratch: Activity,
    /// Last I-line accessed per thread, so sequential fetch within a
    /// line costs one access like the detailed fetch stage.
    last_iline: [u64; 4],
    iline_shift: u32,
    ops: u64,
}

impl FunctionalWarmer {
    /// A cold warmer for the given configuration.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        FunctionalWarmer {
            state: WarmState::new(cfg),
            scratch: Activity::default(),
            last_iline: [u64::MAX; 4],
            iline_shift: cfg.l1i.line_bytes.trailing_zeros(),
            ops: 0,
        }
    }

    /// Replays one trace slice per hardware thread through the state.
    pub fn observe(&mut self, views: &[TraceView]) {
        for (tid, v) in views.iter().enumerate() {
            let tid = tid.min(3);
            for op in v.ops() {
                self.observe_op(tid, op);
            }
        }
    }

    fn observe_op(&mut self, tid: usize, op: &DynOp) {
        self.ops += 1;
        let iline = op.pc >> self.iline_shift;
        if iline != self.last_iline[tid] {
            self.last_iline[tid] = iline;
            self.state
                .mmu
                .translate(op.pc, TranslateSide::Inst, &mut self.scratch);
            self.state.mem.access_inst(op.pc, &mut self.scratch);
        }
        if let Some(info) = op.branch() {
            self.state
                .predictor
                .predict_and_train(tid, op.pc, &info, op.pc + 4);
        }
        if let Some(m) = op.mem() {
            self.state
                .mmu
                .translate(m.addr, TranslateSide::Data, &mut self.scratch);
            self.state.mem.access_data(m.addr, &mut self.scratch);
        }
    }

    /// Ops replayed so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Cumulative counter side effects of the replay (cache and TLB
    /// access/miss counts). Timing-free, but exactly the signal that
    /// distinguishes a cold cache transient from steady state — diff
    /// snapshots of this between intervals to get per-interval rates.
    #[must_use]
    pub fn activity(&self) -> &Activity {
        &self.scratch
    }

    /// The current warmed state (snapshot with `.clone()`).
    #[must_use]
    pub fn state(&self) -> &WarmState {
        &self.state
    }

    /// Serializes the complete warmer — replay position, scratch
    /// counters, fetch-line memo, and the full [`WarmState`] — into a
    /// self-validating binary checkpoint (magic + version header, FNV-1a
    /// trailer checksum).
    ///
    /// Only *warm-relevant* parameters (table geometries, capacities)
    /// are embedded; timing parameters (latencies, penalties) are
    /// re-derived from the config at [`FunctionalWarmer::from_bytes`]
    /// time, so one checkpoint serves every config in the same
    /// warm-equivalence class.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 * 1024);
        buf.extend_from_slice(CKPT_MAGIC);
        wire::put_u64(&mut buf, self.ops);
        wire::put_u32(&mut buf, self.iline_shift);
        for &l in &self.last_iline {
            wire::put_u64(&mut buf, l);
        }
        let scratch = serde_json::to_string(&self.scratch).expect("Activity serializes");
        wire::put_bytes(&mut buf, scratch.as_bytes());
        self.state.encode(&mut buf);
        let sum = wire::fnv1a64(&buf);
        wire::put_u64(&mut buf, sum);
        buf
    }

    /// Restores a warmer from a checkpoint produced by
    /// [`FunctionalWarmer::to_bytes`] under a config in the same
    /// warm-equivalence class.
    ///
    /// Returns `None` — never panics — on a bad magic, failed checksum,
    /// truncated payload, trailing garbage, or any geometry that does not
    /// match `cfg`; callers fall back to warming from scratch.
    #[must_use]
    pub fn from_bytes(cfg: &CoreConfig, bytes: &[u8]) -> Option<FunctionalWarmer> {
        if bytes.len() < CKPT_MAGIC.len() + 8 {
            return None;
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().ok()?);
        if wire::fnv1a64(body) != stored {
            return None;
        }
        let mut r = Reader::new(body);
        if r.take(CKPT_MAGIC.len())? != CKPT_MAGIC {
            return None;
        }
        let ops = r.take_u64()?;
        let iline_shift = r.take_u32()?;
        if iline_shift != cfg.l1i.line_bytes.trailing_zeros() {
            return None;
        }
        let mut last_iline = [u64::MAX; 4];
        for l in &mut last_iline {
            *l = r.take_u64()?;
        }
        let scratch_json = std::str::from_utf8(r.take_bytes()?).ok()?;
        let scratch: Activity = serde_json::from_str(scratch_json).ok()?;
        let state = WarmState::decode(&mut r, cfg)?;
        if !r.is_done() {
            return None;
        }
        Some(FunctionalWarmer {
            state,
            scratch,
            last_iline,
            iline_shift,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_isa::{MemRef, OpClass};

    fn chase_trace(lines: u64) -> TraceView {
        let ops: Vec<DynOp> = (0..lines)
            .map(|i| {
                let mut op = DynOp::new(i * 4, OpClass::Load);
                op.set_mem(MemRef {
                    addr: (i * 131) % lines * 128,
                    size: 8,
                });
                op
            })
            .collect();
        TraceView::from(ops)
    }

    #[test]
    fn warming_fills_the_caches() {
        let cfg = CoreConfig::power10();
        let view = chase_trace(4096);
        let mut w = FunctionalWarmer::new(&cfg);
        w.observe(std::slice::from_ref(&view));
        assert_eq!(w.ops(), 4096);
        // After replaying the whole footprint (512 KB — larger than L1,
        // within L2), a second pass should hit overwhelmingly below L1:
        // replay again and compare the scratch L2-miss deltas.
        let before = w.scratch.l2_misses;
        w.observe(&[view]);
        let second_pass = w.scratch.l2_misses - before;
        assert!(
            second_pass * 4 < before,
            "second pass misses {second_pass} not << first pass {before}"
        );
    }

    #[test]
    fn checkpoint_round_trips_and_resumes_byte_identically() {
        for cfg in [CoreConfig::power9(), CoreConfig::power10()] {
            let mut w = FunctionalWarmer::new(&cfg);
            w.observe(&[chase_trace(2048)]);
            let bytes = w.to_bytes();
            let restored = FunctionalWarmer::from_bytes(&cfg, &bytes).expect("valid checkpoint");
            assert_eq!(restored.to_bytes(), bytes, "decode(encode(x)) == x");
            // Resuming from the checkpoint must be indistinguishable from
            // never having serialized at all.
            let mut direct = w;
            let mut resumed = restored;
            direct.observe(&[chase_trace(512)]);
            resumed.observe(&[chase_trace(512)]);
            assert_eq!(direct.to_bytes(), resumed.to_bytes());
            assert_eq!(direct.ops(), resumed.ops());
        }
    }

    #[test]
    fn corrupt_truncated_or_mismatched_checkpoints_decode_to_none() {
        let cfg = CoreConfig::power10();
        let mut w = FunctionalWarmer::new(&cfg);
        w.observe(&[chase_trace(256)]);
        let bytes = w.to_bytes();
        assert!(FunctionalWarmer::from_bytes(&cfg, &bytes).is_some());
        // Truncation at every-ish prefix length.
        for cut in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                FunctionalWarmer::from_bytes(&cfg, &bytes[..cut]).is_none(),
                "truncated at {cut} must not decode"
            );
        }
        // A single flipped byte fails the checksum.
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() / 3] ^= 0x40;
        assert!(FunctionalWarmer::from_bytes(&cfg, &corrupt).is_none());
        // Trailing garbage is rejected even with a fixed-up checksum.
        let mut padded = bytes[..bytes.len() - 8].to_vec();
        padded.push(0);
        let sum = crate::wire::fnv1a64(&padded);
        padded.extend_from_slice(&sum.to_le_bytes());
        assert!(FunctionalWarmer::from_bytes(&cfg, &padded).is_none());
        // A different warm geometry must refuse the blob.
        assert!(
            FunctionalWarmer::from_bytes(&CoreConfig::power9(), &bytes).is_none(),
            "POWER9 geometry must reject a POWER10 checkpoint"
        );
    }

    #[test]
    fn warm_state_clones_are_independent() {
        let cfg = CoreConfig::power10();
        let mut w = FunctionalWarmer::new(&cfg);
        let cold = w.state().clone();
        w.observe(&[chase_trace(512)]);
        let mut scratch = Activity::default();
        let mut warm = w.state().clone();
        let mut cold = cold;
        let (_, warm_lvl) = warm.mem.access_data(0, &mut scratch);
        let (_, cold_lvl) = cold.mem.access_data(0, &mut scratch);
        assert_ne!(
            (warm_lvl, cold_lvl),
            (crate::cache::HitLevel::Mem, crate::cache::HitLevel::L1),
            "sanity: warm state should not be colder than cold state"
        );
    }
}
