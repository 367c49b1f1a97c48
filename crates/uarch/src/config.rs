//! Core configuration: every micro-architectural mechanism the paper
//! discusses is a parameter here, so POWER9, POWER10 and every intermediate
//! ablation point (Fig. 4) are just different values of one struct.
//!
//! The modeled core is the paper's "½ SMT8 core = SMT4 core equivalent"
//! building block (Fig. 3): up to four hardware threads, four execution
//! slices, and one MMA unit. "SMT8" results in the paper correspond to two
//! of these halves; the socket model in `p10-core` performs that scaling.

use serde::{Deserialize, Serialize};

/// SMT fetch policy: how fetch slots are shared among threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FetchPolicy {
    /// Rotate priority among threads each cycle.
    RoundRobin,
    /// Prioritize the thread with the fewest in-flight ops (classic
    /// ICOUNT — starves stalled threads, feeds fast ones).
    ICount,
}

/// How the core model finds work each cycle. Both variants produce
/// bit-identical [`crate::stats::SimResult`]s; they differ only in
/// simulation speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheduler {
    /// Reference implementation: scan the whole in-flight window every
    /// cycle and poll every candidate's dependencies (O(window)/cycle).
    Polled,
    /// Completion calendar + dependency wakeup lists + idle-cycle
    /// fast-forward: per-cycle work scales with what actually happens,
    /// and stretches where nothing can happen are skipped in closed form.
    EventDriven,
}

/// SMT mode: how many hardware threads share the core half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SmtMode {
    /// Single thread.
    St,
    /// Two threads.
    Smt2,
    /// Four threads.
    Smt4,
}

impl SmtMode {
    /// Number of hardware threads.
    #[must_use]
    pub const fn threads(self) -> usize {
        match self {
            SmtMode::St => 1,
            SmtMode::Smt2 => 2,
            SmtMode::Smt4 => 4,
        }
    }
}

/// A set-associative cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access (hit) latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `ways * line_bytes`).
    #[must_use]
    pub fn sets(&self) -> u64 {
        let denom = u64::from(self.ways) * u64::from(self.line_bytes);
        assert!(
            denom > 0 && self.size_bytes.is_multiple_of(denom),
            "bad cache geometry"
        );
        self.size_bytes / denom
    }
}

/// Branch-prediction resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchConfig {
    /// Direction-predictor table entries (gshare-style base predictor).
    pub direction_entries: u32,
    /// Entries in the auxiliary long-history (TAGE-like) direction
    /// predictor (0 = absent). POWER9 has a modest one; POWER10's new
    /// direction predictors are modeled as a much larger table.
    pub long_history_entries: u32,
    /// Local-history bits folded into the long-history component's index
    /// and tag. Longer history captures longer-period patterns; this is
    /// where POWER10's new direction predictors get their reach.
    pub long_history_bits: u32,
    /// Indirect target-predictor entries.
    pub indirect_entries: u32,
    /// Bits of (target-folded) path history used to index the indirect
    /// predictor. POWER9's count-cache-style predictor uses very little
    /// path context; POWER10's new indirect predictor uses much more.
    pub indirect_path_bits: u32,
    /// Return-stack depth.
    pub return_stack: u32,
    /// Branch misprediction redirect penalty in cycles.
    pub mispredict_penalty: u32,
}

/// MMA accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MmaConfig {
    /// FMA lanes in the processing-element grid (16 = 4×4).
    ///
    /// An `xvf64gerpp` consumes 8 lanes (two can issue per cycle); the
    /// single-precision and INT8 forms consume all 16 (one per cycle).
    pub grid_lanes: u32,
    /// Result latency of a `ger` op into the accumulator as seen by a
    /// *non-accumulator* consumer (e.g. `xxmfacc`).
    pub result_latency: u32,
    /// Effective accumulator-to-accumulator latency for back-to-back `ger`
    /// ops on the same accumulator (the paper: accumulators live in the
    /// functional unit, so this is short).
    pub acc_chain_latency: u32,
    /// Cycles to power the unit on from the gated state (no array init or
    /// scan-ring restore needed — paper §IV-A).
    pub wake_latency: u32,
    /// Idle cycles before firmware gates the unit off (firmware-selected).
    pub idle_gate_cycles: u32,
}

impl Default for MmaConfig {
    fn default() -> Self {
        MmaConfig {
            grid_lanes: 16,
            result_latency: 8,
            acc_chain_latency: 1,
            wake_latency: 64,
            idle_gate_cycles: 2_000,
        }
    }
}

/// Full core configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Human-readable configuration name (appears in results).
    pub name: String,
    /// SMT mode.
    pub smt: SmtMode,
    /// SMT fetch policy.
    pub fetch_policy: FetchPolicy,
    /// Simulation-scheduler implementation (not a modeled structure; both
    /// settings give bit-identical results).
    pub scheduler: Scheduler,

    // ---- front end ----
    /// Instructions fetched per cycle per thread opportunity.
    pub fetch_width: u32,
    /// Fetch-buffer entries per thread.
    pub fetch_buffer: u32,
    /// Instructions decoded per cycle (POWER9: 6, POWER10: 8 via pairing).
    pub decode_width: u32,
    /// Whether decode-time instruction fusion is enabled.
    pub fusion: bool,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// Branch-prediction resources.
    pub branch: BranchConfig,

    // ---- translation ----
    /// Whether L1 caches are effective-address tagged (POWER10): address
    /// translation happens only on L1 miss instead of on every access.
    pub ea_tagged_l1: bool,
    /// ERAT entries (first-level translation cache).
    pub erat_entries: u32,
    /// TLB entries.
    pub tlb_entries: u32,
    /// Page-walk latency on TLB miss, cycles.
    pub walk_latency: u32,

    // ---- backend ----
    /// Instruction-table (out-of-order window) entries.
    pub itable_entries: u32,
    /// Ops dispatched per cycle.
    pub dispatch_width: u32,
    /// Ops completed (retired) per cycle.
    pub completion_width: u32,
    /// Whether the register files are the POWER10 unified sliced design
    /// (no reservation stations). Affects power, and removes the
    /// issue-queue-entries bottleneck modeled for POWER9.
    pub unified_regfile: bool,
    /// Issue-queue entries (total; POWER9's reservation stations are
    /// smaller).
    pub issue_queue_entries: u32,
    /// Scheduler reach: how many waiting ops the issue logic can consider
    /// per cycle (oldest first). Real select networks do not span the
    /// whole window.
    pub issue_lookahead: u32,

    // ---- execution resources ----
    /// Simple-integer-capable execution slices.
    pub int_slices: u32,
    /// VSX 128-bit floating-point pipes.
    pub vsx_units: u32,
    /// VSX floating-point latency (cycles).
    pub vsx_fp_latency: u32,
    /// Integer multiply latency.
    pub mul_latency: u32,
    /// Integer divide latency (unpipelined).
    pub div_latency: u32,
    /// Branch execution slices (POWER10 merges branch execution into the
    /// general slices; POWER9 has a dedicated port — modeled as count).
    pub branch_slices: u32,
    /// MMA accelerator, if present.
    pub mma: Option<MmaConfig>,

    // ---- load/store ----
    /// Load issue ports.
    pub load_ports: u32,
    /// Store issue ports.
    pub store_ports: u32,
    /// Maximum bytes per load access (16 on POWER9, 32 on POWER10).
    pub load_bytes: u32,
    /// Load-queue entries.
    pub load_queue: u32,
    /// Store-queue entries.
    pub store_queue: u32,
    /// Load-miss-queue entries (outstanding L1D misses).
    pub load_miss_queue: u32,
    /// Whether stores to consecutive addresses merge in the store queue
    /// (POWER10 store gathering).
    pub store_merge: bool,
    /// Store-queue entries retired to the caches per cycle.
    pub store_drain_per_cycle: u32,

    // ---- memory hierarchy ----
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Local L3 region.
    pub l3: CacheConfig,
    /// Memory access latency (cycles).
    pub mem_latency: u32,
    /// Hardware prefetcher stream count (0 disables).
    pub prefetch_streams: u32,
    /// Treat L2 as infinite (APEX "core model" with infinite L2, Fig. 10).
    pub perfect_l2: bool,
}

impl CoreConfig {
    /// The POWER9-like baseline configuration (SMT4-half resources).
    #[must_use]
    pub fn power9() -> Self {
        CoreConfig {
            name: "POWER9".to_owned(),
            smt: SmtMode::St,
            fetch_policy: FetchPolicy::ICount,
            scheduler: Scheduler::EventDriven,
            fetch_width: 8,
            fetch_buffer: 32,
            decode_width: 6,
            fusion: false,
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 128,
                latency: 1,
            },
            branch: BranchConfig {
                direction_entries: 4096,
                long_history_entries: 1024,
                long_history_bits: 10,
                indirect_entries: 256,
                indirect_path_bits: 5,
                return_stack: 16,
                mispredict_penalty: 13,
            },
            ea_tagged_l1: false,
            erat_entries: 64,
            tlb_entries: 1024,
            walk_latency: 60,
            itable_entries: 256,
            dispatch_width: 6,
            completion_width: 6,
            unified_regfile: false,
            issue_queue_entries: 64,
            issue_lookahead: 48,
            int_slices: 4,
            vsx_units: 2,
            vsx_fp_latency: 7,
            mul_latency: 5,
            div_latency: 24,
            branch_slices: 1,
            mma: None,
            load_ports: 1,
            store_ports: 1,
            load_bytes: 16,
            load_queue: 64,
            store_queue: 40,
            load_miss_queue: 8,
            store_merge: false,
            store_drain_per_cycle: 1,
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 128,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 8,
                line_bytes: 128,
                latency: 14,
            },
            l3: CacheConfig {
                size_bytes: 5 * 1024 * 1024,
                ways: 16,
                line_bytes: 128,
                latency: 38,
            },
            mem_latency: 220,
            prefetch_streams: 8,
            perfect_l2: false,
        }
    }

    /// The POWER10-like configuration (SMT4-half resources; Fig. 3).
    #[must_use]
    pub fn power10() -> Self {
        let mut c = CoreConfig::power9();
        c.name = "POWER10".to_owned();
        for g in AblationGroup::ALL {
            c.apply(g);
        }
        c
    }

    /// POWER10 with the MMA powered off (Fig. 6's middle bar).
    #[must_use]
    pub fn power10_no_mma() -> Self {
        let mut c = CoreConfig::power10();
        c.name = "POWER10-noMMA".to_owned();
        c.mma = None;
        c
    }

    /// Applies one POWER9→POWER10 design-change group (Fig. 4).
    pub fn apply(&mut self, group: AblationGroup) {
        match group {
            AblationGroup::BranchOperation => {
                // New direction + indirect predictors, doubled selective
                // resources, branch execution merged into the slices.
                self.branch.direction_entries *= 2;
                self.branch.long_history_entries = 16 * 1024;
                self.branch.long_history_bits = 32;
                self.branch.indirect_entries *= 2;
                self.branch.indirect_path_bits = 9;
                self.branch.return_stack *= 2;
                self.branch_slices = 4;
            }
            AblationGroup::LatencyBandwidth => {
                // Reduced latency across the hierarchy; doubled load/store
                // bandwidth (2 loads + 2 stores, 32-byte accesses); 4× MMU.
                self.l1d.latency = 3;
                self.l2.latency = 12;
                self.l3.latency = 32;
                self.mem_latency = 200;
                self.load_ports = 2;
                self.store_ports = 2;
                self.load_bytes = 32;
                self.load_miss_queue = 12;
                self.tlb_entries *= 4;
                self.prefetch_streams = 16;
            }
            AblationGroup::L2Cache => {
                self.l2.size_bytes = 1024 * 1024; // 4× (half of 2 MB)
                self.l2.ways = 8;
                self.l3.size_bytes = 8 * 1024 * 1024;
            }
            AblationGroup::DecodeDoubleVsx => {
                // 33% wider decode via instruction pairing, fusion, doubled
                // VSX engines, larger EA-tagged L1I.
                self.decode_width = 8;
                self.dispatch_width = 8;
                self.completion_width = 8;
                self.fusion = true;
                self.vsx_units = 4;
                self.vsx_fp_latency = 6;
                self.l1i.size_bytes = 48 * 1024;
                self.l1i.ways = 6;
                self.ea_tagged_l1 = true;
                self.mma = Some(MmaConfig::default());
                self.unified_regfile = true;
                // Reservation-station removal: the unified sliced register
                // file supports more in-flight ops per issue structure.
                self.issue_queue_entries = 96;
            }
            AblationGroup::Queues => {
                self.itable_entries = 512;
                self.issue_queue_entries = 128;
                self.issue_lookahead = 96;
                self.load_queue = 128;
                self.store_queue = 80;
                self.store_merge = true;
                self.store_drain_per_cycle = 2;
                self.fetch_buffer = 64;
            }
        }
    }

    /// Per-thread load-queue share for the current SMT mode (the paper's
    /// Fig. 3 lists 128 SMT / 64 ST — ST mode does not get the full
    /// SMT-combined queue).
    #[must_use]
    pub fn load_queue_per_thread(&self) -> u32 {
        match self.smt {
            SmtMode::St => self.load_queue / 2,
            SmtMode::Smt2 => self.load_queue / 2,
            SmtMode::Smt4 => self.load_queue / 4,
        }
    }

    /// Per-thread store-queue share for the current SMT mode.
    #[must_use]
    pub fn store_queue_per_thread(&self) -> u32 {
        match self.smt {
            SmtMode::St => self.store_queue / 2,
            SmtMode::Smt2 => self.store_queue / 2,
            SmtMode::Smt4 => self.store_queue / 4,
        }
    }

    /// Theoretical peak double-precision flops per cycle for VSX code.
    #[must_use]
    pub fn vsx_peak_dp_flops(&self) -> u32 {
        self.vsx_units * 4 // each 128-bit FMA pipe: 2 lanes × (mul+add)
    }

    /// Theoretical peak double-precision flops per cycle for MMA code
    /// (0 when the MMA is absent or gated off).
    #[must_use]
    pub fn mma_peak_dp_flops(&self) -> u32 {
        self.mma.map_or(0, |m| m.grid_lanes * 2)
    }
}

/// The POWER9→POWER10 design-change groups evaluated in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AblationGroup {
    /// Improved branch prediction and branch execution.
    BranchOperation,
    /// Reduced cache/TLB latencies and doubled load/store bandwidth.
    LatencyBandwidth,
    /// 4× larger private L2 (and larger local L3 region).
    L2Cache,
    /// Wider decode with pairing + fusion, doubled VSX, EA-tagged L1,
    /// unified register file, MMA.
    DecodeDoubleVsx,
    /// Deeper instruction window and larger queues.
    Queues,
}

impl AblationGroup {
    /// All groups, in the order Fig. 4 presents them.
    pub const ALL: [AblationGroup; 5] = [
        AblationGroup::BranchOperation,
        AblationGroup::LatencyBandwidth,
        AblationGroup::L2Cache,
        AblationGroup::DecodeDoubleVsx,
        AblationGroup::Queues,
    ];

    /// The label used in Fig. 4.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AblationGroup::BranchOperation => "Branch operation",
            AblationGroup::LatencyBandwidth => "Latency+BW",
            AblationGroup::L2Cache => "L2 cache",
            AblationGroup::DecodeDoubleVsx => "Decode+Double VSX",
            AblationGroup::Queues => "Queues",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power10_is_power9_plus_all_groups() {
        let p10 = CoreConfig::power10();
        assert_eq!(p10.decode_width, 8);
        assert!(p10.fusion);
        assert!(p10.ea_tagged_l1);
        assert!(p10.unified_regfile);
        assert!(p10.mma.is_some());
        assert_eq!(p10.vsx_units, 4);
        assert_eq!(p10.itable_entries, 512);
        assert_eq!(p10.l2.size_bytes, 1024 * 1024);
        assert_eq!(p10.load_ports, 2);
        assert_eq!(p10.tlb_entries, 4096);
    }

    #[test]
    fn peak_flops_match_paper() {
        // Paper §II-C: 8 (P9 vector), 16 (P10 vector), 32 (P10 MMA)
        // DP flops/cycle for the SMT4-equivalent half core.
        assert_eq!(CoreConfig::power9().vsx_peak_dp_flops(), 8);
        assert_eq!(CoreConfig::power10().vsx_peak_dp_flops(), 16);
        assert_eq!(CoreConfig::power10().mma_peak_dp_flops(), 32);
        assert_eq!(CoreConfig::power9().mma_peak_dp_flops(), 0);
        assert_eq!(CoreConfig::power10_no_mma().mma_peak_dp_flops(), 0);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 128,
            latency: 4,
        };
        assert_eq!(c.sets(), 32);
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn bad_cache_geometry_panics() {
        let c = CacheConfig {
            size_bytes: 1000,
            ways: 3,
            line_bytes: 128,
            latency: 1,
        };
        let _ = c.sets();
    }

    #[test]
    fn smt_thread_counts() {
        assert_eq!(SmtMode::St.threads(), 1);
        assert_eq!(SmtMode::Smt2.threads(), 2);
        assert_eq!(SmtMode::Smt4.threads(), 4);
    }

    #[test]
    fn queue_partitioning_by_smt() {
        let mut c = CoreConfig::power10();
        c.smt = SmtMode::St;
        assert_eq!(c.load_queue_per_thread(), 64); // Fig. 3: 64 ST
        c.smt = SmtMode::Smt4;
        assert_eq!(c.load_queue_per_thread(), 32);
        c.smt = SmtMode::St;
        assert_eq!(c.store_queue_per_thread(), 40); // Fig. 3: 40 ST
    }

    #[test]
    fn ablation_groups_are_independent() {
        // Applying a single group changes the config; applying all gives
        // exactly POWER10.
        for g in AblationGroup::ALL {
            let mut c = CoreConfig::power9();
            c.apply(g);
            assert_ne!(c, CoreConfig::power9(), "group {g:?} must change config");
        }
        let mut c = CoreConfig::power9();
        for g in AblationGroup::ALL {
            c.apply(g);
        }
        c.name = "POWER10".to_owned();
        assert_eq!(c, CoreConfig::power10());
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = AblationGroup::ALL.iter().map(|g| g.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
