//! Sampled simulation: SimPoint-weighted execution with error bounds
//! and checkpointed warm-state reuse.
//!
//! Exact simulation replays every dynamic op through the cycle model. For
//! long traces most of that work is redundant — program phases repeat —
//! so this module partitions each thread's [`TraceView`] into fixed-size
//! intervals (free range arithmetic on the shared trace arena), clusters
//! the intervals' basic-block vectors with deterministic k-means
//! ([`p10_trace::simpoint`]), simulates only one representative interval
//! per cluster, and reconstitutes whole-trace activity, cycle
//! attribution, and power as cluster-weight sums.
//!
//! Four mechanisms keep the representative measurements honest:
//!
//! * **Functional warming** ([`p10_uarch::FunctionalWarmer`]): every op
//!   up to a measured boundary is replayed timing-free through the
//!   caches, TLBs, and branch predictor, and each detailed run starts
//!   from the [`WarmState`] snapshot at its interval boundary
//!   ([`Core::with_state`]); cache state warms over far more ops than
//!   any affordable detailed warmup prefix could cover.
//! * A short **detailed warmup prefix** per representative, delta'd out
//!   checkpoint-free (pipeline-local transients the functional warmer
//!   cannot see).
//! * **Cold-prefix detailing**: the leading intervals are measured
//!   outright until consecutive CPIs agree within [`COLD_TOL_REL`] —
//!   the cold-start transient executes steady-state code and so has no
//!   BBV signature.
//! * **Miss-augmented BBVs**: each interval's functionally-warmed
//!   L1D/L2/L3 per-op miss rates (× [`MISS_FEATURE_WEIGHT`]) extend its
//!   BBV, so transient and steady intervals of the same code cluster
//!   apart.
//!
//! Warming itself is the dominant cost of a sampled *sweep*, so it is
//! checkpointed and shared through a [`CkptStore`]: warmer snapshots at
//! measured interval boundaries are serialized
//! ([`FunctionalWarmer::to_bytes`]) into content-keyed blobs whose key is
//! the *warm-relevant* config projection ([`crate::runner::warm_projection`])
//! plus a trace signature — so a sweep over latency/queue/width variants
//! warms once per warm-equivalence class, not once per config, and a
//! repeated run (or the next round of bound mode) jumps straight to each
//! boundary instead of replaying the prefix. A corrupt or truncated
//! checkpoint decodes to `None` and falls back to re-warming.
//!
//! Every sampled estimate carries a **statistical error bound**: the
//! spread of each cluster (BBV distance of members to their
//! representative, zero for members measured directly) is converted to
//! a CPI/power deviation through the observed sensitivity between
//! representatives, combined across clusters as independent terms,
//! floored by a model-error allowance that grows with the skipped share
//! ([`bound_floor_rel`]), plus a boundary-residue term
//! [`BOUNDARY_RESIDUE_CYCLES`]` / (interval_ops · CPI)` for the
//! per-measurement granularity error. Differential tests assert the
//! measured error against exact simulation stays inside the printed
//! bound. [`SamplingMode::Bound`] inverts the relationship: it grows the
//! cluster budget round by round — reusing prior rounds' checkpoints and
//! cached measurements — until the claimed bound meets a target.
//!
//! Exact mode remains the byte-identical reference: the engine only
//! routes through this module when a non-exact mode is active, so
//! `figures all` output without `--sampling` is unchanged.

use crate::runner;
use crate::scenario::{self, ScenarioResult};
use p10_isa::{DynOp, TraceView};
use p10_power::PowerModel;
use p10_trace::simpoint::{simpoints_weighted, WeightedSimpoints};
use p10_uarch::{
    Activity, ActivityTrace, Core, CoreConfig, CycleAttribution, FunctionalWarmer, SimResult,
    WarmState,
};
use p10_workloads::{Benchmark, Workload};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// BBV code-region buckets (matches the tracestudy granularity).
const BBV_BUCKETS: usize = 64;
/// Clustering seed: fixed so sampled points are content-addressable.
const KMEANS_SEED: u64 = 11;
/// Two-sided ~95% normal quantile for the cluster-spread bound term.
const Z_95: f64 = 1.96;
/// Minimum relative-error allowance added to every bound even at full
/// coverage: covers warmup residue and reconstitution rounding.
const BOUND_FLOOR_MIN_REL: f64 = 0.01;
/// Extra floor per unit of *skipped* op share: sensitivity-model error
/// the cluster-spread term cannot see only matters for intervals that
/// were not measured. Calibrated against the differential grid in
/// `tests/sampling_diff.rs`.
const BOUND_FLOOR_SKIP_REL: f64 = 0.07;
/// Weight on the functional miss-rate features appended to each BBV:
/// chosen so a cold-vs-warm miss-rate gap (tenths of a miss per op)
/// separates intervals about as strongly as a real code-phase change.
const MISS_FEATURE_WEIGHT: f64 = 4.0;
/// Cold-start escape: the leading intervals are simulated in detail until
/// two consecutive measurements agree within this relative CPI change —
/// the cold-start transient (caches filling for the first time) has no
/// BBV signature, so clustering alone cannot see it.
const COLD_TOL_REL: f64 = 0.25;
/// Residual cycles a per-interval measurement can be off by regardless of
/// interval content: the gap between functionally-warmed and true
/// detailed state at the interval boundary (prefetch timing, in-flight
/// misses). Measured empirically against exact prefix differences
/// (~225–270 cycles per boundary on the low-CPI study workloads at
/// interval 2500, where full-coverage runs expose the residue directly);
/// enters the bound as `RESIDUE / (interval_ops · CPI)`, so short
/// low-CPI intervals honestly report large uncertainty while long
/// intervals (where the residue amortizes) stay tight.
const BOUNDARY_RESIDUE_CYCLES: f64 = 300.0;
/// Checkpoint blobs (~1.5 MB each) one warm class may hold in a
/// [`CkptStore`]'s memory tier before that class's blobs are dropped.
/// Other classes keep theirs, so what a class finds never depends on how
/// concurrently running classes interleave.
const CKPT_MEMO_CAP: usize = 64;

/// Detailed-interval count [`BOUND_FLOOR_SKIP_REL`] was calibrated at:
/// the differential grid in `tests/sampling_diff.rs` measures ~4
/// intervals per run, so at 4 the scale factor is exactly 1.
const BOUND_FLOOR_REF_INTERVALS: f64 = 4.0;

/// The model-error floor on a sampled bound: a fixed minimum plus a term
/// proportional to the share of ops that were never measured in detail.
/// The skip term shrinks with the square root of the number of intervals
/// that *were* measured — each detailed interval is an independent probe
/// of the phase behavior the skipped ops are extrapolated from, so a
/// 64-interval sweep that measured 16 of them extrapolates from far more
/// evidence than the 4-interval grid the allowance was calibrated on.
/// Full coverage is honestly tight; heavy extrapolation from a single
/// anchor is honestly loose (the scale is capped at 2x).
fn bound_floor_rel(skipped_share: f64, measured_intervals: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let evidence = (measured_intervals.max(1)) as f64;
    let scale = (BOUND_FLOOR_REF_INTERVALS / evidence).sqrt().min(2.0);
    BOUND_FLOOR_MIN_REL + BOUND_FLOOR_SKIP_REL * skipped_share.clamp(0.0, 1.0) * scale
}

/// How the engine should execute simulation points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingMode {
    /// Simulate every op — the byte-identical reference path.
    Exact,
    /// Simulate one representative interval per BBV cluster and
    /// reconstitute whole-trace results as cluster-weight sums.
    SimPoints {
        /// Ops per interval (per thread).
        interval_ops: usize,
        /// Maximum clusters (k-means k).
        k: usize,
        /// Architectural warmup ops simulated before each representative
        /// and delta'd out of its counters (0 = cold).
        warmup_ops: usize,
    },
    /// Target-bound auto-tuning: grow the cluster budget round by round
    /// (reusing checkpoints and cached interval measurements between
    /// rounds) until the reported error bound meets the target, every
    /// interval is measured, or the budget cannot grow further.
    Bound {
        /// Target relative error bound in milli-percent (`5%` = 5000),
        /// kept integral so the mode stays `Copy + Eq` and
        /// round-trippable through [`SamplingMode::describe`].
        target_mpct: u32,
    },
}

impl SamplingMode {
    /// Parses a `--sampling` argument: `exact` |
    /// `simpoints:INTERVAL:K[:WARMUP]` | `bound:PCT`. Warmup defaults to
    /// `INTERVAL / 8`.
    /// `PCT` is a relative error target in percent (`0 < PCT <= 100`,
    /// fractions and a trailing `%` accepted).
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the accepted grammar when the text
    /// does not parse or a field is out of range.
    pub fn parse(text: &str) -> Result<SamplingMode, String> {
        let err = || {
            format!(
                "bad sampling mode '{text}': expected exact | \
                 simpoints:INTERVAL:K[:WARMUP] | bound:PCT (0 < PCT <= 100)"
            )
        };
        let mut parts = text.split(':');
        let head = parts.next().ok_or_else(err)?;
        let fields: Vec<&str> = parts.collect();
        let num = |s: &str| s.parse::<usize>().ok().filter(|&v| v > 0);
        match (head, fields.len()) {
            ("exact", 0) => Ok(SamplingMode::Exact),
            ("simpoints", 2 | 3) => {
                let interval_ops = num(fields[0]).ok_or_else(err)?;
                let k = num(fields[1]).ok_or_else(err)?;
                let warmup_ops = match fields.get(2) {
                    // Warmup 0 is a legitimate request (cold intervals).
                    Some(s) => s.parse::<usize>().map_err(|_| err())?,
                    None => interval_ops / 8,
                };
                Ok(SamplingMode::SimPoints {
                    interval_ops,
                    k,
                    warmup_ops,
                })
            }
            ("bound", 1) => {
                let raw = fields[0].strip_suffix('%').unwrap_or(fields[0]);
                let pct: f64 = raw.parse().map_err(|_| err())?;
                if !pct.is_finite() || pct <= 0.0 || pct > 100.0 {
                    return Err(err());
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let target_mpct = (pct * 1000.0).round() as u32;
                if target_mpct == 0 {
                    return Err(err());
                }
                Ok(SamplingMode::Bound { target_mpct })
            }
            _ => Err(err()),
        }
    }

    /// Canonical text form; round-trips through [`SamplingMode::parse`]
    /// and keys the result cache (a different mode is a different point).
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            SamplingMode::Exact => "exact".to_owned(),
            SamplingMode::SimPoints {
                interval_ops,
                k,
                warmup_ops,
            } => format!("simpoints:{interval_ops}:{k}:{warmup_ops}"),
            SamplingMode::Bound { target_mpct } => {
                let mut pct = format!("{:.3}", f64::from(target_mpct) / 1000.0);
                while pct.ends_with('0') {
                    pct.pop();
                }
                if pct.ends_with('.') {
                    pct.pop();
                }
                format!("bound:{pct}")
            }
        }
    }

    /// Whether this mode is the exact reference path.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        *self == SamplingMode::Exact
    }
}

static MODE: OnceLock<SamplingMode> = OnceLock::new();

/// Installs the process-wide sampling mode (first caller wins; the
/// `figures` CLI calls this once before any experiment runs). Returns
/// `false` if a mode was already installed.
pub fn set_mode(mode: SamplingMode) -> bool {
    MODE.set(mode).is_ok()
}

/// The process-wide mode if a *non-exact* one is installed. The engine
/// consults this at its single dispatch point; tests and the `sampling`
/// experiment pass modes explicitly instead, so the global stays a pure
/// CLI concern.
#[must_use]
pub fn active() -> Option<SamplingMode> {
    MODE.get().copied().filter(|m| !m.is_exact())
}

/// What sampled execution measured and how much it claims to be worth.
///
/// All fields are plain numbers (no `Option`) so the struct serializes
/// stably into the on-disk result cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingStats {
    /// The mode text ([`SamplingMode::describe`]).
    pub mode: String,
    /// Intervals the trace was partitioned into.
    pub intervals: u64,
    /// Clusters actually formed (≤ k).
    pub clusters: u64,
    /// Dynamic ops across all threads.
    pub total_ops: u64,
    /// Ops whose timing was measured directly (representative intervals).
    pub simulated_ops: u64,
    /// Ops covered only by reconstitution (`total_ops - simulated_ops`).
    pub skipped_ops: u64,
    /// Extra warmup ops fed to the simulator (delta'd out of results).
    pub warmup_ops: u64,
    /// Estimated whole-trace cycles per instruction.
    pub cpi_est: f64,
    /// Estimated whole-trace core power (W, per-cycle intensive).
    pub power_est: f64,
    /// Relative error bound claimed for `cpi_est` (fraction).
    pub cpi_bound_rel: f64,
    /// Relative error bound claimed for `power_est` (fraction).
    pub power_bound_rel: f64,
}

/// A scenario result produced by sampled execution, with its statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampledScenario {
    /// The reconstituted whole-trace result (same shape as exact).
    pub result: ScenarioResult,
    /// What was simulated, skipped, and claimed.
    pub stats: SamplingStats,
}

/// Records the `[obs]` counters/gauge for one sampled point. The engine
/// calls this on cache hits too, so a warm run's summary still reports
/// what the cached points covered.
pub fn record_obs(stats: &SamplingStats) {
    p10_obs::counter("sim.sample.intervals", stats.intervals);
    p10_obs::counter("sim.sample.clusters", stats.clusters);
    p10_obs::counter("sim.sample.simulated_ops", stats.simulated_ops);
    p10_obs::counter("sim.sample.skipped_ops", stats.skipped_ops);
    if stats.total_ops > 0 {
        #[allow(clippy::cast_precision_loss)]
        p10_obs::gauge(
            "sim.sample.coverage",
            stats.simulated_ops as f64 / stats.total_ops as f64,
        );
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// Content-keyed store for functional-warming checkpoints and per-class
/// warm feature vectors.
///
/// Blobs are keyed by *warm-equivalence class* — the FNV-64 of
/// [`crate::runner::warm_projection`] of the config plus a trace
/// signature and the interval size — and by interval boundary index, so
/// every config in a sweep that shares warm-relevant geometry shares one
/// set of checkpoints. A store has one tier: a disk directory when one is
/// configured (reuse persists across runs, and blobs never pile up in
/// memory), else an in-memory memo (reuse within the process). The memo
/// also keeps anything whose disk write failed.
///
/// All traffic is counted per store (`ckpt_hits`/`ckpt_misses`/
/// `ckpt_bytes`/`warm_passes`) *and* mirrored into the process-wide
/// `[obs]` counters `sampling.ckpt_*` / `sampling.warm_passes`; tests
/// construct private stores so the counts are exact even with other
/// tests running in parallel.
pub struct CkptStore {
    dir: Option<PathBuf>,
    /// Memory tier: blobs by warm class.
    blobs: Mutex<HashMap<u64, ClassBlobs>>,
    feats: Mutex<HashMap<u64, Arc<Vec<f64>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
    warm_passes: AtomicU64,
}

/// One warm class's in-memory checkpoint blobs, by interval boundary.
type ClassBlobs = HashMap<usize, Arc<Vec<u8>>>;

static PROCESS_STORE: OnceLock<CkptStore> = OnceLock::new();

impl CkptStore {
    /// A store with an optional disk tier (`None` = in-memory only).
    #[must_use]
    pub fn new(dir: Option<PathBuf>) -> Self {
        CkptStore {
            dir,
            blobs: Mutex::new(HashMap::new()),
            feats: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            warm_passes: AtomicU64::new(0),
        }
    }

    /// The process-wide store every implicit sampling entry point uses.
    ///
    /// Its disk tier is `$P10SIM_CKPT_DIR` when set and non-empty,
    /// otherwise `<engine disk cache>/warm` when the engine has a disk
    /// cache, otherwise memory only.
    pub fn process_default() -> &'static CkptStore {
        PROCESS_STORE.get_or_init(|| {
            let dir = std::env::var("P10SIM_CKPT_DIR")
                .ok()
                .filter(|s| !s.is_empty())
                .map(PathBuf::from)
                .or_else(|| runner::engine().config().disk_cache.map(|d| d.join("warm")));
            CkptStore::new(dir)
        })
    }

    /// Checkpoints served from this store (memo or disk).
    #[must_use]
    pub fn ckpt_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Warm-state requests that found no usable checkpoint.
    #[must_use]
    pub fn ckpt_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total checkpoint bytes serialized through this store.
    #[must_use]
    pub fn ckpt_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Whole-trace functional warming passes actually executed (the
    /// per-class feature pre-pass); a sweep over N configs in C
    /// warm-equivalence classes performs exactly C of these.
    #[must_use]
    pub fn warm_passes(&self) -> u64 {
        self.warm_passes.load(Ordering::Relaxed)
    }

    fn blob_name(class: u64, idx: usize) -> String {
        format!("ckpt-{class:016x}-{idx}.bin")
    }

    /// Writes `bytes` to the disk tier (tmp + rename); `false` when the
    /// store has no disk tier or the write failed.
    fn disk_put(&self, name: &str, bytes: &[u8]) -> bool {
        let Some(dir) = &self.dir else {
            return false;
        };
        let _ = std::fs::create_dir_all(dir);
        let tmp = runner::temp_path(dir, name);
        if std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, dir.join(name)).is_ok() {
            return true;
        }
        let _ = std::fs::remove_file(&tmp);
        false
    }

    /// Loads the warmer checkpointed at interval boundary `idx` for the
    /// given warm class, if one exists and decodes under `cfg`.
    fn load(&self, cfg: &CoreConfig, class: u64, idx: usize) -> Option<FunctionalWarmer> {
        let memo = self
            .blobs
            .lock()
            .expect("ckpt memo poisoned")
            .get(&class)
            .and_then(|m| m.get(&idx))
            .cloned();
        let blob = match memo {
            Some(b) => b,
            None => {
                Arc::new(std::fs::read(self.dir.as_ref()?.join(Self::blob_name(class, idx))).ok()?)
            }
        };
        let w = FunctionalWarmer::from_bytes(cfg, &blob)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        p10_obs::counter("sampling.ckpt_hits", 1);
        Some(w)
    }

    /// Serializes and stores a checkpoint at interval boundary `idx`.
    /// Disk writes are best-effort: the store is a cache, never a source
    /// of truth, so a failed write falls back to the memory tier.
    fn save(&self, class: u64, idx: usize, w: &FunctionalWarmer) {
        let bytes = w.to_bytes();
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        p10_obs::counter("sampling.ckpt_bytes", bytes.len() as u64);
        if self.disk_put(&Self::blob_name(class, idx), &bytes) {
            return;
        }
        let mut memo = self.blobs.lock().expect("ckpt memo poisoned");
        let class_blobs = memo.entry(class).or_default();
        if class_blobs.len() >= CKPT_MEMO_CAP {
            // Blobs are large; drop this class's wholesale rather than
            // track LRU.
            class_blobs.clear();
        }
        class_blobs.insert(idx, Arc::new(bytes));
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        p10_obs::counter("sampling.ckpt_misses", 1);
    }

    /// The per-interval warm miss-rate features for one warm class,
    /// computing (and persisting) them on first use. `expected_len`
    /// guards against a stale vector from a different interval count.
    fn warm_features_cached(
        &self,
        class: u64,
        expected_len: usize,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        let fname = format!("feat-{class:016x}.json");
        let memo = self
            .feats
            .lock()
            .expect("feat memo poisoned")
            .get(&class)
            .cloned();
        let stored = memo.or_else(|| {
            let text = std::fs::read_to_string(self.dir.as_ref()?.join(&fname)).ok()?;
            serde_json::from_str::<Vec<f64>>(&text).ok().map(Arc::new)
        });
        if let Some(f) = stored.filter(|f| f.len() == expected_len) {
            return f;
        }
        let v = compute();
        debug_assert_eq!(v.len(), expected_len, "warm feature pass length");
        self.warm_passes.fetch_add(1, Ordering::Relaxed);
        p10_obs::counter("sampling.warm_passes", 1);
        let a = Arc::new(v);
        let on_disk = serde_json::to_string(&*a).is_ok_and(|t| self.disk_put(&fname, t.as_bytes()));
        if !on_disk {
            // One small vector per class: never evicted.
            self.feats
                .lock()
                .expect("feat memo poisoned")
                .insert(class, Arc::clone(&a));
        }
        a
    }
}

/// Appends one op's warm-relevant identity (pc, memory address, branch
/// target/direction) to a signature buffer.
fn sig_op(buf: &mut Vec<u8>, op: &DynOp) {
    buf.extend_from_slice(&op.pc.to_le_bytes());
    match op.mem() {
        Some(m) => {
            buf.extend_from_slice(&m.addr.to_le_bytes());
            buf.push(m.size);
        }
        None => {
            buf.extend_from_slice(&u64::MAX.to_le_bytes());
            buf.push(0);
        }
    }
    match op.branch() {
        Some(b) => {
            buf.extend_from_slice(&b.target.to_le_bytes());
            buf.push(u8::from(b.taken));
        }
        None => {
            buf.extend_from_slice(&u64::MAX.to_le_bytes());
            buf.push(0xff);
        }
    }
}

/// A cheap content signature of the per-thread views: exact lengths plus
/// a strided op sample (≤ ~2k ops per thread, always including the
/// last). Two traces that collide here *and* in every exact length are
/// the same trace for all practical purposes.
fn views_sig(name: &str, views: &[TraceView]) -> u64 {
    let mut buf = Vec::new();
    buf.extend_from_slice(name.as_bytes());
    buf.push(0);
    buf.extend_from_slice(&(views.len() as u64).to_le_bytes());
    for v in views {
        let ops = v.ops();
        buf.extend_from_slice(&(ops.len() as u64).to_le_bytes());
        let stride = (ops.len() / 2048).max(1);
        for op in ops.iter().step_by(stride) {
            sig_op(&mut buf, op);
        }
        if let Some(last) = ops.last() {
            sig_op(&mut buf, last);
        }
    }
    runner::fnv1a64(&buf)
}

/// The warm-equivalence-class key: configs whose
/// [`crate::runner::warm_projection`] matches share checkpoints for the
/// same trace and interval size. It starts with the code
/// [`runner::fingerprint`], so checkpoints written by other warming code
/// are never loaded (`P10WARM1` itself only checks the geometry).
fn warm_class_key(cfg: &CoreConfig, name: &str, views: &[TraceView], interval_ops: usize) -> u64 {
    let proj = serde_json::to_string(&runner::warm_projection(cfg)).expect("config serializes");
    let vsig = views_sig(name, views);
    let fp = runner::fingerprint();
    runner::fnv1a64(format!("{fp}|warm|{proj}|{vsig:016x}|{interval_ops}").as_bytes())
}

/// One interval of the partitioned run: per-thread zero-copy slices plus
/// the combined BBV.
struct Interval {
    /// Per-thread `[i*I, (i+1)*I)` windows (threads clipped individually;
    /// some may be empty near a short thread's end).
    slices: Vec<TraceView>,
    /// Ops across all thread slices.
    ops: u64,
    /// Normalized basic-block vector over all thread slices, augmented
    /// with weighted functional-warming miss rates (see [`partition`]).
    bbv: Vec<f64>,
}

/// Partitions per-thread views into op-index-aligned intervals and
/// computes each interval's combined BBV.
///
/// The BBV is augmented with three microarchitectural features: the
/// interval's per-op L1D/L2/L3 miss rates measured by a functional
/// warming pre-pass over the whole trace. A cold-start transient (caches
/// filling for the first time) executes the *same code* as steady state
/// — identical on a pure code-signature BBV — but misses at a very
/// different rate, so these features let k-means give the transient its
/// own cluster, a representative that is measured equally cold, and a
/// visible contribution to the error bound.
///
/// The pre-pass itself is cached in `store` per warm-equivalence class:
/// a sweep over N configs in C classes replays the whole trace C times,
/// not N times.
fn partition(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    interval_ops: usize,
    store: &CkptStore,
) -> Vec<Interval> {
    let max_len = views.iter().map(TraceView::len).max().unwrap_or(0);
    let n = max_len.div_ceil(interval_ops);
    let mut ivs: Vec<Interval> = (0..n)
        .map(|i| {
            let slices: Vec<TraceView> =
                views.iter().map(|v| v.interval(interval_ops, i)).collect();
            let ops: u64 = slices.iter().map(|s| s.len() as u64).sum();
            let mut bbv = vec![0.0f64; BBV_BUCKETS];
            for s in &slices {
                for op in s.ops() {
                    bbv[((op.pc >> 4) as usize) % BBV_BUCKETS] += 1.0;
                }
            }
            let norm: f64 = bbv.iter().sum();
            if norm > 0.0 {
                for x in &mut bbv {
                    *x /= norm;
                }
            }
            // Every window below `n` holds ops from the longest thread,
            // so interval index == window index (no filtering needed).
            Interval { slices, ops, bbv }
        })
        .collect();
    let class = warm_class_key(cfg, name, views, interval_ops);
    let feats = store.warm_features_cached(class, 3 * n, || {
        let mut warmer = FunctionalWarmer::new(cfg);
        let mut prev = Activity::default();
        let mut out = Vec::with_capacity(3 * n);
        for iv in &ivs {
            warmer.observe(&iv.slices);
            let cur = *warmer.activity();
            let d = cur.delta(&prev);
            prev = cur;
            #[allow(clippy::cast_precision_loss)]
            let per_op = |misses: u64| misses as f64 / iv.ops.max(1) as f64;
            out.push(per_op(d.l1d_misses));
            out.push(per_op(d.l2_misses));
            out.push(per_op(d.l3_misses));
        }
        out
    });
    for (iv, chunk) in ivs.iter_mut().zip(feats.chunks(3)) {
        iv.bbv.extend(chunk.iter().map(|m| m * MISS_FEATURE_WEIGHT));
    }
    ivs
}

fn bbv_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// One simulated representative interval with warmup delta'd out.
/// Serializable so interval measurements are content-addressable in the
/// engine's result cache (bound mode re-runs reuse them across rounds).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RepMeasurement {
    /// Interval index in the partition.
    interval: usize,
    /// Counters attributable to the representative interval alone.
    activity: Activity,
    /// Cycle attribution of the same window (sums to `activity.cycles`).
    attribution: CycleAttribution,
    /// CPI of the representative.
    cpi: f64,
    /// Core power (W) of the representative window.
    power: f64,
    /// Warmup ops that were simulated and subtracted back out.
    warmup_ops: u64,
}

/// Simulates interval `idx` of the partition on `cfg`, starting from the
/// functionally-warmed `state` (caches, TLBs, predictor as of the
/// interval's position in the trace), with `warmup_ops` of detailed
/// pipeline warmup per thread, checkpoint-free: the window
/// `[start - warmup, end)` is simulated once, the warmup prefix
/// `[start - warmup, start)` once more, and the prefix's counters are
/// subtracted (saturating). The detailed prefix fills short-lived state
/// (window occupancy, miss queues, store drain) that functional warming
/// cannot; its ops are already inside `state`, and replaying them is
/// harmless because cache/predictor training is idempotent for a repeat.
fn simulate_interval(
    cfg: &CoreConfig,
    views: &[TraceView],
    interval_ops: usize,
    idx: usize,
    warmup_ops: usize,
    state: &WarmState,
) -> RepMeasurement {
    let _sp = p10_obs::event_span(&format!("interval:{idx}"));
    let run = |slices: Vec<TraceView>| -> SimResult {
        let ops: u64 = slices.iter().map(|s| s.len() as u64).sum();
        Core::with_state(cfg.clone(), state.clone()).run(slices, ops * 8 + 100_000)
    };
    let mut full = Vec::new();
    let mut warm = Vec::new();
    for v in views {
        let start = v.len().min(idx.saturating_mul(interval_ops));
        let end = v.len().min(start + interval_ops);
        let wstart = start.saturating_sub(warmup_ops);
        full.push(v.slice(wstart..end));
        warm.push(v.slice(wstart..start));
    }
    let warmup: u64 = warm.iter().map(|s| s.len() as u64).sum();
    let full = run(full.into_iter().filter(|s| !s.is_empty()).collect());
    let (activity, attribution) = if warmup == 0 {
        (full.activity, full.attribution)
    } else {
        let pre = run(warm.into_iter().filter(|s| !s.is_empty()).collect());
        let activity = full.activity.delta(&pre.activity);
        (
            activity,
            attribution_delta(&full.attribution, &pre.attribution, activity.cycles),
        )
    };
    let power = PowerModel::for_config(cfg).evaluate(&activity).core_total();
    RepMeasurement {
        interval: idx,
        cpi: activity.cpi(),
        power,
        activity,
        attribution,
        warmup_ops: warmup,
    }
}

/// Per-bucket saturating difference of two attributions, re-balanced so
/// the result still partitions exactly `cycles` (the invariant
/// `CycleAttribution::total() == Activity::cycles` that `cycleprof`
/// asserts). Rounding slack lands in `idle`; if the non-idle buckets
/// overshoot, the overshoot is shaved off the largest buckets.
fn attribution_delta(
    full: &CycleAttribution,
    pre: &CycleAttribution,
    cycles: u64,
) -> CycleAttribution {
    rebalance(
        CycleAttribution {
            active: full.active.saturating_sub(pre.active),
            mma_gated: full.mma_gated.saturating_sub(pre.mma_gated),
            issue_limited: full.issue_limited.saturating_sub(pre.issue_limited),
            memory_bound: full.memory_bound.saturating_sub(pre.memory_bound),
            dispatch_stalled: full.dispatch_stalled.saturating_sub(pre.dispatch_stalled),
            fetch_stalled: full.fetch_stalled.saturating_sub(pre.fetch_stalled),
            idle: 0,
        },
        cycles,
    )
}

/// Sets `idle` so the buckets sum to exactly `cycles`; shaves any
/// non-idle overshoot off the largest buckets first.
fn rebalance(mut a: CycleAttribution, cycles: u64) -> CycleAttribution {
    a.idle = 0;
    let mut excess = a.total().saturating_sub(cycles);
    while excess > 0 {
        let buckets = [
            &mut a.active,
            &mut a.mma_gated,
            &mut a.issue_limited,
            &mut a.memory_bound,
            &mut a.dispatch_stalled,
            &mut a.fetch_stalled,
        ];
        let largest = buckets
            .into_iter()
            .max_by_key(|b| **b)
            .expect("six buckets");
        let cut = (*largest).min(excess);
        if cut == 0 {
            break;
        }
        *largest -= cut;
        excess -= cut;
    }
    a.idle = cycles.saturating_sub(a.total());
    a
}

/// The cluster-spread error bound for one metric (CPI or power).
///
/// Sensitivity `λ` is the steepest observed metric-per-BBV-distance slope
/// between representative pairs (regularized so identical BBVs with
/// different metrics don't explode it); each cluster contributes a
/// deviation `σ_c = λ · rms(BBV distance of members to representative)`,
/// weighted by the cluster's share and combined as independent terms at
/// ~95% confidence. `floor` ([`bound_floor_rel`]) covers the error modes
/// cluster spread cannot see.
#[allow(clippy::too_many_arguments)]
fn spread_bound_rel(
    metric_of: impl Fn(&RepMeasurement) -> f64,
    estimate: f64,
    reps: &[RepMeasurement],
    sp: &WeightedSimpoints,
    ivs: &[Interval],
    measured: &[Option<RepMeasurement>],
    total_ops: u64,
    floor: f64,
) -> f64 {
    let mut lambda = 0.0f64;
    for (i, a) in reps.iter().enumerate() {
        for b in reps.iter().skip(i + 1) {
            let d = bbv_dist(&ivs[a.interval].bbv, &ivs[b.interval].bbv).max(1e-3);
            lambda = lambda.max((metric_of(a) - metric_of(b)).abs() / d);
        }
    }
    let mut var = 0.0f64;
    for (rep, members) in reps.iter().zip(sp.members.iter()) {
        let cluster_ops: f64 = members.iter().map(|&i| ivs[i].ops as f64).sum();
        if cluster_ops <= 0.0 {
            continue;
        }
        // Members with their own detailed measurement (the cold prefix
        // and the representative itself) contribute zero deviation.
        let ms: f64 = members
            .iter()
            .map(|&i| {
                if measured[i].is_some() {
                    return 0.0;
                }
                let d = bbv_dist(&ivs[i].bbv, &ivs[rep.interval].bbv);
                ivs[i].ops as f64 * d * d
            })
            .sum::<f64>()
            / cluster_ops;
        let sigma = lambda * ms.sqrt();
        let share = cluster_ops / total_ops as f64;
        var += (share * sigma) * (share * sigma);
    }
    Z_95 * var.sqrt() / estimate.abs().max(1e-12) + floor
}

/// Everything [`reconstitute`] produces: the whole-trace result, the
/// headline estimates, and the raw synthesis ingredients
/// ([`synthesize_trace`] turns them into a windowed activity trace).
struct Reconstituted {
    result: ScenarioResult,
    cpi_est: f64,
    power_est: f64,
    /// Per-interval `(scale, source activity)` terms whose weighted sum
    /// is the reconstituted activity (before pinning).
    terms: Vec<(f64, Activity)>,
    /// Estimated cycles each interval contributes, in trace order.
    interval_cycles: Vec<f64>,
}

/// Reconstitutes a whole-trace [`ScenarioResult`] from per-interval
/// measurements: each interval takes its CPI, power and counter shape
/// from its own detailed measurement when it has one, otherwise from its
/// cluster's representative.
fn reconstitute(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    ivs: &[Interval],
    measured: &[Option<RepMeasurement>],
    cluster_of: &[usize],
    reps: &[RepMeasurement],
) -> Reconstituted {
    let source: Vec<&RepMeasurement> = (0..ivs.len())
        .map(|i| measured[i].as_ref().unwrap_or(&reps[cluster_of[i]]))
        .collect();
    let total_ops: u64 = ivs.iter().map(|iv| iv.ops).sum();
    // Whole-trace cycles: per-interval op counts times assigned CPI.
    let interval_cycles: Vec<f64> = ivs
        .iter()
        .zip(&source)
        .map(|(iv, m)| iv.ops as f64 * m.cpi)
        .collect();
    let cycles_est: f64 = interval_cycles.iter().sum();
    let cpi_est = cycles_est / total_ops.max(1) as f64;
    // Power is per-cycle intensive: cycle-weighted mean of assignments.
    let power_est: f64 = interval_cycles
        .iter()
        .zip(&source)
        .map(|(c, m)| c * m.power)
        .sum::<f64>()
        / cycles_est.max(1e-12);

    // Counter mix per interval, scaled to the interval's op share.
    let mut terms: Vec<(f64, Activity)> = Vec::new();
    let mut attr_terms: Vec<(f64, CycleAttribution)> = Vec::new();
    for (iv, m) in ivs.iter().zip(&source) {
        let scale = iv.ops as f64 / m.activity.completed.max(1) as f64;
        terms.push((scale, m.activity));
        attr_terms.push((scale, m.attribution));
    }
    let mut activity = Activity::weighted_sum(&terms);
    // Pin the invariants exact mode guarantees: completed equals the op
    // budget, and cycles match the estimate.
    activity.completed = total_ops;
    activity.cycles = cycles_est.round().max(1.0) as u64;
    let attribution = rebalance(attribution_weighted_sum(&attr_terms), activity.cycles);

    let power = PowerModel::for_config(cfg).evaluate(&activity);
    let result = ScenarioResult {
        workload: name.to_owned(),
        config: cfg.name.clone(),
        sim: SimResult {
            config_name: cfg.name.clone(),
            threads: views.len(),
            activity,
            per_thread_completed: views.iter().map(|v| v.len() as u64).collect(),
            attribution,
        },
        power,
    };
    Reconstituted {
        result,
        cpi_est,
        power_est,
        terms,
        interval_cycles,
    }
}

/// Element-wise weighted sum of attribution buckets (rounded).
fn attribution_weighted_sum(terms: &[(f64, CycleAttribution)]) -> CycleAttribution {
    let f = |get: fn(&CycleAttribution) -> u64| -> u64 {
        terms
            .iter()
            .map(|(w, a)| w * get(a) as f64)
            .sum::<f64>()
            .round()
            .max(0.0) as u64
    };
    CycleAttribution {
        active: f(|a| a.active),
        mma_gated: f(|a| a.mma_gated),
        issue_limited: f(|a| a.issue_limited),
        memory_bound: f(|a| a.memory_bound),
        dispatch_stalled: f(|a| a.dispatch_stalled),
        fetch_stalled: f(|a| a.fetch_stalled),
        idle: f(|a| a.idle),
    }
}

/// A forward-only cursor over the functional warming of one trace under
/// one warm-equivalence class, backed by checkpoints in a [`CkptStore`].
///
/// `state_at(idx)` yields the warm state at the start of interval `idx`,
/// loading the exact-boundary checkpoint when one exists, otherwise
/// jumping to the nearest earlier checkpoint and replaying only the gap
/// — and saving a new checkpoint at `idx` so the next run (or the next
/// config in the class, or the next bound-mode round) skips the replay
/// entirely. Ops after the last measured boundary are never replayed.
struct WarmCursor<'a> {
    cfg: &'a CoreConfig,
    ivs: &'a [Interval],
    store: &'a CkptStore,
    class: u64,
    warmer: FunctionalWarmer,
    pos: usize,
}

impl<'a> WarmCursor<'a> {
    fn new(cfg: &'a CoreConfig, ivs: &'a [Interval], store: &'a CkptStore, class: u64) -> Self {
        WarmCursor {
            cfg,
            ivs,
            store,
            class,
            warmer: FunctionalWarmer::new(cfg),
            pos: 0,
        }
    }

    /// The warm state at the start of interval `idx` (ascending calls
    /// only). Boundary 0 is cold and never checkpointed.
    fn state_at(&mut self, idx: usize) -> &WarmState {
        assert!(idx >= self.pos, "warm cursor moves forward only");
        if idx > self.pos {
            if let Some(w) = self.store.load(self.cfg, self.class, idx) {
                self.warmer = w;
                self.pos = idx;
            } else {
                self.store.note_miss();
                // Jump to the nearest earlier checkpoint, then replay
                // only the remaining gap.
                for j in (self.pos + 1..idx).rev() {
                    if let Some(w) = self.store.load(self.cfg, self.class, j) {
                        self.warmer = w;
                        self.pos = j;
                        break;
                    }
                }
                while self.pos < idx {
                    self.warmer.observe(&self.ivs[self.pos].slices);
                    self.pos += 1;
                }
                self.store.save(self.class, idx, &self.warmer);
            }
        }
        self.warmer.state()
    }
}

/// The measurement half of SimPoints: partition, cluster, and measure
/// (cold prefix + representatives) through the checkpoint-backed warm
/// cursor and the engine's content-addressed result cache.
struct SampleCore {
    ivs: Vec<Interval>,
    total_ops: u64,
    sp: WeightedSimpoints,
    measured: Vec<Option<RepMeasurement>>,
    reps: Vec<RepMeasurement>,
    cluster_of: Vec<usize>,
    simulated_ops: u64,
    warmup_total: u64,
}

fn sample_core(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    interval_ops: usize,
    k: usize,
    warmup_ops: usize,
    store: &CkptStore,
) -> SampleCore {
    let ivs = partition(cfg, name, views, interval_ops, store);
    let total_ops: u64 = ivs.iter().map(|iv| iv.ops).sum();
    let bbvs: Vec<Vec<f64>> = ivs.iter().map(|iv| iv.bbv.clone()).collect();
    let weights: Vec<f64> = ivs.iter().map(|iv| iv.ops as f64).collect();
    let sp = if k >= ivs.len() {
        // At least one requested cluster per interval: bypass k-means —
        // it merges identical-BBV intervals whose true CPIs can still
        // differ, which would leave ops skipped under an understated
        // bound when the caller asked for full coverage. Measure every
        // interval directly instead (bound mode relies on this as its
        // measure-everything terminal round).
        let total: f64 = weights.iter().sum();
        WeightedSimpoints {
            selection: p10_trace::Selection {
                picks: weights
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (i, *w / total))
                    .collect(),
            },
            members: (0..ivs.len()).map(|i| vec![i]).collect(),
        }
    } else {
        simpoints_weighted(&bbvs, &weights, k, KMEANS_SEED)
    };

    // Measure the representatives on a single forward pass over the
    // trace: warming advances through the checkpoint-backed cursor (so a
    // warm-class repeat jumps boundary to boundary instead of replaying),
    // and each measurement is content-addressed in the engine cache by
    // (timing projection, trace signature, interval geometry), so bound
    // mode's later rounds pay only for the representatives they add.
    let rep_set: HashSet<usize> = sp.selection.picks.iter().map(|&(rep, _)| rep).collect();
    let class = warm_class_key(cfg, name, views, interval_ops);
    let vsig = views_sig(name, views);
    let timing_json =
        serde_json::to_string(&runner::timing_projection(cfg)).expect("config serializes");
    let mut cursor = WarmCursor::new(cfg, &ivs, store, class);
    let mut measured: Vec<Option<RepMeasurement>> = (0..ivs.len()).map(|_| None).collect();
    // The cold-start transient — caches and predictor filling for the
    // very first time — has no BBV signature, so a warm representative
    // cannot stand in for the leading intervals. Detail them until two
    // consecutive measurements agree (capped at a quarter of the trace).
    let cold_cap = (ivs.len() / 4).max(1);
    let mut prev_cold_cpi: Option<f64> = None;
    let mut cold_done = false;
    for (idx, slot) in measured.iter_mut().enumerate() {
        let want_cold = !cold_done && idx < cold_cap;
        if want_cold || rep_set.contains(&idx) {
            let key =
                format!("sampmeas|{timing_json}|{vsig:016x}|{interval_ops}|{warmup_ops}|{idx}");
            let m = runner::engine().cached("sample-interval", &key, || {
                simulate_interval(
                    cfg,
                    views,
                    interval_ops,
                    idx,
                    warmup_ops,
                    cursor.state_at(idx),
                )
            });
            *slot = Some(m);
        }
        if want_cold {
            let cpi = slot.as_ref().expect("just measured").cpi;
            if let Some(prev) = prev_cold_cpi {
                if (cpi - prev).abs() / cpi.max(1e-9) < COLD_TOL_REL {
                    cold_done = true;
                }
            }
            prev_cold_cpi = Some(cpi);
        }
    }
    let reps: Vec<RepMeasurement> = sp
        .selection
        .picks
        .iter()
        .map(|&(rep, _)| measured[rep].clone().expect("representative was measured"))
        .collect();
    let simulated_ops: u64 = measured
        .iter()
        .enumerate()
        .filter(|(_, m)| m.is_some())
        .map(|(i, _)| ivs[i].ops)
        .sum();
    let warmup_total: u64 = measured.iter().flatten().map(|r| r.warmup_ops).sum();

    // Interval -> cluster assignment for per-interval value lookup.
    let mut cluster_of = vec![0usize; ivs.len()];
    for (ci, members) in sp.members.iter().enumerate() {
        for &m in members {
            cluster_of[m] = ci;
        }
    }
    SampleCore {
        ivs,
        total_ops,
        sp,
        measured,
        reps,
        cluster_of,
        simulated_ops,
        warmup_total,
    }
}

/// Runs pre-built per-thread views in the given sampling mode using the
/// process-default checkpoint store.
///
/// Exact mode delegates to [`scenario::run_traces`] (bit-identical to the
/// reference path) with trivial stats; sampled modes partition, cluster,
/// simulate representatives, and reconstitute.
///
/// # Panics
///
/// Panics if `views` contains no ops (nothing to sample).
#[must_use]
pub fn run_traces_sampled(
    cfg: &CoreConfig,
    name: &str,
    views: Vec<TraceView>,
    mode: &SamplingMode,
) -> SampledScenario {
    run_traces_sampled_with(cfg, name, views, mode, CkptStore::process_default())
}

/// [`run_traces_sampled`] against an explicit [`CkptStore`] — the sweep
/// entry point (and the testable one: a private store gives exact
/// checkpoint-traffic counts regardless of what runs in parallel).
///
/// # Panics
///
/// Panics if `views` contains no ops (nothing to sample).
#[must_use]
pub fn run_traces_sampled_with(
    cfg: &CoreConfig,
    name: &str,
    views: Vec<TraceView>,
    mode: &SamplingMode,
    store: &CkptStore,
) -> SampledScenario {
    let total_ops: u64 = views.iter().map(|v| v.len() as u64).sum();
    assert!(total_ops > 0, "sampled run of an empty trace");
    match *mode {
        SamplingMode::Exact => {
            let result = scenario::run_traces(cfg, name, views);
            let stats = SamplingStats {
                mode: "exact".to_owned(),
                intervals: 0,
                clusters: 0,
                total_ops,
                simulated_ops: total_ops,
                skipped_ops: 0,
                warmup_ops: 0,
                cpi_est: result.sim.cpi(),
                power_est: result.core_power(),
                cpi_bound_rel: 0.0,
                power_bound_rel: 0.0,
            };
            SampledScenario { result, stats }
        }
        _ => run_sampled_full(cfg, name, &views, mode, store).0,
    }
}

/// Raw cycle-placement ingredients of a sampled result, for synthesizing
/// a windowed [`ActivityTrace`] without re-simulating anything.
struct SynthParts {
    terms: Vec<(f64, Activity)>,
    interval_cycles: Vec<f64>,
}

/// Dispatches a non-exact mode to its runner, returning the synthesis
/// ingredients alongside the scenario.
fn run_sampled_full(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    mode: &SamplingMode,
    store: &CkptStore,
) -> (SampledScenario, SynthParts) {
    match *mode {
        SamplingMode::SimPoints {
            interval_ops,
            k,
            warmup_ops,
        } => run_simpoints(cfg, name, views, interval_ops, k, warmup_ops, store),
        SamplingMode::Bound { target_mpct } => run_bound(cfg, name, views, target_mpct, store),
        SamplingMode::Exact => unreachable!("exact handled by the caller"),
    }
}

/// SimPoints: measure the cold prefix and one representative per
/// cluster, reconstitute the rest from the representatives, and bound the
/// estimate.
fn run_simpoints(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    interval_ops: usize,
    k: usize,
    warmup_ops: usize,
    store: &CkptStore,
) -> (SampledScenario, SynthParts) {
    let SampleCore {
        ivs,
        total_ops,
        sp,
        measured,
        reps,
        cluster_of,
        simulated_ops,
        warmup_total,
    } = sample_core(cfg, name, views, interval_ops, k, warmup_ops, store);

    let Reconstituted {
        result,
        cpi_est,
        power_est,
        terms,
        interval_cycles,
    } = reconstitute(cfg, name, views, &ivs, &measured, &cluster_of, &reps);

    // Boundary residue: per-interval measurement can be off by a
    // roughly constant number of cycles (functional-vs-detailed state
    // gap at the window edges), which is relatively large only when
    // intervals are short and CPI is low.
    #[allow(clippy::cast_precision_loss)]
    let boundary_rel = BOUNDARY_RESIDUE_CYCLES / (interval_ops as f64 * cpi_est.max(1e-3));
    #[allow(clippy::cast_precision_loss)]
    let floor = bound_floor_rel(
        (total_ops - simulated_ops) as f64 / total_ops.max(1) as f64,
        measured.iter().flatten().count(),
    );
    let cpi_bound = boundary_rel
        + spread_bound_rel(
            |r| r.cpi,
            cpi_est,
            &reps,
            &sp,
            &ivs,
            &measured,
            total_ops,
            floor,
        );
    let power_bound = boundary_rel
        + spread_bound_rel(
            |r| r.power,
            power_est,
            &reps,
            &sp,
            &ivs,
            &measured,
            total_ops,
            floor,
        );
    let mode = format!("simpoints:{interval_ops}:{k}:{warmup_ops}");
    (
        SampledScenario {
            result,
            stats: SamplingStats {
                mode,
                intervals: ivs.len() as u64,
                clusters: sp.selection.len() as u64,
                total_ops,
                simulated_ops,
                skipped_ops: total_ops - simulated_ops,
                warmup_ops: warmup_total,
                cpi_est,
                power_est,
                cpi_bound_rel: cpi_bound,
                power_bound_rel: power_bound,
            },
        },
        SynthParts {
            terms,
            interval_cycles,
        },
    )
}

/// Target-bound auto-tuning: run SimPoints with a doubling cluster
/// budget until the claimed bound meets the target, every interval is
/// measured, or the budget reaches the interval count. Rounds reuse
/// prior rounds' interval measurements (engine result cache) and warm
/// checkpoints (`store`), so round N+1 pays only for the representatives
/// it adds.
fn run_bound(
    cfg: &CoreConfig,
    name: &str,
    views: &[TraceView],
    target_mpct: u32,
    store: &CkptStore,
) -> (SampledScenario, SynthParts) {
    let max_len = views.iter().map(TraceView::len).max().unwrap_or(0);
    let interval_ops = (max_len / 64).max(2_500);
    let warmup_ops = interval_ops / 8;
    let target = f64::from(target_mpct) / 100_000.0;
    let n_intervals = max_len.div_ceil(interval_ops);
    let mut k = 4usize.min(n_intervals.max(1));
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let (mut s, parts) = run_simpoints(cfg, name, views, interval_ops, k, warmup_ops, store);
        let bound = s.stats.cpi_bound_rel.max(s.stats.power_bound_rel);
        if bound <= target {
            p10_obs::counter("sampling.bound_rounds", rounds);
            s.stats.mode = SamplingMode::Bound { target_mpct }.describe();
            return (s, parts);
        }
        if s.stats.skipped_ops == 0 || k >= n_intervals {
            break;
        }
        k = (k * 2).min(n_intervals);
    }
    // Even full interval coverage leaves the per-interval boundary
    // residue above the requested target: sampling cannot promise the
    // bound at this budget. Degrade to exact execution, which meets any
    // target by construction — the graceful small-budget endpoint.
    p10_obs::counter("sampling.bound_rounds", rounds);
    let total_ops: u64 = views.iter().map(|v| v.len() as u64).sum();
    let result = scenario::run_traces(cfg, name, views.to_vec());
    let activity = result.sim.activity;
    let stats = SamplingStats {
        mode: SamplingMode::Bound { target_mpct }.describe(),
        intervals: 1,
        clusters: 1,
        total_ops,
        simulated_ops: total_ops,
        skipped_ops: 0,
        warmup_ops: 0,
        cpi_est: result.sim.cpi(),
        power_est: result.core_power(),
        cpi_bound_rel: 0.0,
        power_bound_rel: 0.0,
    };
    #[allow(clippy::cast_precision_loss)]
    let parts = SynthParts {
        terms: vec![(1.0, activity)],
        interval_cycles: vec![activity.cycles as f64],
    };
    (SampledScenario { result, stats }, parts)
}

/// Synthesizes a windowed [`ActivityTrace`] for a sampled result by
/// laying the per-interval activity terms end to end on the estimated
/// cycle axis and slicing at window boundaries.
///
/// Exactness contract (`trace.total() == activity`): cumulative weighted
/// sums are monotone per field (weights only grow window to window), so
/// per-window saturating deltas telescope to the full-weight sum, which
/// is the reconstituted activity for every field except the two pinned
/// ones — `cycles` is overwritten with exact window widths and the
/// `completed` rounding residue is settled against the final windows.
fn synthesize_trace(activity: &Activity, parts: &SynthParts, window_cycles: u64) -> ActivityTrace {
    assert!(window_cycles > 0, "window_cycles must be positive");
    let total_cycles = activity.cycles;
    if total_cycles == 0 {
        return ActivityTrace {
            window_cycles,
            windows: Vec::new(),
        };
    }
    // Cumulative end position of each interval on the cycle axis,
    // rescaled so the last boundary lands exactly on the pinned total.
    let raw_total: f64 = parts.interval_cycles.iter().sum();
    #[allow(clippy::cast_precision_loss)]
    let scale = if raw_total > 0.0 {
        total_cycles as f64 / raw_total
    } else {
        0.0
    };
    let mut bounds = Vec::with_capacity(parts.interval_cycles.len());
    let mut acc = 0.0f64;
    for c in &parts.interval_cycles {
        acc += c * scale;
        bounds.push(acc);
    }
    #[allow(clippy::cast_precision_loss)]
    if let Some(last) = bounds.last_mut() {
        *last = total_cycles as f64;
    }
    let nwin = usize::try_from(total_cycles.div_ceil(window_cycles)).expect("window count fits");
    let mut windows = Vec::with_capacity(nwin);
    let mut prev_cum = Activity::default();
    for w in 0..nwin {
        let start_cycle = w as u64 * window_cycles;
        let end_cycle = (start_cycle + window_cycles).min(total_cycles);
        #[allow(clippy::cast_precision_loss)]
        let end = end_cycle as f64;
        let wterms: Vec<(f64, Activity)> = parts
            .terms
            .iter()
            .enumerate()
            .map(|(i, &(tw, a))| {
                let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
                let hi = bounds[i];
                let span = hi - lo;
                let covered = if span <= 0.0 {
                    f64::from(u8::from(end >= hi))
                } else {
                    ((end - lo) / span).clamp(0.0, 1.0)
                };
                (tw * covered, a)
            })
            .collect();
        let cum = Activity::weighted_sum(&wterms);
        let mut win = cum.delta(&prev_cum);
        prev_cum = cum;
        win.cycles = end_cycle - start_cycle;
        windows.push(win);
    }
    // Settle the `completed` rounding residue (the only field whose
    // reconstituted total is pinned rather than the weighted sum).
    let sum: u64 = windows.iter().map(|w| w.completed).sum();
    if sum < activity.completed {
        if let Some(last) = windows.last_mut() {
            last.completed += activity.completed - sum;
        }
    } else {
        let mut excess = sum - activity.completed;
        for w in windows.iter_mut().rev() {
            if excess == 0 {
                break;
            }
            let cut = w.completed.min(excess);
            w.completed -= cut;
            excess -= cut;
        }
    }
    ActivityTrace {
        window_cycles,
        windows,
    }
}

/// Runs a non-exact sampled simulation *and* synthesizes the windowed
/// activity trace the DSE replay layer consumes — the sampled twin of
/// recording a run with [`p10_uarch::ActivityRecorder`]. The trace's
/// window totals fold back to exactly the reconstituted activity
/// (`trace.total() == result.sim.activity`), preserving the recording
/// contract downstream replay asserts.
///
/// # Panics
///
/// Panics on an exact mode (record exactly instead), an empty trace, or
/// `window_cycles == 0`.
#[must_use]
pub fn run_traces_sampled_traced(
    cfg: &CoreConfig,
    name: &str,
    views: Vec<TraceView>,
    mode: &SamplingMode,
    window_cycles: u64,
) -> (SampledScenario, ActivityTrace) {
    assert!(!mode.is_exact(), "traced sampling needs a non-exact mode");
    let total_ops: u64 = views.iter().map(|v| v.len() as u64).sum();
    assert!(total_ops > 0, "sampled run of an empty trace");
    let (s, parts) = run_sampled_full(cfg, name, &views, mode, CkptStore::process_default());
    let trace = synthesize_trace(&s.result.sim.activity, &parts, window_cycles);
    (s, trace)
}

/// [`run_traces_sampled`] over a benchmark's per-thread-seeded views —
/// the sampled twin of [`scenario::run_benchmark`].
#[must_use]
pub fn run_benchmark_sampled(
    cfg: &CoreConfig,
    bench: &Benchmark,
    seed: u64,
    max_ops: u64,
    mode: &SamplingMode,
) -> SampledScenario {
    run_traces_sampled(
        cfg,
        &bench.name,
        scenario::benchmark_views(cfg, bench, seed, max_ops),
        mode,
    )
}

/// [`run_traces_sampled`] over a single workload's staggered SMT views —
/// the sampled twin of [`scenario::run_workload`].
#[must_use]
pub fn run_workload_sampled(
    cfg: &CoreConfig,
    workload: &Workload,
    max_ops: u64,
    mode: &SamplingMode,
) -> SampledScenario {
    run_traces_sampled(
        cfg,
        &workload.name,
        scenario::staggered_views(workload, cfg.smt.threads(), max_ops),
        mode,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use p10_uarch::AblationGroup;
    use p10_workloads::specint_like;

    fn simpoints_mode() -> SamplingMode {
        SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 4,
            warmup_ops: 125,
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        for text in [
            "exact",
            "simpoints:1000:8:125",
            "bound:5",
            "bound:2.5",
            "bound:0.25",
        ] {
            let m = SamplingMode::parse(text).expect("parses");
            assert_eq!(m.describe(), text);
        }
        // Defaults are filled in.
        assert_eq!(
            SamplingMode::parse("simpoints:800:4").expect("parses"),
            SamplingMode::SimPoints {
                interval_ops: 800,
                k: 4,
                warmup_ops: 100
            }
        );
        assert_eq!(
            SamplingMode::parse("simpoints:800:4:0").expect("parses"),
            SamplingMode::SimPoints {
                interval_ops: 800,
                k: 4,
                warmup_ops: 0
            }
        );
        // A trailing percent sign is tolerated and normalized away.
        assert_eq!(
            SamplingMode::parse("bound:5%").expect("parses"),
            SamplingMode::Bound { target_mpct: 5_000 }
        );
        assert_eq!(
            SamplingMode::parse("bound:100").expect("parses"),
            SamplingMode::Bound {
                target_mpct: 100_000
            }
        );
        for bad in [
            "",
            "simpoint",
            "simpoints",
            "simpoints:0:4",
            "simpoints:100:0",
            "simpoints:100:4:5:6",
            "learned:1000:8:4",
            "exact:1",
            "simpoints:x:4",
            "bound",
            "bound:",
            "bound:0",
            "bound:0.0001",
            "bound:abc",
            "bound:101",
            "bound:-3",
            "bound:nan",
            "bound:inf",
            "bound:5:6",
            "bound:150%",
        ] {
            assert!(SamplingMode::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn bound_floor_grows_with_skipped_share() {
        assert!((bound_floor_rel(0.0, 4) - BOUND_FLOOR_MIN_REL).abs() < 1e-12);
        assert!(bound_floor_rel(1.0, 4) > bound_floor_rel(0.5, 4));
        assert!(
            bound_floor_rel(2.0, 4) <= bound_floor_rel(1.0, 4) + 1e-12,
            "clamped"
        );
        // At the calibration scale the evidence factor is exactly 1; more
        // measured intervals tighten, a lone anchor loosens (capped 2x).
        assert!(
            (bound_floor_rel(1.0, 4) - BOUND_FLOOR_MIN_REL - BOUND_FLOOR_SKIP_REL).abs() < 1e-12
        );
        assert!(bound_floor_rel(0.8, 16) < bound_floor_rel(0.8, 4));
        assert!(
            (bound_floor_rel(1.0, 1) - BOUND_FLOOR_MIN_REL - 2.0 * BOUND_FLOOR_SKIP_REL).abs()
                < 1e-12
        );
    }

    #[test]
    fn exact_mode_is_the_reference_path_with_trivial_stats() {
        let b = &specint_like()[8];
        let cfg = CoreConfig::power10();
        let s = run_benchmark_sampled(&cfg, b, 1, 4_000, &SamplingMode::Exact);
        let reference = scenario::run_benchmark(&cfg, b, 1, 4_000);
        assert_eq!(
            serde_json::to_string(&s.result).expect("json"),
            serde_json::to_string(&reference).expect("json"),
        );
        assert_eq!(s.stats.simulated_ops, s.stats.total_ops);
        assert_eq!(s.stats.skipped_ops, 0);
        assert_eq!(s.stats.cpi_bound_rel, 0.0);
    }

    #[test]
    fn sampled_run_covers_every_op_and_holds_its_invariants() {
        let b = &specint_like()[8];
        let cfg = CoreConfig::power10();
        let s = run_benchmark_sampled(&cfg, b, 1, 6_100, &simpoints_mode());
        assert_eq!(s.stats.total_ops, 6_100);
        assert_eq!(
            s.stats.simulated_ops + s.stats.skipped_ops,
            s.stats.total_ops
        );
        assert_eq!(s.stats.intervals, 7, "6100 ops @ 1000 = 6 full + tail");
        assert!(s.stats.clusters >= 1 && s.stats.clusters <= 4);
        assert!(s.stats.simulated_ops < s.stats.total_ops, "must skip work");
        // Reconstitution invariants exact results guarantee.
        assert_eq!(s.result.sim.activity.completed, 6_100);
        assert_eq!(
            s.result.sim.attribution.total(),
            s.result.sim.activity.cycles
        );
        assert_eq!(s.result.sim.total_completed(), 6_100);
        assert!(s.stats.cpi_est > 0.0 && s.stats.power_est > 0.0);
        assert!(s.stats.cpi_bound_rel >= BOUND_FLOOR_MIN_REL);
    }

    #[test]
    fn sampling_is_deterministic() {
        let b = &specint_like()[7];
        let cfg = CoreConfig::power10();
        let a = run_benchmark_sampled(&cfg, b, 3, 5_000, &simpoints_mode());
        let b2 = run_benchmark_sampled(&cfg, b, 3, 5_000, &simpoints_mode());
        assert_eq!(
            serde_json::to_string(&a).expect("json"),
            serde_json::to_string(&b2).expect("json"),
        );
    }

    #[test]
    fn rebalance_partitions_exactly() {
        let a = CycleAttribution {
            active: 50,
            memory_bound: 60,
            ..CycleAttribution::default()
        };
        // Overshoot: 110 > 100 shaves the largest bucket.
        let r = rebalance(a, 100);
        assert_eq!(r.total(), 100);
        assert_eq!(r.memory_bound, 50);
        assert_eq!(r.idle, 0);
        // Undershoot: slack lands in idle.
        let r = rebalance(a, 200);
        assert_eq!(r.total(), 200);
        assert_eq!(r.idle, 90);
        // Degenerate: fewer cycles than any bucket can absorb.
        let r = rebalance(a, 0);
        assert_eq!(r.total(), 0);
    }

    #[test]
    fn global_mode_is_set_once_and_exact_is_not_active() {
        // `active()` must never report an exact mode; before any set_mode
        // call it is None (figures is the only setter in production).
        if MODE.get().is_none() {
            assert!(active().is_none());
        }
        set_mode(SamplingMode::Exact);
        assert!(active().is_none(), "exact must not activate sampling");
    }

    #[test]
    fn sweep_warms_once_per_warm_class() {
        let store = CkptStore::new(None);
        let p10 = CoreConfig::power10();
        let views = scenario::benchmark_views(&p10, &specint_like()[6], 2, 4_000);
        // Eight configs, deliberately spanning fewer warm-equivalence
        // classes: queue sizes and latencies are timing-only, while cache
        // geometry / TLB / prefetcher changes are warm-relevant.
        let mut queues = p10.clone();
        queues.apply(AblationGroup::Queues);
        let mut slow_mul = p10.clone();
        slow_mul.mul_latency += 1;
        let mut big_iq = p10.clone();
        big_iq.issue_queue_entries *= 2;
        let mut small_l2 = p10.clone();
        small_l2.l2.size_bytes /= 2;
        let mut big_tlb = p10.clone();
        big_tlb.tlb_entries *= 4;
        let mut no_pf = p10.clone();
        no_pf.prefetch_streams = 0;
        let mut big_erat = p10.clone();
        big_erat.erat_entries *= 2;
        let cfgs = [
            p10.clone(),
            queues,
            slow_mul,
            big_iq,
            small_l2,
            big_tlb,
            no_pf,
            big_erat,
        ];
        let classes: HashSet<String> = cfgs
            .iter()
            .map(|c| serde_json::to_string(&runner::warm_projection(c)).expect("json"))
            .collect();
        assert!(
            classes.len() < cfgs.len(),
            "sweep must contain warm-equivalent configs ({} classes)",
            classes.len()
        );
        let mode = SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops: 0,
        };
        for cfg in &cfgs {
            let s = run_traces_sampled_with(cfg, "warmclass", views.clone(), &mode, &store);
            assert_eq!(s.result.sim.activity.completed, 4_000);
        }
        // The whole-trace warming pre-pass ran once per class — not once
        // per config.
        assert_eq!(store.warm_passes(), classes.len() as u64);
    }

    #[test]
    fn checkpoints_are_reused_across_runs_and_memo_runs_are_identical() {
        let store = CkptStore::new(None);
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, &specint_like()[5], 9, 6_000);
        let cold = SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops: 0,
        };
        let s1 = run_traces_sampled_with(&cfg, "ckptreuse", views.clone(), &cold, &store);
        assert!(store.ckpt_bytes() > 0, "run 1 must write checkpoints");
        assert!(store.ckpt_misses() > 0, "run 1 starts from nothing");
        let hits_after_run1 = store.ckpt_hits();
        // Same trace and warm class, different warmup: the measurement
        // cache keys differ, so the intervals are genuinely re-simulated
        // — from run 1's checkpoints instead of replayed warming.
        let warm = SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops: 125,
        };
        let s2 = run_traces_sampled_with(&cfg, "ckptreuse", views.clone(), &warm, &store);
        assert!(
            store.ckpt_hits() > hits_after_run1,
            "run 2 must load run 1's checkpoints"
        );
        assert_eq!(s2.result.sim.activity.completed, 6_000);
        // An identical re-run is served from the engine memo and is
        // byte-identical.
        let s1b = run_traces_sampled_with(&cfg, "ckptreuse", views, &cold, &store);
        assert_eq!(
            serde_json::to_string(&s1).expect("json"),
            serde_json::to_string(&s1b).expect("json"),
        );
    }

    /// POWER10 with small L2/L3, so its checkpoint blobs are small.
    fn small_warm_cfg() -> CoreConfig {
        let mut cfg = CoreConfig::power10();
        cfg.l2.size_bytes = 64 * 1024;
        cfg.l3.size_bytes = 128 * 1024;
        cfg
    }

    #[test]
    fn disk_tier_store_keeps_nothing_in_memory() {
        let dir = std::env::temp_dir().join(format!("p10ckpt-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = small_warm_cfg();
        let store = CkptStore::new(Some(dir.clone()));
        let w = FunctionalWarmer::new(&cfg);
        let n = 5;
        for idx in 1..=n {
            store.save(3, idx, &w);
        }
        let feats = store.warm_features_cached(3, 2, || vec![0.25, 0.5]);
        assert!(store.blobs.lock().expect("memo").is_empty());
        assert!(store.feats.lock().expect("memo").is_empty());
        // Everything comes back from disk.
        for idx in 1..=n {
            assert!(store.load(&cfg, 3, idx).is_some(), "boundary {idx}");
        }
        assert_eq!(store.ckpt_hits(), n as u64);
        let again = store.warm_features_cached(3, 2, || unreachable!("features are on disk"));
        assert_eq!(again, feats);
        assert_eq!(store.warm_passes(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_tier_eviction_ignores_how_classes_interleave() {
        let cfg = small_warm_cfg();
        let w = FunctionalWarmer::new(&cfg);
        // Each class saves past the cap, so it must evict, then reloads
        // every boundary; `step` runs after every store call.
        let n = CKPT_MEMO_CAP + 10;
        let run_class = |store: &CkptStore, class: u64, step: &dyn Fn()| {
            for idx in 1..=n {
                store.save(class, idx, &w);
                step();
            }
            (1..=n)
                .filter(|&idx| {
                    let hit = store.load(&cfg, class, idx).is_some();
                    step();
                    hit
                })
                .count()
        };
        let serial = CkptStore::new(None);
        let serial_hits = [run_class(&serial, 1, &|| {}), run_class(&serial, 2, &|| {})];
        // Two threads in lock step: every store call of one class lands
        // between two of the other's.
        let store = CkptStore::new(None);
        let barrier = std::sync::Barrier::new(2);
        let step = || {
            barrier.wait();
        };
        let par_hits = std::thread::scope(|s| {
            let a = s.spawn(|| run_class(&store, 1, &step));
            let b = s.spawn(|| run_class(&store, 2, &step));
            [a.join().expect("class 1"), b.join().expect("class 2")]
        });
        assert_eq!(par_hits, serial_hits);
        // The blobs saved after each class's own eviction survive.
        assert_eq!(serial_hits, [n - CKPT_MEMO_CAP; 2]);
        assert_eq!(store.ckpt_hits(), serial.ckpt_hits());
    }

    #[test]
    fn corrupt_disk_checkpoint_falls_back_to_rewarm() {
        let dir = std::env::temp_dir().join(format!("p10ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CoreConfig::power10();
        let store = CkptStore::new(Some(dir.clone()));
        let mut w = FunctionalWarmer::new(&cfg);
        let views = scenario::benchmark_views(&cfg, &specint_like()[3], 4, 512);
        w.observe(&views);
        store.save(7, 3, &w);
        // A fresh store (cold memo) restores it from disk.
        let fresh = CkptStore::new(Some(dir.clone()));
        assert!(fresh.load(&cfg, 7, 3).is_some());
        assert_eq!(fresh.ckpt_hits(), 1);
        // Truncate the blob on disk: the next fresh store must treat it
        // as a miss, not panic or return garbage.
        let path = dir.join(CkptStore::blob_name(7, 3));
        let bytes = std::fs::read(&path).expect("checkpoint file exists");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let fresh2 = CkptStore::new(Some(dir.clone()));
        assert!(fresh2.load(&cfg, 7, 3).is_none());
        assert_eq!(fresh2.ckpt_hits(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bound_mode_meets_its_target_or_measures_everything() {
        let store = CkptStore::new(None);
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, &specint_like()[4], 5, 30_000);
        let mode = SamplingMode::Bound { target_mpct: 8_000 };
        let s = run_traces_sampled_with(&cfg, "boundmode", views, &mode, &store);
        assert_eq!(s.stats.mode, "bound:8");
        assert_eq!(s.result.sim.activity.completed, 30_000);
        let bound = s.stats.cpi_bound_rel.max(s.stats.power_bound_rel);
        assert!(
            bound <= 0.08 || s.stats.skipped_ops == 0,
            "bound {bound} missed the target with {} ops skipped",
            s.stats.skipped_ops
        );
    }

    #[test]
    fn traced_sampling_partitions_activity_exactly() {
        let b = &specint_like()[8];
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, b, 1, 6_100);
        let (s, trace) = run_traces_sampled_traced(&cfg, &b.name, views, &simpoints_mode(), 500);
        assert_eq!(trace.window_cycles, 500);
        assert_eq!(
            trace.total(),
            s.result.sim.activity,
            "windows must fold back to the reconstituted activity"
        );
        let cycle_sum: u64 = trace.windows.iter().map(|w| w.cycles).sum();
        assert_eq!(cycle_sum, s.result.sim.activity.cycles);
        for w in &trace.windows[..trace.windows.len() - 1] {
            assert_eq!(w.cycles, 500, "every window but the last is full");
        }
    }

    #[test]
    fn bound_fallback_to_exact_is_byte_identical_and_traceable() {
        // An impossible target at a tiny budget forces the bound loop's
        // exact fallback; the result must match the reference run
        // byte-for-byte and still synthesize a partition-exact trace.
        let b = &specint_like()[8];
        let cfg = CoreConfig::power10();
        let views = scenario::benchmark_views(&cfg, b, 1, 6_100);
        let mode = SamplingMode::Bound { target_mpct: 100 };
        let exact = scenario::run_traces(&cfg, &b.name, views.clone());
        let (s, trace) = run_traces_sampled_traced(&cfg, &b.name, views, &mode, 500);
        assert_eq!(s.stats.mode, "bound:0.1");
        assert_eq!(s.stats.skipped_ops, 0);
        assert_eq!(s.stats.cpi_bound_rel, 0.0);
        assert_eq!(
            serde_json::to_string(&exact).expect("serialize"),
            serde_json::to_string(&s.result).expect("serialize"),
            "exact fallback must be the reference result"
        );
        assert_eq!(trace.total(), s.result.sim.activity);
        let cycle_sum: u64 = trace.windows.iter().map(|w| w.cycles).sum();
        assert_eq!(cycle_sum, s.result.sim.activity.cycles);
    }
}
