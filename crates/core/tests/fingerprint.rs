//! The code fingerprint guards every persistent store.
//!
//! Fills one store directory under the build's own fingerprint, checks
//! that each tier hits under it, then plants a different fingerprint (as
//! a code change would produce) and expects a miss in every tier: the
//! result cache, the `P10WARM1` warm-state checkpoints and the DSE shard
//! journal. The planted fingerprint is process-wide, so this file holds
//! exactly one test and runs in a process of its own.

use p10_core::dse::{self, DseConfig, DsePoint, PowerKnobs};
use p10_core::runner::{self, Engine, EngineConfig};
use p10_core::sampling::{run_traces_sampled_with, CkptStore, SamplingMode};
use p10_core::scenario;
use p10_uarch::CoreConfig;
use p10_workloads::specint_like;
use std::path::Path;

fn engine(dir: &Path) -> Engine {
    Engine::new(EngineConfig {
        jobs: 2,
        disk_cache: Some(dir.to_path_buf()),
        progress: false,
    })
}

fn grid() -> Vec<DsePoint> {
    let base = CoreConfig::power10();
    let mut grid = Vec::new();
    for fetch in [6u32, 8] {
        for knobs in PowerKnobs::grid().into_iter().take(4) {
            let mut core = base.clone();
            core.fetch_width = fetch;
            core.name = format!("f{fetch}");
            grid.push(DsePoint {
                name: format!("f{fetch}-{}", knobs.label),
                core,
                knobs,
                paper: false,
            });
        }
    }
    grid
}

#[test]
fn planted_fingerprint_misses_in_every_store_tier() {
    let dir = std::env::temp_dir().join(format!("p10sim-fingerprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let warm_dir = dir.join("warm");

    let cfg = CoreConfig::power10();
    let views = scenario::benchmark_views(&cfg, &specint_like()[5], 9, 6_000);
    let sampled = |warmup_ops: usize, store: &CkptStore| {
        let mode = SamplingMode::SimPoints {
            interval_ops: 1_000,
            k: 3,
            warmup_ops,
        };
        let s = run_traces_sampled_with(&cfg, "fingerprint", views.clone(), &mode, store);
        serde_json::to_string(&s).expect("json")
    };
    let suite = dse::default_suite();
    let mut dse_cfg = DseConfig::new(42, 2_000);
    dse_cfg.shard_points = 4;
    dse_cfg.journal = Some(dir.join("dse-journal.jsonl"));
    let grid = grid();
    let shards = grid.len().div_ceil(dse_cfg.shard_points) as u64;

    // Fill every tier under the build's fingerprint.
    let original = runner::fingerprint();
    assert_eq!(original, runner::SOURCE_FINGERPRINT);
    let cold: Vec<f64> = engine(&dir).cached("fill", "point", || vec![1.5, -2.0]);
    let first = sampled(0, &CkptStore::new(Some(warm_dir.clone())));
    let dse_cold = dse::run_dse(&engine(&dir), &grid, &suite, &dse_cfg);
    assert_eq!(dse_cold.run.shards_computed, shards);

    // Control: the same fingerprint hits in every tier. (A new warmup
    // length keeps the sampled measurements out of the engine memo, so
    // the run has to restore warm state.)
    let same = engine(&dir);
    let hit: Vec<f64> = same.cached("hit", "point", || panic!("must hit the disk cache"));
    assert_eq!(hit, cold);
    let store = CkptStore::new(Some(warm_dir.clone()));
    sampled(125, &store);
    assert!(store.ckpt_hits() > 0, "same code must restore checkpoints");
    assert_eq!(store.warm_passes(), 0, "same code must reuse warm features");
    let dse_warm = dse::run_dse(&engine(&dir), &grid, &suite, &dse_cfg);
    assert_eq!(dse_warm.run.shards_resumed, shards);
    assert_eq!(dse_warm.run.recordings_simulated, 0);

    // A code change: every tier must miss, and recompute the same values.
    runner::override_fingerprint("feedfacefeedface");
    assert_ne!(runner::fingerprint(), original);

    let changed = engine(&dir);
    let recomputed: Vec<f64> = changed.cached("miss", "point", || vec![1.5, -2.0]);
    assert_eq!(recomputed, cold);
    let counts = changed.cache_counts();
    assert_eq!((counts.disk_hits, counts.computes), (0, 1), "result cache");
    assert_eq!(counts.disk_decode_errors, 0);

    let store = CkptStore::new(Some(warm_dir.clone()));
    assert_eq!(sampled(0, &store), first, "same code, same sampled result");
    assert_eq!(store.ckpt_hits(), 0, "checkpoints from other code loaded");
    assert!(store.ckpt_misses() > 0);
    assert!(
        store.warm_passes() > 0,
        "warm features from other code reused"
    );

    let dse_changed = dse::run_dse(&engine(&dir), &grid, &suite, &dse_cfg);
    assert_eq!(
        dse_changed.run.shards_resumed, 0,
        "journal from other code resumed"
    );
    assert_eq!(dse_changed.run.shards_computed, shards);
    assert!(
        dse_changed.run.recordings_simulated > 0,
        "recordings from other code reused"
    );
    assert_eq!(
        serde_json::to_string(&dse_changed.result).expect("json"),
        serde_json::to_string(&dse_cold.result).expect("json"),
    );

    let _ = std::fs::remove_dir_all(&dir);
}
