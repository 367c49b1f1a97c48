//! Golden outputs of `figures all --ops 2000`, text and `--json`.
//!
//! Each form runs cold on an empty cache directory and then warm on the
//! same directory; both must match the committed golden byte for byte.
//! The JSON form also proves that every cached `f64` survives the cache
//! codec. The warm run must compute nothing: its result-cache misses are
//! zero, and its simulation work is exactly what `apex-speedup` (the one
//! experiment that measures host time, so is never cached) does alone.
//!
//! Regenerate after an intended output change (and say why in
//! CHANGES.md):
//! `cargo build --release && f="target/release/figures all --ops 2000 --no-cache --no-ledger" && $f > goldens/all_ops2000.txt && $f --json > goldens/all_ops2000.json`

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("p10sim-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Runs `figures` with `args` on the cache directory `cache`, writing
/// its obs summary to `obs`; returns stdout.
fn figures(args: &[&str], cache: &Path, obs: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .args(["--jobs", "2", "--no-ledger", "--obs-json"])
        .arg(obs)
        .env("P10SIM_CACHE_DIR", cache)
        .env_remove("P10SIM_CKPT_DIR")
        .env_remove("P10SIM_SAMPLING")
        .env_remove("P10SIM_TRACE")
        .env_remove("P10SIM_OBS_JSON")
        .env_remove("P10SIM_TRACE_ARENA")
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "figures {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn counter(obs: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(obs).expect("obs json written");
    let summary: p10_obs::Summary = serde_json::from_str(&text).expect("obs json parses");
    summary
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

fn assert_matches_golden(actual: &str, golden: &str, what: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../goldens")
        .join(golden);
    let expected = std::fs::read_to_string(&path).expect("golden file");
    if actual == expected {
        return;
    }
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "{what} differs from goldens/{golden} at line {}:\n  got:      {:?}\n  expected: {:?}",
        line + 1,
        actual.lines().nth(line),
        expected.lines().nth(line)
    );
}

/// Counters that grow with simulation and trace-synthesis work.
const WORK: [&str; 4] = [
    "sim.runs",
    "sim.observed_live_cycles",
    "sim.observed_span_cycles",
    "trace.arena.misses",
];

fn check(form: &str, extra: &[&str], golden: &str) {
    let dir = scratch(form);
    let cache = dir.join("cache");
    let mut args = vec!["all", "--ops", "2000"];
    args.extend_from_slice(extra);

    let cold = figures(&args, &cache, &dir.join("cold.json"));
    assert_matches_golden(&cold, golden, &format!("cold {form} run"));

    let warm_obs = dir.join("warm.json");
    let warm = figures(&args, &cache, &warm_obs);
    assert_matches_golden(&warm, golden, &format!("warm {form} run"));
    assert_eq!(counter(&warm_obs, "cache.computes"), 0, "warm run computed");
    assert_eq!(counter(&warm_obs, "cache.disk_decode_errors"), 0);

    let apex_obs = dir.join("apex.json");
    figures(
        &["apex-speedup", "--ops", "2000", "--no-cache"],
        &cache,
        &apex_obs,
    );
    for name in WORK {
        assert_eq!(
            counter(&warm_obs, name),
            counter(&apex_obs, name),
            "warm {form} run: {name} must come from apex-speedup alone"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_text_matches_golden_cold_and_warm() {
    check("text", &[], "all_ops2000.txt");
}

#[test]
fn all_json_matches_golden_cold_and_warm() {
    check("json", &["--json"], "all_ops2000.json");
}
