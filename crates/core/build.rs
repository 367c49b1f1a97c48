//! Computes the code fingerprint that prefixes every persistent cache key
//! (see `runner::SOURCE_FINGERPRINT`).
//!
//! The fingerprint is a 64-bit FNV-1a hash over the workspace's program
//! sources: every file under `crates/*/src` and `vendor/*/src`, each
//! package's `Cargo.toml` and `build.rs`, and the root `Cargo.toml` and
//! `Cargo.lock`, visited in sorted path order. Tests, benches, docs and
//! data outside those trees do not take part, so editing them leaves
//! the caches valid; any edit that can change a computed number
//! changes the fingerprint and so misses every stored entry.

use std::path::{Path, PathBuf};

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .ancestors()
        .nth(2)
        .expect("crates/core sits two levels below the workspace root")
        .to_path_buf();

    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    let mut watched = files.clone();
    for group in ["crates", "vendor"] {
        let Ok(packages) = std::fs::read_dir(root.join(group)) else {
            continue;
        };
        for package in packages.flatten().map(|e| e.path()) {
            for name in ["Cargo.toml", "build.rs"] {
                let file = package.join(name);
                if file.is_file() {
                    files.push(file.clone());
                    watched.push(file);
                }
            }
            let src = package.join("src");
            if src.is_dir() {
                walk(&src, &mut files);
                watched.push(src);
            }
        }
    }

    let mut keyed: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter(|f| f.is_file())
        .map(|f| {
            let rel = f
                .strip_prefix(&root)
                .expect("walked under the root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            (rel, f)
        })
        .collect();
    keyed.sort();

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (rel, path) in &keyed {
        let bytes = std::fs::read(path).expect("source file readable");
        fnv(&mut h, rel.as_bytes());
        fnv(&mut h, &[0]);
        fnv(&mut h, &(bytes.len() as u64).to_le_bytes());
        fnv(&mut h, &bytes);
    }
    println!("cargo:rustc-env=P10_SOURCE_FINGERPRINT={h:016x}");
    for path in watched {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}
