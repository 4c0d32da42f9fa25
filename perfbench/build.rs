//! Stamps the harness with a hash of the workspace sources it was built
//! against, so every result names the code it measured even in a checkout
//! that carries no version-control metadata.

use std::fs;
use std::path::{Path, PathBuf};

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let mut files = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        collect(&root.join(dir), &mut files);
        println!("cargo:rerun-if-changed=../{dir}");
    }
    println!("cargo:rerun-if-changed=../Cargo.toml");
    files.sort();

    // FNV-1a over each file's repository-relative path and contents.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        feed(rel.to_string_lossy().as_bytes());
        feed(&fs::read(file).unwrap_or_default());
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_HASH={hash:016x}");
}
