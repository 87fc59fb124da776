//! Golden digests of `repro_all`'s persisted artifacts.
//!
//! Runs the real binary at `--reps 2 --seed 42` into a fresh directory
//! and pins an FNV-1a digest of each of the 18 CSV/JSON files it writes
//! (Figures 6–11, the latency percentiles, Tables 6–8). Any change to a
//! figure's definition, seeds, replication protocol, or to either the
//! Bench or the Sim column shows up here as a digest mismatch naming
//! the file. When an artifact legitimately changes, rerun the binary and
//! update the digest below.

use std::path::Path;
use std::process::Command;

/// `(file name, FNV-1a 64 of its bytes)` at `--reps 2 --seed 42`.
const EXPECTED: [(&str, u64); 18] = [
    ("fig06_o2_base_size_20c.csv", 0x755e_7110_dd85_00e1),
    ("fig06_o2_base_size_20c.json", 0xee31_c086_a668_2084),
    ("fig07_o2_base_size_50c.csv", 0xabdf_30c4_c5b1_2eaf),
    ("fig07_o2_base_size_50c.json", 0xbe12_e416_a73a_41d6),
    ("fig08_o2_cache.csv", 0xb8d5_454c_9e87_1f81),
    ("fig08_o2_cache.json", 0xd702_d4b2_4ecc_7db4),
    ("fig09_texas_base_size_20c.csv", 0x5b6b_f066_4f9c_375c),
    ("fig09_texas_base_size_20c.json", 0x6778_a96a_08ff_21c5),
    ("fig10_texas_base_size_50c.csv", 0x9840_4577_f755_1b4a),
    ("fig10_texas_base_size_50c.json", 0x9131_e15b_a180_926b),
    ("fig11_texas_memory.csv", 0x4be8_83b5_9790_4c30),
    ("fig11_texas_memory.json", 0x2dda_cabd_3321_05af),
    ("latency_percentiles.csv", 0xe5d2_f850_d4d2_c55d),
    ("latency_percentiles.json", 0xa563_3729_69a2_deaa),
    ("tab06_07_dstc_mid.csv", 0x96ea_965c_e88d_5ee7),
    ("tab06_07_dstc_mid.json", 0xf07c_b2c0_f8d2_1c20),
    ("tab08_dstc_large.csv", 0xcecc_0a99_8a0d_f75d),
    ("tab08_dstc_large.json", 0x0b10_568e_8374_5b5a),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn digest(dir: &Path, name: &str) -> u64 {
    let path = dir.join(name);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    fnv1a(&bytes)
}

#[test]
fn repro_all_artifacts_are_pinned() {
    let out = std::env::temp_dir().join(format!("voodb-repro-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(["--reps", "2", "--seed", "42", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("repro_all starts");
    assert!(status.success(), "repro_all exited with {status}");

    let mut written: Vec<String> = std::fs::read_dir(&out)
        .expect("artifact directory exists")
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .collect();
    written.sort();
    let expected_names: Vec<&str> = EXPECTED.iter().map(|(name, _)| *name).collect();
    assert_eq!(written, expected_names, "repro_all's artifact set changed");

    let mismatches: Vec<String> = EXPECTED
        .iter()
        .filter_map(|&(name, want)| {
            let got = digest(&out, name);
            (got != want).then(|| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&out);
    assert!(
        mismatches.is_empty(),
        "artifacts drifted:\n{}",
        mismatches.join("\n")
    );
}
