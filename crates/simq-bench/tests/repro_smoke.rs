//! Runs the real `repro` binary at its reduced sizes so the paper
//! reproduction cannot rot unnoticed: every section must print, and the
//! assertions built into `fig8` / `fig9` (the identity transformation
//! changes no node access) must hold for the process to exit 0.

use std::process::Command;

const SECTIONS: [&str; 12] = [
    "fig8", "fig9", "fig10", "fig11", "fig12", "table1", "warp", "ex2", "abl-k", "abl-rep",
    "abl-tree", "frame",
];

#[test]
fn repro_quick_runs_every_section() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("quick")
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "repro quick exited with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    for section in SECTIONS {
        assert!(
            stdout.contains(&format!("=== {section}: ")),
            "section {section} missing from:\n{stdout}"
        );
    }
}
