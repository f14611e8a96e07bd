//! The transcript oracle: the default suite run at the default seed
//! reproduces `experiments_output.txt` byte for byte. Every pure
//! speed-up claims exactly this, so `cargo test` checks it.

use std::process::Command;

#[test]
fn the_default_run_reproduces_the_transcript() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--jobs", "2"])
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "experiments --jobs 2 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_output.txt");
    let want = std::fs::read_to_string(path).expect("read experiments_output.txt");
    let got = String::from_utf8_lossy(&out.stdout);
    if got == want {
        return;
    }
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    for line in 1.. {
        let (g, w) = (got_lines.next(), want_lines.next());
        assert_eq!(
            g, w,
            "experiments --jobs 2 differs from experiments_output.txt at line {line}"
        );
        if g.is_none() {
            break;
        }
    }
    panic!("experiments --jobs 2 differs from experiments_output.txt in its line endings");
}
