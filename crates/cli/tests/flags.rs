//! Every documented flag spelling reaches its command, and an argument
//! a command does not read is an error — through the real binary, so
//! what is checked is what a shell sees on stdout and in the exit code.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dna(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dna")).args(args).output().expect("spawn dna")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "dna failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// A small generated circuit written with the short `-o` spelling.
fn circuit(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dna_cli_flags");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("{tag}-{}.ckt", std::process::id()));
    let path_s = path.to_str().unwrap();
    let out = dna(&["generate", "--gates", "15", "--couplings", "12", "--seed", "3", "-o", path_s]);
    assert_eq!(stdout(&out), "", "-o must write the file, not stdout");
    assert!(path.exists(), "-o wrote no file");
    path
}

#[test]
fn short_o_writes_the_netlist_file() {
    let path = circuit("o");
    let text = std::fs::read_to_string(&path).unwrap();
    let printed = stdout(&dna(&["generate", "--gates", "15", "--couplings", "12", "--seed", "3"]));
    assert_eq!(text, printed, "-o writes what stdout would have printed");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn short_k_sets_the_set_size() {
    let path = circuit("k");
    let ckt = path.to_str().unwrap();
    let couplings = |s: &str| -> Vec<String> {
        s.lines().filter(|l| l.starts_with("  cc")).map(str::to_owned).collect()
    };

    let out = stdout(&dna(&["topk", ckt, "--mode", "add", "-k", "2"]));
    assert!(out.starts_with("top-2 addition set"), "{out}");
    assert_eq!(couplings(&out).len(), 2, "{out}");
    let long = stdout(&dna(&["topk", ckt, "--mode", "add", "--k", "2"]));
    assert_eq!(couplings(&out), couplings(&long), "-k and --k pick the same set");

    let out = stdout(&dna(&["whatif", ckt, "-k", "1"]));
    assert!(out.starts_with("top-1 elimination set"), "{out}");

    let out = stdout(&dna(&["paths", ckt, "-k", "3"]));
    assert_eq!(out.lines().filter(|l| l.starts_with('#')).count(), 3, "{out}");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn unread_arguments_are_errors() {
    let path = circuit("bad");
    let ckt = path.to_str().unwrap();
    for (args, want) in [
        (vec!["topk", ckt, "--frobnicate"], "unrecognised option `--frobnicate`"),
        (vec!["topk", ckt, "-x", "2"], "unrecognised option `--x`"),
        (vec!["topk", ckt, "2"], "unexpected argument `2`"),
        (vec!["analyze", ckt, "--seed", "1"], "unrecognised option `--seed`"),
    ] {
        let out = dna(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{args:?}: expected `{want}` in {err}");
    }
    std::fs::remove_file(path).unwrap();
}
