//! The artifact bins' command line: an unknown argument, a removed flag or
//! a value that does not parse is a usage error (exit 2) before any run.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    let out = Command::new(bin).args(args).output().expect("the bin runs");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} wrote {:?}",
        out.stdout
    );
    out.status.code()
}

#[test]
fn removed_and_unknown_flags_exit_2() {
    let hash = "0x66cc06e4f4d26b1a";
    let cases: [(&str, &[&str]); 6] = [
        (env!("CARGO_BIN_EXE_cityscale"), &["--expect-hash-1x", hash]),
        (env!("CARGO_BIN_EXE_cityscale"), &["--profile-allocs"]),
        (env!("CARGO_BIN_EXE_mesh"), &["--expect-hash-1x", hash]),
        (env!("CARGO_BIN_EXE_sched"), &["--expect-hash", hash]),
        (env!("CARGO_BIN_EXE_workload"), &["--bogus"]),
        (
            env!("CARGO_BIN_EXE_cityscale"),
            &["--quick", "--repeat", "0"],
        ),
    ];
    for (bin, args) in cases {
        assert_eq!(exit_code(bin, args), Some(2), "{bin} {args:?}");
    }
}

#[test]
fn bad_values_exit_2() {
    let cases: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_mesh"), &["--shards", "1,x"]),
        (
            env!("CARGO_BIN_EXE_mesh"),
            &["--shards", "2", "--threads", "4"],
        ),
        (env!("CARGO_BIN_EXE_workload"), &["--out"]),
        (env!("CARGO_BIN_EXE_cityscale"), &["--scales", ""]),
    ];
    for (bin, args) in cases {
        assert_eq!(exit_code(bin, args), Some(2), "{bin} {args:?}");
    }
}
