//! Golden stdout of every distinct `serve` workload CI runs: the soak,
//! the cached and plan smokes, the chaos seeds, the fleet and the
//! exchange runs. Each case runs the real binary and must print its
//! checked-in summary byte for byte. Summaries do not depend on
//! `--jobs`, so each workload is pinned once. The Chrome timeline each
//! run writes with `--trace` is gated too, by its FNV-64 digest in
//! `timelines.txt`.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo test -p hcj-bench --test serve_golden -- --ignored rewrite
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use hcj_sim::baseline::fnv64_hex;

/// `(golden file stem, serve arguments)`, one per distinct CI workload.
const CASES: &[(&str, &str)] = &[
    ("soak", "--quick --seed 7"),
    ("cached", "--quick --seed 7 --cache --popularity-skew 1.0"),
    ("plan_chain", "--quick --plan chain"),
    ("plan_star", "--quick --plan star --cache --popularity-skew 1.0"),
    ("chaos_7", "--quick --chaos 7 --deadline-ms 50"),
    ("chaos_11", "--quick --chaos 11 --deadline-ms 50"),
    ("chaos_23", "--quick --chaos 23 --deadline-ms 50"),
    ("fleet_chaos_25", "--quick --devices 3 --chaos 25 --cache --popularity-skew 0.9"),
    ("fleet_chaos_0", "--quick --devices 3 --chaos 0"),
    ("fleet_plain", "--quick --devices 3"),
    ("exchange", "--quick --devices 3 --exchange --capacity-div 65536"),
    ("exchange_mix", "--quick --exchange --device-mix gtx1080,v100,gtx1080 --capacity-div 65536"),
    ("exchange_off", "--quick --devices 3 --capacity-div 65536"),
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/serve")).join(name)
}

/// Run `serve` with `args`, writing its trace under a temporary directory
/// of its own. Returns stdout and the FNV-64 digest of the trace; a
/// failing exit panics with the stderr attached.
fn serve(stem: &str, args: &str) -> (String, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_golden").join(stem);
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args.split_whitespace())
        .arg("--trace")
        .arg(&dir)
        .output()
        .expect("the serve binary runs");
    assert!(
        out.status.success(),
        "serve {args} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_dir(&dir)
        .expect("serve --trace writes its directory")
        .map(|entry| entry.expect("readable trace directory").path())
        .find(|path| path.to_string_lossy().ends_with(".trace.json"))
        .expect("serve --trace writes a timeline");
    let timeline = std::fs::read_to_string(trace).expect("readable timeline");
    (String::from_utf8(out.stdout).expect("serve prints UTF-8"), fnv64_hex(&timeline))
}

/// `timelines.txt`: one `<stem> <digest>` line per case.
fn timeline_digests() -> String {
    let path = golden_path("timelines.txt");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing timeline digests {}: {e}", path.display()))
}

/// The first line where `got` and `want` differ, for the failure message.
fn first_difference(got: &str, want: &str) -> String {
    match got.lines().zip(want.lines()).position(|(a, b)| a != b) {
        Some(i) => format!(
            "line {}:\n    got:    {:?}\n    golden: {:?}",
            i + 1,
            got.lines().nth(i).unwrap_or(""),
            want.lines().nth(i).unwrap_or("")
        ),
        None => "line counts differ".into(),
    }
}

#[test]
fn serve_stdout_and_timelines_match_the_goldens() {
    let digests = timeline_digests();
    let mut drifted: Vec<String> = Vec::new();
    for (stem, args) in CASES {
        let path = golden_path(&format!("{stem}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        let (got, digest) = serve(stem, args);
        if got != want {
            drifted.push(format!("serve {args} ({stem}.txt), {}", first_difference(&got, &want)));
        }
        let pinned = digests.lines().find_map(|l| l.strip_prefix(&format!("{stem} ")));
        if pinned != Some(digest.as_str()) {
            drifted.push(format!("serve {args}: timeline digest {digest}, pinned {pinned:?}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "serve output drifted from tests/golden/serve/:\n  {}\nif intentional, regenerate \
         with:\n  cargo test -p hcj-bench --test serve_golden -- --ignored rewrite",
        drifted.join("\n  ")
    );
}

/// Not a test: rewrites every golden in place (`-- --ignored rewrite`).
#[test]
#[ignore = "golden rewriter, run explicitly"]
fn rewrite() {
    let mut digests = String::new();
    for (stem, args) in CASES {
        let (stdout, digest) = serve(stem, args);
        std::fs::write(golden_path(&format!("{stem}.txt")), stdout).unwrap();
        digests.push_str(&format!("{stem} {digest}\n"));
    }
    std::fs::write(golden_path("timelines.txt"), digests).unwrap();
    eprintln!("rewrote {}", golden_path("").display());
}
