//! Golden stdout of every distinct `serve` workload: the soak, the
//! cached and plan runs, the chaos seeds, the fleet and the exchange runs.
//! Each case runs the real binary and must print its checked-in summary
//! byte for byte. Summaries do not depend on the worker count, so each
//! workload is pinned once; CI runs this test at 1 and at 4 workers. The
//! Chrome timeline each run writes with `--trace` is gated too, by its
//! FNV-64 digest in `timelines.txt`. Beyond the bytes, [`content_problems`]
//! checks what each workload exists to show (cache lines, plan lines, the
//! device loss and its drain, conserved exchange bytes), both here and
//! when the goldens are rewritten.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo test -p hcj-bench --test serve_golden -- --ignored rewrite
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use hcj_sim::baseline::fnv64_hex;

/// `(golden file stem, serve arguments)`, one per distinct workload.
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

/// What each workload's stdout must show beyond its bytes, one message
/// per violation. `outputs` holds `(stem, stdout)` for every case.
fn content_problems(outputs: &[(&str, String)]) -> Vec<String> {
    let stdout = |stem: &str| -> &str {
        outputs.iter().find(|(s, _)| *s == stem).map_or("", |(_, out)| out.as_str())
    };
    let mut problems = Vec::new();
    let mut expect = |stem: &str, ok: bool, what: &str| {
        if !ok {
            problems.push(format!("{stem}: {what}"));
        }
    };
    expect("cached", stdout("cached").contains("cache hits / misses"), "prints cache lines");
    for stem in ["plan_chain", "plan_star"] {
        for line in ["plan requests", "plan ops executed", "intermediates pinned"] {
            expect(stem, stdout(stem).contains(line), &format!("prints `{line}`"));
        }
    }
    let fleet = stdout("fleet_chaos_25");
    expect(
        "fleet_chaos_25",
        fleet.contains("fleet devices             3 (1 lost)"),
        "loses a device",
    );
    expect(
        "fleet_chaos_25",
        fleet.contains("fleet drained / rerouted  2 / 2"),
        "drains 2 and reroutes 2",
    );
    for stem in ["exchange", "exchange_mix"] {
        let out = stdout(stem);
        expect(stem, out.contains("executed cross-device"), "runs cross-device joins");
        let conserved = out
            .lines()
            .find_map(|l| l.strip_prefix("exchange out / in"))
            .and_then(|bytes| bytes.split_once(" / "))
            .is_some_and(|(sent, received)| sent.trim() == received.trim());
        expect(stem, conserved, "shuffles as many exchange bytes out as in");
    }
    let off = stdout("exchange_off");
    expect(
        "exchange_off",
        !off.contains("cross-device") && !off.contains("exchange"),
        "prints no exchange line",
    );
    let below_header = |stem: &str| stdout(stem).lines().skip(1).collect::<Vec<_>>();
    expect(
        "fleet_chaos_0",
        below_header("fleet_chaos_0") == below_header("fleet_plain"),
        "matches fleet_plain below the header line",
    );
    problems
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
    let mut outputs = Vec::new();
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
        outputs.push((*stem, got));
    }
    let problems = content_problems(&outputs);
    assert!(problems.is_empty(), "serve output lost content:\n  {}", problems.join("\n  "));
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
    let mut outputs = Vec::new();
    for (stem, args) in CASES {
        let (stdout, digest) = serve(stem, args);
        digests.push_str(&format!("{stem} {digest}\n"));
        outputs.push((*stem, stdout));
    }
    let problems = content_problems(&outputs);
    assert!(
        problems.is_empty(),
        "refusing to pin output that lost content:\n  {}",
        problems.join("\n  ")
    );
    for (stem, stdout) in &outputs {
        std::fs::write(golden_path(&format!("{stem}.txt")), stdout).unwrap();
    }
    std::fs::write(golden_path("timelines.txt"), digests).unwrap();
    eprintln!("rewrote {}", golden_path("").display());
}
