//! `perf_ledger` — the repo's benchmark. Five workloads over both
//! substrates (the threaded Zipper runtime and the `hpcsim` DES),
//! end-to-end metrics with tracing off, per-layer metrics from one traced
//! run. See `README.md` beside this package for every name.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and ends with the one-line JSON result the benchmark
//!   contract (`BENCHMARK.json`) asks for.
//! * Without `--workload` it writes a ledger: the `--verify` pass, then
//!   one child process per workload and trace mode (so `peak_rss_mib` is
//!   that workload's own), every metric as a table and as JSON (`--out`).
//!   `--aa` runs the suite twice and fails when two medians of one
//!   end-to-end metric differ by more than its bound.

mod adapter;
mod layers;
mod spans;
mod stats;
mod traced;
mod workloads;

use stats::{json_num, json_str, row_json, table, Group, Row};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::{RunResult, Scale, Workload, DEFAULT_SEED};

/// `run_seconds` of `BENCHMARK.json`, and the ledger's default.
const RUN_SECONDS: u64 = 12;

/// Where the `DiskFs` rows may create files: inside the working
/// directory, which the contract makes the checkout.
const SCRATCH: &str = ".perf_ledger_tmp";

/// End-to-end metrics: name, unit, better, and the share of the parent's
/// median by which a later change may worsen it. One bound serves all five
/// workloads, so the noisiest sets it: ten-seed spreads on the 2-core
/// sandbox reach 7 % (`t2s_s` on `des_baselines_13056`, `peak_rss_mib` on
/// `tcp_loopback`), and a bound is kept at three times the spread.
const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("t2s_s", "s", "lower", 0.25),
    ("blocks_per_s", "1/s", "higher", 0.25),
    ("payload_mib_per_s", "MiB/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
];

/// Measured and left out, so nobody adds it back unawares.
const EXCLUDED: [(&str, &str); 1] = [(
    "des_zipper_13056",
    "the Zipper model at 13,056 cores ran > 13 min at 4.4 GB RSS without finishing (its EOS broadcast is O(P*Q)); 2,352 cores is the largest point that fits a run",
)];

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: Option<String>,
    aa: bool,
    verify: bool,
    emit_rows: bool,
    rss_probe: bool,
    print_benchmark_json: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        out: None,
        aa: false,
        verify: false,
        emit_rows: false,
        rss_probe: false,
        print_benchmark_json: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => o.out = Some(value()?.clone()),
            "--smoke" => o.scale = Scale::Smoke,
            "--aa" => o.aa = true,
            "--verify" => o.verify = true,
            "--emit-rows" => o.emit_rows = true,
            "--rss-probe" => o.rss_probe = true,
            "--print-benchmark-json" => o.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Non-zero when an output check failed.
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_problems(r: &RunResult) {
    for p in &r.problems {
        println!("FAILED: {p}");
    }
}

/// A child of this executable for workload `w`, with this run's seed
/// and scale.
fn child(w: Workload, o: &Options) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &o.seed.to_string()]);
    if o.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// `peak_rss_mib`: the `VmHWM` of a fresh child process that generates
/// the input and runs verified iterations under `MALLOC_ARENA_MAX=1`.
/// With glibc's default per-thread arenas the resident set of the threaded
/// workloads grows ~15 MiB per iteration and differs ~10 % between runs of
/// one commit; with one arena it is the program's own demand and repeats
/// within 1 %. Timed iterations keep the default allocator. A DES run is
/// single-threaded: its resident set neither grows nor varies (0.05 % on
/// `des_zipper_2352`), so this process's own `VmHWM` serves and the run
/// is spared an 8 s child.
fn probe_rss_mib(w: Workload, o: &Options) -> f64 {
    if w.is_des() {
        return workloads::peak_rss_mib();
    }
    let out = child(w, o)
        .and_then(|mut cmd| {
            // `output` waits for the child to end.
            cmd.arg("--rss-probe")
                .env("MALLOC_ARENA_MAX", "1")
                .output()
                .map_err(|e| e.to_string())
        })
        .unwrap_or_else(|e| panic!("cannot run the memory probe child: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("@rss\t")?.parse().ok())
        .filter(|_| out.status.success())
        .unwrap_or_else(|| panic!("memory probe child failed ({}): {stdout}", out.status))
}

/// One workload in this process; the last line is the contract's result.
fn run_one(w: Workload, o: &Options) -> ExitCode {
    if o.rss_probe {
        let (result, rss) = workloads::rss_probe(w, o.seed, o.scale);
        print_problems(&result);
        println!("@rss\t{rss}");
        return exit_code(result.failed == 0);
    }
    println!(
        "perf_ledger workload={} seed={} seconds={} trace={} scale={} nproc={}",
        w.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.scale.name(),
        nproc()
    );
    let (result, group) = if o.trace {
        let r = traced::run_traced(w, o.seed, o.scale, Path::new(SCRATCH));
        let _ = std::fs::remove_dir(SCRATCH);
        (r, Group::PerLayer)
    } else {
        (
            workloads::run_end_to_end(w, o.seed, o.seconds, o.scale, || probe_rss_mib(w, o)),
            Group::EndToEnd,
        )
    };
    print!("{}", table(&result.rows));
    print_problems(&result);
    if o.emit_rows {
        for r in &result.rows {
            println!("{}", r.to_wire());
        }
        println!("@tally\t{}\t{}", result.attempted, result.failed);
    }
    println!(
        "{}",
        stats::result_line(result.attempted, result.failed, &result.rows, group)
    );
    exit_code(result.failed == 0)
}

/// Rows and tally of one workload, gathered from its two children.
struct WorkloadLedger {
    workload: Workload,
    attempted: u64,
    failed: u64,
    rows: Vec<Row>,
}

/// Run one child of `ledger`'s workload and add its rows and tally.
fn run_child(ledger: &mut WorkloadLedger, trace: bool, o: &Options) -> Result<(), String> {
    let w = ledger.workload;
    let mut cmd = child(w, o)?;
    cmd.arg("--emit-rows")
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    // `output` waits for the child and collects what it printed.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let tally: Option<(u64, u64)> = stdout.lines().find_map(|l| {
        let mut f = l.strip_prefix("@tally\t")?.split('\t');
        Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
    });
    for l in stdout.lines().filter(|l| l.starts_with("FAILED: ")) {
        println!("{}: {l}", w.name());
    }
    match tally {
        Some((attempted, failed)) if out.status.success() || failed > 0 => {
            ledger
                .rows
                .extend(stdout.lines().filter_map(Row::from_wire));
            ledger.attempted += attempted;
            ledger.failed += failed;
            Ok(())
        }
        _ => Err(format!(
            "{} (trace {}) ended with {} and no tally\n{}",
            w.name(),
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

fn run_suite(o: &Options) -> Result<Vec<WorkloadLedger>, String> {
    let mut suite = Vec::new();
    for w in Workload::ALL {
        let mut ledger = WorkloadLedger {
            workload: w,
            attempted: 0,
            failed: 0,
            rows: Vec::new(),
        };
        for trace in [false, true] {
            run_child(&mut ledger, trace, o)?;
        }
        println!(
            "\n== {} == attempted {} failed {}\n{}",
            w.name(),
            ledger.attempted,
            ledger.failed,
            table(&ledger.rows)
        );
        suite.push(ledger);
    }
    Ok(suite)
}

fn suite_json(suite: &[WorkloadLedger]) -> String {
    let workloads: Vec<String> = suite
        .iter()
        .map(|l| {
            let rows: Vec<String> = l
                .rows
                .iter()
                .map(|r| format!("      {}", row_json(r)))
                .collect();
            format!(
                "    {{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"rows\": [\n{}\n    ]}}",
                json_str(l.workload.name()),
                l.attempted,
                l.failed,
                rows.join(",\n")
            )
        })
        .collect();
    format!("[\n{}\n  ]", workloads.join(",\n"))
}

/// The ledger file: run parameters, what was excluded, and every set of
/// runs (one, or two under `--aa`).
fn ledger_json(o: &Options, sets: &[Vec<WorkloadLedger>]) -> String {
    let excluded: Vec<String> = EXCLUDED
        .iter()
        .map(|(name, reason)| {
            format!(
                "{{\"name\": {}, \"reason\": {}}}",
                json_str(name),
                json_str(reason)
            )
        })
        .collect();
    let sets: Vec<String> = sets.iter().map(|s| suite_json(s)).collect();
    format!(
        "{{\n  \"benchmark\": \"perf_ledger\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"scale\": {},\n  \"nproc\": {},\n  \"excluded\": [{}],\n  \"sets\": [{}]\n}}\n",
        o.seed,
        json_num(o.seconds),
        json_str(o.scale.name()),
        nproc(),
        excluded.join(", "),
        sets.join(", ")
    )
}

/// Compare two sets of runs of one commit; returns the pairings whose
/// medians differ by more than the metric's bound.
fn aa_failures(a: &[WorkloadLedger], b: &[WorkloadLedger]) -> Vec<String> {
    let mut failures = Vec::new();
    println!(
        "\n== A/A ==\n{:<24} {:<18} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (la, lb) in a.iter().zip(b) {
        for (name, _, _, bound) in END_TO_END {
            let median =
                |l: &WorkloadLedger| l.rows.iter().find(|r| r.name == name).map(Row::value);
            let (Some(x), Some(y)) = (median(la), median(lb)) else {
                failures.push(format!("{}: {name} missing from a set", la.workload.name()));
                continue;
            };
            let diff = (y - x).abs() / x.abs();
            println!(
                "{:<24} {:<18} {:>14.6} {:>14.6} {:>7.2}% {:>5.0}%",
                la.workload.name(),
                name,
                x,
                y,
                diff * 100.0,
                bound * 100.0
            );
            if diff > bound {
                failures.push(format!(
                    "{}: {name} differs by {:.1}% (bound {:.0}%)",
                    la.workload.name(),
                    diff * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    failures
}

/// The whole ledger: verify pass, then the suite (twice under `--aa`).
fn run_ledger(o: &Options) -> Result<bool, String> {
    println!(
        "perf_ledger ledger seed={} seconds={} scale={} nproc={}",
        o.seed,
        o.seconds,
        o.scale.name(),
        nproc()
    );
    let verified = workloads::verify();
    print!("== verify ==\n{}", table(&verified.rows));
    print_problems(&verified);
    let mut ok = verified.failed == 0;

    let mut sets = vec![run_suite(o)?];
    if o.aa {
        sets.push(run_suite(o)?);
        let failures = aa_failures(&sets[0], &sets[1]);
        for f in &failures {
            println!("A/A FAILED: {f}");
        }
        ok &= failures.is_empty();
    }
    ok &= sets.iter().flatten().all(|l| l.failed == 0);
    for (name, reason) in EXCLUDED {
        println!("excluded: {name}: {reason}");
    }
    if let Some(path) = &o.out {
        std::fs::write(path, ledger_json(o, &sets))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("ledger written to {path}");
    }
    Ok(ok)
}

fn better_of(unit: &str) -> &'static str {
    match unit {
        "GiB/s" | "MiB/s" | "MLUPS" | "1/s" => "higher",
        _ => "lower",
    }
}

/// `BENCHMARK.json`, generated so that it cannot drift from the code: the
/// per-layer names are those a traced smoke run emits.
fn benchmark_json() -> String {
    let traced = traced::run_traced(
        Workload::MeshStream,
        DEFAULT_SEED,
        Scale::Smoke,
        Path::new(SCRATCH),
    );
    let _ = std::fs::remove_dir(SCRATCH);
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perf_ledger/Cargo.toml\", \"--\"],"
    );
    let _ = writeln!(out, "  \"paths\": [\"perf_ledger\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", workloads.join(",\n"));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better),
                json_num(*bound)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", e2e.join(",\n"));
    let layers: Vec<String> = traced
        .rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&r.name),
                json_str(&r.unit),
                json_str(better_of(&r.unit))
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", layers.join(",\n"));
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if o.print_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(w) = o.workload {
        return run_one(w, &o);
    }
    if o.verify {
        let r = workloads::verify();
        print!("{}", table(&r.rows));
        print_problems(&r);
        return exit_code(r.failed == 0);
    }
    match run_ledger(&o) {
        Ok(ok) => exit_code(ok),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::validate_json;

    #[test]
    fn contract_arguments_parse() {
        let args: Vec<String> = "--workload tcp_loopback --seed 9 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.workload, Some(Workload::TcpLoopback));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.scale),
            (9, 10.0, true, Scale::Full)
        );
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--frobnicate".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let generated = benchmark_json();
        validate_json(&generated).unwrap();
        assert!(generated.len() < 64 << 10);
        let committed = std::fs::read_to_string("../BENCHMARK.json")
            .expect("BENCHMARK.json at the repository root (tests run from the package directory)");
        assert_eq!(
            committed, generated,
            "regenerate with `cargo run --release -- --print-benchmark-json > ../BENCHMARK.json`"
        );
    }

    #[test]
    fn ledger_json_is_well_formed_and_aa_flags_a_moved_median() {
        let o = parse_args(&[]).unwrap();
        let set = |t2s: f64| {
            vec![WorkloadLedger {
                workload: Workload::MeshStream,
                attempted: 10,
                failed: 0,
                rows: END_TO_END
                    .iter()
                    .map(|(name, unit, ..)| {
                        let v = if *name == "t2s_s" { t2s } else { 1.0 };
                        Row::new(name, unit, Group::EndToEnd, &[v])
                    })
                    .collect(),
            }]
        };
        let (a, b, c) = (set(1.0), set(1.05), set(1.5));
        assert!(aa_failures(&a, &b).is_empty());
        let failures = aa_failures(&a, &c);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("t2s_s"));
        validate_json(&ledger_json(&o, &[a, c])).unwrap();
    }
}
