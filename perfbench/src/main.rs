//! perfbench — the benchmark of the shielded-processors simulator.
//!
//! ```text
//! perfbench --workload <paper_figures|study_sweep|modern_faults> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats one pass of the workload until `--seconds` have
//! passed and reports the end-to-end metrics as medians over the passes.
//! `--trace 1` runs the per-layer probes, then alternates untraced and
//! traced passes until `--seconds` have passed since the start, and
//! reports the per-layer metrics (at least one pass each way). The
//! last line of standard output is the JSON result; everything above it is
//! for people. See `README.md` beside this file.

mod checks;
mod probes;
mod reference;
mod report;
mod stats;
mod trace;
mod workloads;

use checks::Checks;
use probes::Values;
use reference::Reference;
use sp_experiments::faultmatrix::MatrixPath;
use stats::median;
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use trace::Tracer;
use workloads::{run_pass, Inputs, Pass, Workload};

const USAGE: &str = "usage: perfbench --workload <paper_figures|study_sweep|modern_faults> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 51;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Stop at the first timed call and print the wall clock (used by the
    /// set-up measurement, which runs the binary again).
    setup_only: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

fn epoch_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs_f64()
}

/// Start this binary `SETUPS` times in set-up-only mode and time each from
/// spawn to its first timed call.
fn measure_setup(raw: &[String]) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    (0..SETUPS)
        .map(|_| {
            let spawned = epoch_s();
            let out = Command::new(&exe)
                .args(raw)
                .arg("--setup-only")
                .output()
                .map_err(|e| format!("set-up run: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match (out.status.success(), text.trim().parse::<f64>()) {
                (true, Ok(first_call)) => Ok(first_call - spawned),
                _ => Err(format!(
                    "set-up run failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let setups = if args.trace || args.setup_only {
        Vec::new()
    } else {
        match measure_setup(&raw) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed);
    let reference = reference::lookup(args.workload, args.seed);
    if args.setup_only {
        println!("{}", epoch_s());
        return ExitCode::SUCCESS;
    }

    let (checks, metrics) = if args.trace {
        traced_run(&args, &inputs, reference)
    } else {
        timed_run(&args, &inputs, reference, &setups)
    };
    for f in &checks.failures {
        println!("FAILED: {f}");
    }
    for m in &checks.band_misses {
        println!("BAND MISS: {m}");
    }
    println!(
        "failure_share {:.4} ({} of {} checks failed)",
        checks.failed() as f64 / checks.attempted.max(1) as f64,
        checks.failed(),
        checks.attempted
    );
    println!(
        "band_miss_share {:.4} ({} of {} band checks missed)",
        checks.band_misses.len() as f64 / checks.bands.max(1) as f64,
        checks.band_misses.len(),
        checks.bands
    );
    println!(
        "{}",
        report::result_line(checks.attempted, checks.failed(), &metrics)
    );
    ExitCode::SUCCESS
}

/// Absorb every pass's checks, and check that all passes agree exactly
/// with each other and with the stored reference for this seed.
fn verify(args: &Args, passes: &mut [Pass], reference: Option<Reference>) -> Checks {
    let mut checks = Checks::default();
    let (events, digest) = (passes[0].events, passes[0].digest);
    println!(
        "reference: {}",
        reference::line(args.workload, args.seed, events, digest)
    );
    for (i, p) in passes.iter_mut().enumerate() {
        checks.absorb(std::mem::take(&mut p.checks));
        checks.check((p.events, p.digest) == (events, digest), || {
            format!(
                "pass {i}: {} events / digest {:016x} differ from pass 0",
                p.events, p.digest
            )
        });
    }
    if let Some(r) = reference {
        checks.check(r == Reference { events, digest }, || {
            format!(
                "seed {}: {events} events / digest {digest:016x}, reference has {} / {:016x}",
                args.seed, r.events, r.digest
            )
        });
    }
    // Seed 0 runs the committed configs, for which the repository claims
    // every band: there a band miss is a failure.
    if args.seed == 0 {
        checks.gate_bands();
    }
    checks
}

type Metric = (String, f64, &'static str);

fn timed_run(
    args: &Args,
    inputs: &Inputs,
    reference: Option<Reference>,
    setups: &[f64],
) -> (Checks, Vec<Metric>) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut passes = Vec::new();
    let mut rss_kb = 0;
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        passes.push(run_pass(inputs, &mut Tracer::off()));
        walls.push(t.elapsed().as_secs_f64());
        if passes.len() == 1 {
            // Peak RSS of one pass: later passes only add allocator
            // retention, which would tie the figure to the pass count.
            rss_kb = sp_experiments::sweep::peak_rss_kb().expect("procfs VmHWM");
        }
    }
    let checks = verify(args, &mut passes, reference);
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("pass walls (s): {}", listed.join(" "));
    let per_s = |count: u64| median(&walls.iter().map(|w| count as f64 / w).collect::<Vec<_>>());
    let p = &passes[0];
    let values = [
        ("setup_s", median(setups), setups.len()),
        ("wall_s", median(&walls), walls.len()),
        ("events_per_s", per_s(p.events), walls.len()),
        ("cells_per_s", per_s(p.cells), walls.len()),
        ("peak_rss_mb", rss_kb as f64 / 1024.0, 1),
        ("paper_error_pct", p.paper_error_pct, 1),
    ];
    let mut metrics = Vec::new();
    for ((name, value, n), (listed, unit)) in values.into_iter().zip(report::END_TO_END) {
        assert_eq!(name, listed, "END_TO_END order");
        println!("{name:<16} median {value:>14.6} {unit:<4} (n={n})");
        metrics.push((name.to_string(), value, unit));
    }
    (checks, metrics)
}

fn traced_run(args: &Args, inputs: &Inputs, reference: Option<Reference>) -> (Checks, Vec<Metric>) {
    let start = Instant::now();
    let mut values = Values::new();
    let mut tracer = Tracer::new(true);
    tracer.open("bench", "probes");
    probes::simcore(&mut tracer, &mut values);
    probes::kernel(&mut tracer, &mut values);
    probes::fork(&mut tracer, &mut values);
    probes::histogram(&mut tracer, &mut values);
    probes::fleet(&mut tracer, &mut values);
    if args.workload != Workload::PaperFigures {
        // This workload runs no figure: time the seven figure runners at
        // their floor sizes so their per-call cost is tracked here too.
        let floor = Inputs::Paper(Box::new(workloads::PaperInputs::floor()));
        run_pass(&floor, &mut tracer);
    }
    tracer.close();
    let probe_spans = tracer.spans().len();

    // Untraced and traced passes, alternating, for the rest of the run.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut passes = Vec::new();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        passes.push(run_pass(inputs, &mut Tracer::off()));
        untraced.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        tracer.open("bench", "pass");
        passes.push(run_pass(inputs, &mut tracer));
        tracer.close();
        traced.push(t.elapsed().as_secs_f64());
    }
    let band_misses = passes[0].checks.band_misses.len();
    let checks = verify(args, &mut passes, reference);

    let figure_spans = if args.workload == Workload::PaperFigures {
        &tracer.spans()[probe_spans..]
    } else {
        &tracer.spans()[..probe_spans]
    };
    for fig in 1..=7 {
        let id = format!("fig{fig}");
        let s: Vec<f64> = figure_spans
            .iter()
            .filter(|s| s.name == id)
            .map(trace::Span::seconds)
            .collect();
        values.insert(format!("experiments.figure_s.{id}"), median(&s));
    }

    let p = &passes[0];
    let wall = median(&untraced);
    let explained = explained_seconds(inputs, p, &values);
    values.insert("trace.coverage".into(), explained / wall);
    values.insert(
        "trace.overhead_pct".into(),
        (median(&traced) / wall - 1.0) * 100.0,
    );
    values.insert("kernel.events".into(), p.events as f64);
    values.insert("fleet.jobs".into(), p.fleet_jobs as f64);
    values.insert("experiments.sweep.warm_hits".into(), p.warm_hits as f64);
    values.insert("experiments.sweep.warm_misses".into(), p.warm_misses as f64);
    values.insert("experiments.sweep.sample_yield".into(), p.sample_yield());
    values.insert("experiments.band_misses".into(), band_misses as f64);
    println!(
        "trace: {} passes each way, untraced median {wall:.3} s, probes explain {explained:.3} s",
        untraced.len()
    );
    write_trace(args, &tracer);

    let metrics: Vec<Metric> = report::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = *values
                .get(&name)
                .unwrap_or_else(|| panic!("no value for {name}"));
            println!("{name:<44} {value:>16.6} {unit}");
            (name, value, unit)
        })
        .collect();
    (checks, metrics)
}

/// The kernel probe whose ns/event prices a part of a pass.
fn probe_for(part: &str) -> &'static str {
    match part {
        "fig1" | "fig4" | "fig5" | "vanilla" => "vanilla",
        "fig7" | "rcim_shielded" => "rcim_shielded",
        "modern_storm" => "modern_storm",
        _ => "redhawk_shielded",
    }
}

/// Host seconds of one pass that the per-layer probes account for: every
/// event at its probe's ns/event, every latency sample recorded into a
/// histogram, and — for the study engines — each cell's fork steps, merge
/// and dispatch and each warm-up's build and checkpoint, spread over the
/// pass's workers. `trace.coverage` is this over the pass's wall time.
fn explained_seconds(inputs: &Inputs, pass: &Pass, v: &Values) -> f64 {
    let get = |name: &str| v[name];
    let mut ns: f64 = pass
        .events_by_part
        .iter()
        .map(|(part, events)| {
            *events as f64 * get(&format!("kernel.ns_per_event.{}", probe_for(part)))
        })
        .sum();
    ns += pass.samples as f64 * get("metrics.histogram.record_ns");
    let fork_us = get("kernel.build_us")
        + get("core.shield_apply_us")
        + get("kernel.restore_us")
        + get("kernel.reseed_us");
    let warm_us = get("kernel.build_us") + get("kernel.checkpoint_us");
    let cells = pass.cells as f64;
    match inputs {
        Inputs::Paper(_) => {}
        Inputs::Sweep(cfg) => {
            ns += cells * (fork_us + get("metrics.histogram.merge_us")) * 1e3;
            ns += cells * get("fleet.dispatch_ns");
            ns += cfg.groups.len() as f64 * warm_us * 1e3;
        }
        // Every (variant, path) group is warmed once and forked per cell.
        Inputs::Modern(_) => {
            let groups = sp_experiments::ModernVariant::ALL.len() * MatrixPath::ALL.len();
            ns += (cells * fork_us + groups as f64 * warm_us) * 1e3;
        }
    }
    ns / 1e9 / inputs.workers() as f64
}

/// Write the spans, one JSON object a line, under the build directory.
fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-trace");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("note: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload study_sweep --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::StudySweep, 7, 20.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload paper_figures --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload paper_figures --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload paper_figures --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload paper_figures --seed 1 --seconds 1").is_err());
    }

    #[test]
    fn a_pass_that_disagrees_with_the_reference_fails() {
        let a = args("--workload paper_figures --seed 0 --seconds 1 --trace 0").expect("valid");
        let mut passes = vec![Pass {
            events: 1,
            digest: 2,
            ..Pass::default()
        }];
        let good = verify(
            &a,
            &mut passes,
            Some(Reference {
                events: 1,
                digest: 2,
            }),
        );
        assert_eq!(good.failed(), 0);
        let bad = verify(
            &a,
            &mut passes,
            Some(Reference {
                events: 1,
                digest: 3,
            }),
        );
        assert_eq!(bad.failed(), 1);
    }
}
