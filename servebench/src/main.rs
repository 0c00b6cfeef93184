//! Served-path benchmark of the hybrid JCF–FMCAD system.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload design-cycle --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload against `cad_net::Server` over `hybrid::Service`
//! on loopback, checks every answer and the final state, prints each
//! metric with its unit, and ends with one JSON line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics from a traced run replayed layer by layer, and writes its
//! spans to `.bench_out/`. See `servebench/README.md`.

mod drive;
mod gen;
mod replay;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use drive::{finish, gate, measure, replay_fingerprint, setup, BenchResult, Phase};
use gen::{Inputs, Workload};
use stats::{cpu_seconds, median, peak_rss_mb, tail, Metric};

/// Set-ups timed per run: at least `SETUPS`, and more while their
/// wall time totals under `SETUP_BUDGET_S`, up to `MAX_SETUPS`.
/// `setup_s` is the median of the CPU seconds (all threads) each took:
/// it counts every bit of work moved into set-up, and unlike wall time
/// it does not swing with other tenants' load on a shared machine.
const SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> BenchResult<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

/// Checks the client-side tally: a wrong answer ends the run.
fn checked(phase: &Phase) -> BenchResult<()> {
    match &phase.tally.wrong {
        Some(why) => Err(format!("wrong answer: {why}")),
        None => Ok(()),
    }
}

/// The cost of one set-up: wall seconds and process CPU seconds.
#[derive(Clone, Copy)]
struct SetupCost {
    wall: f64,
    cpu: f64,
}

/// One set-up, timed.
fn timed_setup(inputs: &Inputs) -> BenchResult<(drive::Served, SetupCost)> {
    let cpu = cpu_seconds();
    let start = Instant::now();
    let served = setup(inputs)?;
    let cost = SetupCost {
        wall: start.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - cpu,
    };
    Ok((served, cost))
}

/// One measured phase on a fresh set-up, gated on the final state.
/// Returns the phase, the set-up cost, the peak RSS after the phase and
/// the finished server state.
fn served_phase(
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> BenchResult<(Phase, SetupCost, f64, drive::Finished)> {
    let (mut served, cost) = timed_setup(inputs)?;
    let phase = measure(&mut served, inputs, seconds, trace, epoch)?;
    let rss = peak_rss_mb();
    checked(&phase)?;
    let fin = finish(served)?;
    Ok((phase, cost, rss, fin))
}

fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> BenchResult<String> {
    let mut body = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    ))
}

fn end_to_end(args: &Args, inputs: &Inputs) -> BenchResult<(u64, u64, Vec<Metric>)> {
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let mut tally = drive::Tally::default();
    let mut measured_s = 0.0;
    let mut rss: f64 = 0.0;
    let mut net;
    let mut phases = 0;
    // Closed loops run once for the whole time; a catalog build is a
    // fixed stream, so whole builds repeat while another fits.
    loop {
        let (phase, setup_s, peak, fin) = served_phase(inputs, args.seconds, false, epoch)?;
        gate(&fin.fingerprint, &replay_fingerprint(&fin.journal)?)?;
        setups.push(setup_s);
        rss = rss.max(peak);
        measured_s += phase.seconds;
        net = Some(phase.net.clone());
        tally.absorb(phase.tally);
        phases += 1;
        if inputs.workload != Workload::CatalogBuild
            || measured_s + measured_s / f64::from(phases) > args.seconds
        {
            break;
        }
    }
    while setups.len() < SETUPS
        || (setups.iter().map(|c: &SetupCost| c.wall).sum::<f64>() < SETUP_BUDGET_S
            && setups.len() < MAX_SETUPS)
    {
        let (mut served, cost) = timed_setup(inputs)?;
        drive::close(&mut served);
        setups.push(cost);
    }
    let net = net.expect("one phase ran");
    let wall: Vec<f64> = setups.iter().map(|c| c.wall).collect();
    let cpu: Vec<f64> = setups.iter().map(|c| c.cpu).collect();
    println!(
        "{} set-ups: median {:.4} s CPU, {:.4} s wall (wall min {:.4} max {:.4})",
        setups.len(),
        median(&cpu),
        median(&wall),
        wall.iter().copied().fold(f64::INFINITY, f64::min),
        wall.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "workload {} seed {} workload_digest {} phases {phases} measured {:.3} s",
        inputs.workload.name(),
        inputs.seed,
        inputs.digest(),
        measured_s
    );
    println!(
        "server: {} frames in, {} out, {} busy, {} timeouts, {} protocol errors",
        net.frames_in, net.frames_out, net.busy, net.timeouts, net.protocol_errors
    );
    for (class, lat) in [("read", &tally.read_ns), ("write", &tally.write_ns)] {
        let mut v = lat.clone();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            v.get(((v.len() as f64 * q) as usize).min(v.len().saturating_sub(1)))
                .map_or(0.0, |x| x / 1e3)
        };
        println!(
            "{class} latency us: p50 {:.0} p90 {:.0} p95 {:.0} p99 {:.0} p99.9 {:.0} max {:.0}",
            at(0.5),
            at(0.9),
            at(0.95),
            at(0.99),
            at(0.999),
            at(1.0)
        );
    }
    let read_tail = tail(&tally.read_ns);
    let write_tail = tail(&tally.write_ns);
    for (class, t) in [("read", read_tail), ("write", write_tail)] {
        println!(
            "{class}_tail_us is p{:.2} of {} samples (p{} or the highest percentile with ten samples beyond it)",
            t.percentile,
            t.samples,
            stats::TAIL_CAP
        );
    }
    let metrics = vec![
        ("setup_s".to_owned(), median(&cpu), "s"),
        (
            "ops_per_s".to_owned(),
            tally.ok as f64 / measured_s.max(1e-9),
            "1/s",
        ),
        ("read_p50_us".to_owned(), median(&tally.read_ns) / 1e3, "us"),
        ("read_tail_us".to_owned(), read_tail.value / 1e3, "us"),
        (
            "write_p50_us".to_owned(),
            median(&tally.write_ns) / 1e3,
            "us",
        ),
        ("write_tail_us".to_owned(), write_tail.value / 1e3, "us"),
        (
            "ok_share".to_owned(),
            (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
            "share",
        ),
        ("peak_rss_mb".to_owned(), rss, "MB"),
    ];
    Ok((tally.attempted, tally.failed, metrics))
}

fn per_layer(args: &Args, inputs: &Inputs) -> BenchResult<(u64, u64, Vec<Metric>)> {
    let epoch = Instant::now();
    let (untraced, _, _, fin) = served_phase(inputs, args.seconds, false, epoch)?;
    gate(&fin.fingerprint, &replay_fingerprint(&fin.journal)?)?;
    drop(fin);
    let (traced, _, _, fin) = served_phase(inputs, args.seconds, true, epoch)?;
    let mut layers = replay::layers(inputs, &fin, &traced, untraced.ops_per_s(), epoch)?;
    println!(
        "workload {} seed {} workload_digest {} traced phase {:.3} s, {} requests",
        inputs.workload.name(),
        inputs.seed,
        inputs.digest(),
        traced.seconds,
        traced.tally.ok
    );
    for note in &layers.notes {
        println!("{note}");
    }
    let mut spans = traced.spans;
    spans.absorb(std::mem::replace(
        &mut layers.spans,
        stats::Spans::new(epoch, false),
    ));
    let path = PathBuf::from(".bench_out").join(format!(
        "spans-{}-seed{}.tsv",
        inputs.workload.name(),
        inputs.seed
    ));
    let count = spans.len();
    spans
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {count} spans to {}", path.display());
    Ok((traced.tally.attempted, traced.tally.failed, layers.metrics))
}

fn run() -> BenchResult<String> {
    let args = parse_args()?;
    let inputs = Inputs::generate(args.workload, args.seed);
    let (attempted, failed, metrics) = if args.trace {
        per_layer(&args, &inputs)?
    } else {
        end_to_end(&args, &inputs)?
    };
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.3} {unit}");
    }
    result_line(attempted, failed, &metrics)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
