//! End-to-end benchmark of `fq serve`.
//!
//! ```text
//! fqbench --workload <trace_read|trace_publish|strategy_mix> --seed N
//!         --seconds S --trace <0|1> --fq <path to fq> --work <dir>
//! ```
//!
//! With `--trace 0` the workload runs against a real `fq serve` child
//! process over loopback and the end-to-end metrics are printed; with
//! `--trace 1` the same seeded request stream is replayed in-process
//! through the program's public calls, each wrapped in a span, and the
//! per-layer metrics are printed. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `fqbench/run.py` builds the program and this benchmark and calls it.

mod digest;
mod inputs;
mod json;
mod load;
mod server;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TraceRead,
    TracePublish,
    StrategyMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        [
            Workload::TraceRead,
            Workload::TracePublish,
            Workload::StrategyMix,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceRead => "trace_read",
            Workload::TracePublish => "trace_publish",
            Workload::StrategyMix => "strategy_mix",
        }
    }

    /// The query-latency percentile reported as `query_tail_ms`: the
    /// 99th where a run holds thousands of queries, the 95th on
    /// `trace_publish`, whose one reader completes a few hundred.
    pub fn tail(self) -> f64 {
        match self {
            Workload::TracePublish => 95.0,
            _ => 99.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fq: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        fq: value("--fq")?.into(),
        work: value("--work")?.into(),
    })
}

/// A metric entry of the result line; values keep every digit.
pub fn metric(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "metric {name} is {value}");
    format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#)
}

fn result_line(attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        failed == 0,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let seeds = inputs::SeedDir::open(&args.work, args.seed)?;
    let scratch = args.work.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let result = if args.trace {
        let t = traced::run(args.workload, &seeds, &scratch)?;
        for line in traced::report(&t) {
            println!("{line}");
        }
        let spans = args
            .work
            .join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
        t.write_spans(&spans)?;
        println!("spans: {} written to {}", t.spans.len(), spans.display());
        result_line(t.attempted, t.failed, &traced::metrics(&t))
    } else {
        let before = stats::host_probe_ms();
        let out = load::run(args.workload, &args.fq, &seeds, args.seconds, &scratch)?;
        println!(
            "host_probe_ms: {before:.1} before, {:.1} after (a fixed integer loop on one core)",
            stats::host_probe_ms()
        );
        let tail = args.workload.tail();
        for line in load::report(&out, tail) {
            println!("{line}");
        }
        let pct = |p| stats::percentile(&out.query_ms, p).ok_or("no query completed");
        let (p50, pt) = (pct(50.0)?, pct(tail)?);
        if !pt.supported() {
            println!(
                "WARNING: query_tail_ms is p{tail} of {} samples, {} beyond it",
                pt.n, pt.beyond
            );
        }
        let metrics = [
            metric("setup_s", stats::median(&out.setup_s), "s"),
            metric(
                "throughput_rps",
                out.requests as f64 / out.elapsed_s,
                "req/s",
            ),
            metric("query_p50_ms", p50.value, "ms"),
            metric("query_tail_ms", pt.value, "ms"),
            metric("peak_rss_mb", out.peak_rss_mb, "MB"),
        ];
        result_line(out.attempted, out.failed, &metrics)
    };
    std::fs::remove_dir_all(&scratch)?;
    Ok(result)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fqbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload: {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fqbench: {e}");
            ExitCode::from(1)
        }
    }
}
