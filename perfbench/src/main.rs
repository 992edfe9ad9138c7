//! Benchmark of the RobustScaler serving stack.
//!
//! ```text
//! perfbench --workload <loop_diurnal|loop_bursty|fleet_paging> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is built from `--seed` and measured for about
//! `--seconds`. With `--trace 0` the run is untraced and reports the
//! end-to-end metrics; with `--trace 1` it records spans around the calls
//! into each layer and reports the per-layer metrics derived from them.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. A
//! failed correctness check prints the failure on standard error and exits
//! with code 1, without a result line.

mod fleet;
mod loops;
mod report;
mod spans;
mod storage;

use report::{Metric, Outcome};
use std::path::Path;

/// End-to-end metrics every workload reports (untraced run).
const END_TO_END: [&str; 7] = [
    "hit_rate",
    "relative_cost",
    "sim_hours_per_s",
    "round_p50_ms",
    "tenant_rounds_per_s",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics (traced run). A layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("scaler.plan_tick_p50_ms", "ms"),
    ("scaler.plan_ticks", "count"),
    ("scaler.plan_share", "fraction"),
    ("scaler.refit_tick_p50_ms", "ms"),
    ("scaler.refit_ticks", "count"),
    ("scaler.drift_refits", "count"),
    ("scaler.refit_share", "fraction"),
    ("simulator.self_s", "s"),
    ("ingest.push_ns_per_arrival", "ns"),
    ("ingest.enqueue_ms_per_round", "ms"),
    ("sharing.cache_hit_ratio", "fraction"),
    ("sharing.shared_ratio", "fraction"),
    ("sharing.dedup_ratio", "fraction"),
    ("fleet.planned_per_round", "count"),
    ("fleet.refits_per_round", "count"),
    ("fleet.page_ins_per_round", "count"),
    ("fleet.page_outs_per_round", "count"),
    ("fleet.hot_tenants_avg", "count"),
    ("fleet.round_p95_ms", "ms"),
    ("checkpoint.incremental_ms", "ms"),
    ("checkpoint.full_ms", "ms"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.reused_shard_ratio", "fraction"),
    ("checkpoint.page_bytes", "bytes"),
    ("parallel.cpu_per_wall", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("process.cpu_s", "s"),
    ("process.wall_s", "s"),
    ("process.peak_rss_mb", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// An independent sub-seed for input `salt` of run seed `seed` (the
/// SplitMix64 finalizer).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// User + system CPU seconds of this process so far (all threads),
/// through the C library `getrusage`.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a writable `struct rusage` with the 64-bit Linux
    // layout (two timevals, then fourteen longs); RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail for this process");
    u.utime.sec as f64 + u.utime.usec as f64 / 1e6 + u.stime.sec as f64 + u.stime.usec as f64 / 1e6
}

/// Peak resident set size of this process image in MiB (`VmHWM`), NaN
/// when unavailable. `getrusage`'s `ru_maxrss` would not do: it carries
/// over the peak of the process that exec'd this one (`cargo run`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kib = status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))?;
            kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The file-system type holding `path` (through the C library `statfs`).
pub fn fs_type(path: &std::path::Path) -> String {
    extern "C" {
        fn statfs(path: *const std::ffi::c_char, buf: *mut [i64; 16]) -> i32;
    }
    let Ok(cpath) = std::ffi::CString::new(path.as_os_str().as_encoded_bytes()) else {
        return "unknown".to_string();
    };
    let mut buf = [0i64; 16];
    // SAFETY: `cpath` is NUL-terminated and `buf` (128 bytes) is larger
    // than Linux's `struct statfs` (120 bytes on 64-bit), whose first
    // field is the file-system magic number.
    if unsafe { statfs(cpath.as_ptr(), &mut buf) } != 0 {
        return "unknown".to_string();
    }
    match buf[0] {
        0xEF53 => "ext4".to_string(),
        0x0102_1994 => "tmpfs".to_string(),
        0x794C_7630 => "overlayfs".to_string(),
        0x5846_5342 => "xfs".to_string(),
        0x9123_683E => "btrfs".to_string(),
        magic => format!("0x{magic:x}"),
    }
}

/// Directory (inside the working directory) for span files and the
/// fleet's checkpoints.
const WORK_DIR: &str = ".bench_work";

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let wall = std::time::Instant::now();
    let spans_path = Path::new(WORK_DIR)
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut out: Outcome = match (args.workload.as_str(), args.trace) {
        ("loop_diurnal", false) => loops::run_untraced(&loops::DIURNAL, args.seed, args.seconds),
        ("loop_diurnal", true) => loops::run_traced(&loops::DIURNAL, args.seed, &spans_path),
        ("loop_bursty", false) => loops::run_untraced(&loops::BURSTY, args.seed, args.seconds),
        ("loop_bursty", true) => loops::run_traced(&loops::BURSTY, args.seed, &spans_path),
        ("fleet_paging", traced) => fleet::run(
            args.seed,
            args.seconds,
            traced,
            Path::new(WORK_DIR),
            &spans_path,
        ),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let peak = peak_rss_mib();
    if args.trace {
        let cpu = cpu_seconds();
        let wall_s = wall.elapsed().as_secs_f64();
        out.layer("process.cpu_s", cpu, "s");
        out.layer("process.wall_s", wall_s, "s");
        out.layer("process.peak_rss_mb", peak, "MiB");
    } else {
        out.e2e("peak_rss_mb", peak, "MiB");
    }

    println!(
        "perfbench {} seed {} ({}traced, {:.1} s)",
        args.workload,
        args.seed,
        if args.trace { "" } else { "un" },
        wall.elapsed().as_secs_f64()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let metrics: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                out.per_layer
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    // A layer this workload does not reach.
                    .unwrap_or(Metric {
                        name,
                        value: 0.0,
                        unit,
                    })
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                out.end_to_end
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| panic!("workload did not measure {name}"))
            })
            .collect()
    };
    for m in &metrics {
        println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            out.check(false, format!("{} is not a finite number", m.name));
        }
    }
    println!("  attempted {} failed {}", out.attempted, out.failed);
    if !out.check_failures.is_empty() {
        for failure in &out.check_failures {
            eprintln!("perfbench: CHECK FAILED: {failure}");
        }
        std::process::exit(1);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}
