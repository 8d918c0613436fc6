//! The run header: everything about the machine, the build and the
//! invocation that two result files must agree on to be comparable.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Value;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(model name, has avx2)` from `/proc/cpuinfo`.
fn cpu() -> (String, bool) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let avx2 = field("flags").is_some_and(|f| f.split(' ').any(|flag| flag == "avx2"));
    (
        field("model name").unwrap_or_else(|| "unknown".into()),
        avx2,
    )
}

/// Civil UTC timestamp `YYYY-MM-DDThh:mm:ssZ` of `secs` since the epoch
/// (days-to-civil after Howard Hinnant's algorithm).
fn iso_utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    let rem = secs % 86_400;
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Collects the header for one invocation. `seconds` is the timed budget
/// (the rep count follows from it and is recorded with the metrics).
pub fn collect(seed: u64, seconds: f64, smoke: bool) -> Value {
    // Outside a git checkout (the driver's copy is not one) the revision
    // is honestly unknown; the rest of the header still identifies the run.
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = rev.is_some()
        && command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    let (cpu_model, avx2) = cpu();
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Value::obj([
        ("git_rev", rev.map_or(Value::Null, Value::Str)),
        ("git_dirty", Value::Bool(dirty)),
        (
            "rustc",
            command_line("rustc", &["--version"]).map_or(Value::Null, Value::Str),
        ),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Value::Str(cpu_model)),
        ("cpu_avx2", Value::Bool(avx2)),
        (
            "kernel_dispatch",
            Value::Str(format!(
                "{:?}",
                cwc_repro::gillespie::KernelDispatch::Auto.resolve()
            )),
        ),
        (
            "force_scalar_kernels",
            std::env::var("CWC_FORCE_SCALAR_KERNELS").map_or(Value::Null, Value::Str),
        ),
        (
            "sim_workers",
            Value::Num(crate::workloads::SIM_WORKERS as f64),
        ),
        (
            "stat_workers",
            Value::Num(crate::workloads::STAT_WORKERS as f64),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(smoke)),
        ("date", Value::Str(iso_utc(now))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_dates_are_civil_utc() {
        assert_eq!(iso_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso_utc(1_790_553_599), "2026-09-27T23:59:59Z");
    }

    #[test]
    fn header_names_the_machine_and_the_invocation() {
        let h = collect(7, 8.0, true);
        assert_eq!(h.get("seed").and_then(Value::as_f64), Some(7.0));
        assert!(h.get("nproc").and_then(Value::as_f64).unwrap() >= 1.0);
        for key in ["cpu_model", "kernel_dispatch", "date"] {
            assert!(
                !h.get(key).and_then(Value::as_str).unwrap().is_empty(),
                "{key}"
            );
        }
    }
}
