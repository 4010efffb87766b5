//! What the result records about the machine, and the process's memory.

use std::process::Command;
use std::sync::OnceLock;

/// A field of `/proc/self/status` in kB (`key` includes the colon, e.g.
/// `"VmRSS:"`), or `None` where procfs is unavailable.
pub fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Resident set size in kB from `/proc/self/statm`, which is several
/// times cheaper to read than `status` — it is sampled every epoch of a
/// traced horizon. Its page count is converted with the page size found
/// once by comparing it against `VmRSS`.
pub fn rss_kb() -> Option<f64> {
    static PAGE_KB: OnceLock<Option<f64>> = OnceLock::new();
    let page_kb = (*PAGE_KB.get_or_init(|| {
        let pages = resident_pages()?;
        let kb = status_kb("VmRSS:")?;
        // Page sizes are powers of two; rounding absorbs the pages that
        // changed between the two reads.
        Some(2f64.powi((kb / pages).log2().round() as i32))
    }))?;
    Some(resident_pages()? * page_kb)
}

fn resident_pages() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    statm.split_whitespace().nth(1)?.parse().ok()
}

/// Output of a command's first line, or `"unknown"` when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The host record printed with every result: CPU count and model,
/// compiler, source revision.
pub fn record() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", first_line("rustc", &["--version"])),
        ("git_head", first_line("git", &["rev-parse", "HEAD"])),
    ]
}
