//! The host fingerprint printed with every result, and peak memory.

use zskip_nn::simd::KernelTier;

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was built from, read from `.git` without
/// running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string())))
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON line: cores, the dispatched kernel tier, every tier this host
/// can run, the git rev and the build profile.
pub fn fingerprint(dispatched: KernelTier) -> String {
    let tiers: Vec<String> = KernelTier::supported().iter().map(|t| format!("\"{}\"", t.name())).collect();
    format!(
        "{{\"host\":{{\"nproc\":{},\"kernel_tier\":\"{}\",\"reachable_tiers\":[{}],\"git_rev\":\"{}\",\"profile\":\"{}\"}}}}",
        nproc(),
        dispatched.name(),
        tiers.join(","),
        git_rev(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )
}

/// The host's cumulative CPU ticks from `/proc/stat`: (steal, total).
/// Steal is time the hypervisor ran something else on this machine's
/// virtual CPUs; its share over a run explains much of the run-to-run
/// noise on a shared virtual machine.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.strip_prefix("cpu ")?.split_whitespace().map(|f| f.parse().ok()).collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 =
        status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}
