//! `/proc` readers with no libc dependency: process CPU time, resident-set
//! size and its high-water mark, and the host fingerprint the trajectory
//! file records. Parsing is split from reading so it can be unit-tested
//! on fixed text.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ` is
/// 100 on every Linux ABI userspace can see (the kernel rescales to it
/// whatever `CONFIG_HZ` is), which is what lets us skip `sysconf`.
const USER_HZ: f64 = 100.0;

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line, in ticks.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB`-valued field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`, in KiB.
pub fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU this process (all threads) has consumed, in ms.
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat");
    ticks as f64 * 1000.0 / USER_HZ
}

fn status_mib(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib =
        parse_status_kib(&status, field).unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kib as f64 / 1024.0
}

/// Current resident-set size in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// Resident-set high-water mark in MiB.
pub fn rss_peak_mib() -> f64 {
    status_mib("VmHWM")
}

/// Reset the resident-set high-water mark to the current RSS, so the peak
/// reported afterwards belongs to the measured phase and not to set-up.
/// Returns false where the kernel refuses (no `CONFIG_PROC_PAGE_MONITOR`,
/// read-only `/proc`); the caller then samples `VmRSS` itself.
pub fn reset_rss_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// First `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<&str> {
    cpuinfo.lines().find_map(|line| {
        let value = line.strip_prefix("model name")?;
        Some(value.trim_start().strip_prefix(':')?.trim())
    })
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s).map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    731 269 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_fields_are_matched_whole() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(10240));
        // A prefix of another field's name must not match it.
        assert_eq!(parse_status_kib(status, "Vm"), None);
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn cpu_model_is_the_first_one() {
        let info = "processor\t: 0\nmodel name\t: Fast CPU @ 2GHz\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(info), Some("Fast CPU @ 2GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn live_readers_agree_with_each_other() {
        let before = process_cpu_ms();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ms() >= before);
        assert!(rss_mib() > 0.0);
        assert!(rss_peak_mib() >= rss_mib() * 0.5);
        if reset_rss_peak() {
            // After a reset the mark restarts from the current RSS; allow
            // slack for pages touched between the two reads.
            assert!(rss_peak_mib() <= rss_mib() * 1.5 + 8.0);
        }
    }
}
