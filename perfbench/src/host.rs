//! Process and disk readings: peak RSS, CPU time, bytes on disk.

use std::path::Path;

/// Process peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, which
/// Linux fixes at 100 for user space).
const TICKS_PER_S: f64 = 100.0;

/// Process user + system CPU seconds so far (`/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// CPU seconds the hypervisor gave other guests while this one wanted
/// to run (`steal` in `/proc/stat`), summed over all CPUs: a reading of
/// how noisy the host was during a phase.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn readings_are_plausible() {
        assert!(super::peak_rss_mib() > 1.0);
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 50 {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        assert!(x > 0 && super::cpu_seconds() > 0.0);
    }
}
