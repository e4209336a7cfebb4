//! Host-side measurement helpers: `/proc` readers, order statistics, the
//! output digest, and the seeded generator for benchmark-owned inputs.
//!
//! Everything here is std-only (no `libc`): CPU time comes from
//! `/proc/self/stat`, peak RSS from `/proc/self/status`.

use std::time::Instant;

/// Kernel `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It
/// is 100 on every Linux ABI this benchmark targets; `sysconf` would need
/// `libc`, which the offline build does not have.
const USER_HZ: f64 = 100.0;

/// Process CPU time so far (all threads, including exited ones), seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

/// Parse `utime`/`stime` (fields 14 and 15) out of a `/proc/<pid>/stat`
/// line. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / USER_HZ,
        sys_s: stime as f64 / USER_HZ,
    })
}

/// Parse `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`, MiB.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The first CPU of `Cpus_allowed_list` in `/proc/<pid>/status`
/// (`"0-1"`, `"2,4-7"`, …).
pub fn parse_status_first_cpu(status: &str) -> Option<u32> {
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    let list = line.split_ascii_whitespace().nth(1)?;
    list.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// This process's CPU times. Panics when `/proc` is unreadable: a host
/// without it cannot run the benchmark at all.
pub fn cpu_times() -> CpuTimes {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu(&stat).expect("utime/stime in /proc/self/stat")
}

/// This process's peak resident set size, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_hwm_mib(&status).expect("VmHWM in /proc/self/status")
}

/// Confine this process to the first CPU it may run on; returns that CPU.
/// Call before any thread is spawned, so every later thread inherits it.
///
/// The program under test is a lock-step simulator: at most a few of its
/// hundreds of threads are runnable at any instant. Spread over two virtual
/// CPUs, every hand-off between threads is a cross-CPU wake-up, which in a
/// VM costs a hypervisor exit: measured on the 2-core reference box, the
/// same pass then takes 3–4 times as long and varies by 15 % from run to
/// run with the host's load, against 2–3 % on one CPU. One CPU is therefore
/// the configuration in which a change under test can be seen at all.
///
/// Without `libc` the affinity call goes through `taskset` (util-linux).
/// `None` — the run continues on every CPU, and says so — when `taskset`
/// is missing or refuses.
pub fn pin_to_one_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let cpu = parse_status_first_cpu(&status)?;
    let pinned = std::process::Command::new("taskset")
        .args([
            "-c",
            "-p",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    pinned.then_some(cpu)
}

/// Host cost of one region: wall, user and sys seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCost {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl HostCost {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Run `f` and measure what it cost the host.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, HostCost) {
    let c0 = cpu_times();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let c1 = cpu_times();
    (
        out,
        HostCost {
            wall_s,
            user_s: c1.user_s - c0.user_s,
            sys_s: c1.sys_s - c0.sys_s,
        },
    )
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest rank of the `pct`-th percentile in a sample of `n`, 1-based.
/// Percentiles are taken to a tenth of a percent, in integers, so that
/// p99.9 of 10,000 is rank 9,990 whatever `99.9 / 100.0` rounds to.
fn rank(pct: f64, n: usize) -> usize {
    let permille = (pct * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The `pct`-th percentile of `sorted` by nearest rank (`pct` in 0..=100).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    sorted[rank(pct, sorted.len()) - 1]
}

/// The percentile ladder tail latencies are reported on.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that still has at least ten samples
/// beyond it in a sample of `n` (the choosing-metrics rule): p90 at
/// n = 100, p99 at n = 1,000. `None` below twenty samples, where not even
/// the median qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && n - rank(p, n) >= 10)
}

/// FNV-1a, 64-bit: the digest every output check folds into. Stable across
/// runs, hosts and toolchains (unlike `DefaultHasher`, which is unspecified).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// splitmix64 over `(seed, stream, index)`: the deterministic draw behind
/// every benchmark-owned input, uniform in `[0, 1)`.
pub fn unit_draw(seed: u64, stream: u64, index: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        // Field 2 is "(a b) c)": spaces and a stray ')' inside the name.
        let line = "1234 (a b) c) S 1 1 1 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 3 0 100 0 0";
        let t = parse_stat_cpu(line).unwrap();
        assert_eq!(t.user_s, 2.5);
        assert_eq!(t.sys_s, 0.75);
        assert!(parse_stat_cpu("garbage").is_none());
        assert!(parse_stat_cpu("1 (x) S 1 2").is_none());
    }

    #[test]
    fn status_parsing_finds_hwm_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(20.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn status_parsing_finds_the_first_allowed_cpu() {
        let first =
            |list: &str| parse_status_first_cpu(&format!("Name:\tx\nCpus_allowed_list:\t{list}\n"));
        assert_eq!(first("0-1"), Some(0));
        assert_eq!(first("3"), Some(3));
        assert_eq!(first("12,14-15"), Some(12));
        assert_eq!(parse_status_first_cpu("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_work_on_this_host() {
        let c = cpu_times();
        assert!(c.user_s >= 0.0 && c.sys_s >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(1_200), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_averages_the_two_middle_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // FNV-1a reference vectors.
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
        let (mut ab, mut ba) = (Fnv::default(), Fnv::default());
        ab.u64(1);
        ab.u64(2);
        ba.u64(2);
        ba.u64(1);
        assert_ne!(ab, ba);
    }

    #[test]
    fn unit_draws_are_deterministic_and_in_range() {
        for i in 0..1000 {
            let u = unit_draw(7, 3, i);
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, unit_draw(7, 3, i));
        }
        assert_ne!(unit_draw(7, 3, 0), unit_draw(8, 3, 0));
        assert_ne!(unit_draw(7, 3, 0), unit_draw(7, 4, 0));
    }
}
