//! What the benchmark reads from the host: resident memory, process CPU
//! time, load, CPU count and the filesystem a directory lives on; and the
//! one thing it asks of it, to stay on one CPU.

use std::path::Path;
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_PAGESIZE: i32 = 30;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this thread, and every thread it starts from now on, to the
/// CPU it is running on, and returns that CPU's number.
pub fn confine_to_current_cpu() -> usize {
    // SAFETY: `sched_getcpu` takes no argument and touches no memory.
    let cpu = unsafe { sched_getcpu() };
    assert!(cpu >= 0, "sched_getcpu failed");
    let cpu = cpu as usize;
    let mut mask = [0u64; 16];
    assert!(cpu < 64 * mask.len(), "CPU {cpu} is beyond the mask");
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable bit set of the size passed with it; pid 0
    // names the calling thread; the call writes nothing of ours.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
    cpu
}

/// CPU time (user + system) consumed so far by every thread of this
/// process, exited ones included, in nanoseconds.
///
/// Read from the process CPU clock, not from `/proc/self/stat`: that file
/// counts in 10 ms ticks, which quantises a round of under a second to
/// more than one percent.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout the
    // 64-bit Linux ABI defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn page_size() -> u64 {
    // SAFETY: `sysconf` takes a plain integer and touches no memory of ours.
    let size = unsafe { sysconf(SC_PAGESIZE) };
    assert!(size > 0, "sysconf(_SC_PAGESIZE) failed");
    size as u64
}

/// Resident pages: the second field of `/proc/self/statm`.
pub fn parse_statm_resident_pages(statm: &str) -> Option<u64> {
    statm.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Resident set size of this process in bytes.
pub fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("/proc/self/statm");
    parse_statm_resident_pages(&statm).expect("statm has a resident field") * page_size()
}

/// The one-minute load average: the first field of `/proc/loadavg`.
pub fn parse_loadavg1(loadavg: &str) -> Option<f64> {
    loadavg.split_ascii_whitespace().next()?.parse().ok()
}

pub fn loadavg1() -> f64 {
    let text = std::fs::read_to_string("/proc/loadavg").expect("/proc/loadavg");
    parse_loadavg1(&text).expect("loadavg has a first field")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU seconds every process of this machine has been given so far, with
/// the time the hypervisor kept from it: the first line of `/proc/stat`
/// without its idle and I/O-wait fields, in clock ticks of a hundredth of
/// a second.
pub fn parse_stat_busy_s(stat: &str) -> Option<f64> {
    let mut fields = stat.lines().next()?.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal
    let ticks: Vec<u64> = fields.take(8).map_while(|f| f.parse().ok()).collect();
    (ticks.len() == 8).then(|| (ticks.iter().sum::<u64>() - ticks[3] - ticks[4]) as f64 / 100.0)
}

/// How many CPUs' worth of time went to others while this process ran:
/// what `/proc/stat` counted as busy or stolen since `start`, less this
/// process's own CPU time.
pub struct OtherLoad {
    start: Instant,
    busy_s: f64,
    own_ns: u64,
}

fn machine_busy_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat");
    parse_stat_busy_s(&stat).expect("/proc/stat starts with the cpu line")
}

impl OtherLoad {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            busy_s: machine_busy_s(),
            own_ns: process_cpu_ns(),
        }
    }
    pub fn busy_cpus(&self) -> f64 {
        let own_s = (process_cpu_ns() - self.own_ns) as f64 / 1e9;
        let others_s = machine_busy_s() - self.busy_s - own_s;
        (others_s / self.start.elapsed().as_secs_f64()).max(0.0)
    }
}

/// A run during which the other processes of this machine, and what the
/// hypervisor took, used more than half a CPU says so, so that a polluted
/// set of runs is visible instead of silently wide. The run's own load
/// does not count, so runs made back to back do not flag each other.
pub fn is_noisy(other_busy_cpus: f64) -> bool {
    other_busy_cpus > 0.5
}

/// Filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo`: the longest mount point that prefixes `path`.
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, &str)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> … - <fstype> …"
        let mount_point = line.split(' ').nth(4)?;
        let fs_type = line.split(" - ").nth(1)?.split(' ').next()?;
        if path.starts_with(mount_point) && best.is_none_or(|(len, _)| mount_point.len() >= len) {
            best = Some((mount_point.len(), fs_type));
        }
    }
    best.map(|(_, fs_type)| fs_type.to_string())
}

pub fn fs_type(path: &Path) -> String {
    std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|text| parse_fs_type(&text, path))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statm_resident_is_the_second_field() {
        assert_eq!(
            parse_statm_resident_pages("45623 1234 300 12 0 999 0\n"),
            Some(1234)
        );
        assert_eq!(parse_statm_resident_pages("45623"), None);
        assert_eq!(parse_statm_resident_pages("a b c"), None);
    }

    #[test]
    fn loadavg_is_the_first_field() {
        assert_eq!(parse_loadavg1("0.13 0.75 1.41 2/86 2758\n"), Some(0.13));
        assert_eq!(parse_loadavg1(""), None);
    }

    #[test]
    fn stat_busy_leaves_out_idle_and_iowait() {
        let stat = "cpu  100 5 20 9000 300 1 2 72 0 0\ncpu0 50 2 10 4500 150 0 1 36 0 0\n";
        assert_eq!(parse_stat_busy_s(stat), Some(2.0));
        assert_eq!(parse_stat_busy_s("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_stat_busy_s("cpu 1 2 3"), None);
    }

    #[test]
    fn noisy_means_others_used_more_than_half_a_cpu() {
        assert!(!is_noisy(0.5));
        assert!(is_noisy(0.51));
        let load = OtherLoad::start();
        assert!(load.busy_cpus() >= 0.0);
    }

    #[test]
    fn a_confined_thread_and_its_children_see_one_cpu() {
        let seen = std::thread::spawn(|| {
            let cpu = confine_to_current_cpu();
            let child = std::thread::spawn(nproc).join().unwrap();
            // SAFETY: no argument, no memory touched.
            (cpu, unsafe { sched_getcpu() } as usize, nproc(), child)
        })
        .join()
        .unwrap();
        assert_eq!(seen, (seen.0, seen.0, 1, 1));
    }

    #[test]
    fn fs_type_picks_the_longest_mount_point() {
        let mountinfo = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw
30 22 0:25 / /dev/shm rw,nosuid - tmpfs tmpfs rw
31 22 0:26 / /dev rw - devtmpfs devtmpfs rw
";
        let fs = |p: &str| parse_fs_type(mountinfo, Path::new(p));
        assert_eq!(fs("/dev/shm/bench"), Some("tmpfs".to_string()));
        assert_eq!(fs("/root/checkout/benchmark/out"), Some("ext4".to_string()));
        assert_eq!(fs("/devious"), Some("ext4".to_string()));
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(rss_bytes() > 0);
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > before);
        assert!(nproc() >= 1);
        assert!(loadavg1() >= 0.0);
    }
}
