//! Host facts printed with every result: a fingerprint of the machine the
//! numbers came from, the process's memory high-water mark, the CPU time
//! its threads used, and the host's steal time.

use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// `nproc`, CPU model, kernel release and the filesystem under `wal_dir`.
pub fn fingerprint(wal_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    let kernel = read("/proc/sys/kernel/osrelease");
    format!(
        "nproc={nproc} cpu=\"{cpu}\" kernel={} wal_fs={}",
        kernel.trim(),
        filesystem_of(wal_dir)
    )
}

/// CPU time, in ns, used so far by every live thread of this process
/// except the calling one (`/proc/self/task/*/schedstat`). With the
/// generator calling, that is the cluster's CPU time: time a virtual CPU
/// spent stolen by the hypervisor is not in it.
pub fn cluster_cpu_ns() -> u64 {
    let me = read("/proc/thread-self/stat");
    let me = me.split_whitespace().next().unwrap_or_default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| task.file_name().to_str() != Some(me))
        .filter_map(|task| {
            std::fs::read_to_string(task.path().join("schedstat"))
                .ok()?
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`.
pub fn steal_ticks() -> (u64, u64) {
    let values: Vec<u64> = read("/proc/stat")
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (values.get(7).copied().unwrap_or(0), values.iter().sum())
}

/// Mean round trip, in µs, of a value passed to a helper thread and back
/// over `std::sync::mpsc` channels, over `trips` round trips: the cost of
/// the thread wake-ups and hand-offs every delivery is made of, on this
/// host at this moment, measured with code outside the program.
pub fn handoff_round_trip_us(trips: u32) -> f64 {
    let (to_echo, echo_in) = std::sync::mpsc::channel::<u32>();
    let (echo_out, back) = std::sync::mpsc::channel::<u32>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = echo_in.recv() {
            if echo_out.send(v).is_err() {
                break;
            }
        }
    });
    let start = std::time::Instant::now();
    for i in 0..trips {
        to_echo.send(i).expect("echo thread alive");
        back.recv().expect("echo thread alive");
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / f64::from(trips);
    drop(to_echo);
    echo.join().expect("echo thread");
    us
}
