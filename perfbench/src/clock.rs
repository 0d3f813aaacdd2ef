//! Clocks and process probes: thread and process CPU time, wall time,
//! peak resident memory and scheduler run delay (Linux `/proc`).

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two `i64`s on the
    // 64-bit Linux targets this benchmark runs on) that outlives the call,
    // and both clock ids are defined by POSIX for every process.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) consumed by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time (user + system) consumed by all threads of the process,
/// including threads that have already exited, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Nanoseconds since the first call in this process (a monotonic wall
/// clock with a process-local origin).
pub fn wall_ns() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total time the process's live threads have spent runnable but waiting
/// for a CPU (`/proc/self/task/*/schedstat`, second field), in ns,
/// summed per thread id so a later sample can be differenced against it.
pub fn run_delay_by_thread() -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let stat = std::fs::read_to_string(entry.path().join("schedstat")).unwrap_or_default();
        if let Some(delay) = stat.split_whitespace().nth(1).and_then(|v| v.parse().ok()) {
            out.push((tid, delay));
        }
    }
    out
}

/// Run delay accumulated between two [`run_delay_by_thread`] samples.
/// Threads born after `before` count from zero; threads that exited in
/// between are lost (the phases measured keep their threads alive).
pub fn run_delay_between(before: &[(u64, u64)], after: &[(u64, u64)]) -> u64 {
    after
        .iter()
        .map(|(tid, delay)| {
            let base = before.iter().find(|(t, _)| t == tid).map_or(0, |(_, d)| *d);
            delay.saturating_sub(base)
        })
        .sum()
}

/// Time the hypervisor ran something else while this machine's CPUs
/// wanted to run (`steal` in `/proc/stat`, all CPUs), in ns.
pub fn steal_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0);
    // USER_HZ is 100 on every Linux ABI this runs on.
    ticks * 10_000_000
}

/// A snapshot of the process clocks, differenced to measure a phase.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Wall clock, ns.
    pub wall: u64,
    /// Process CPU, ns.
    pub cpu: u64,
}

impl Mark {
    /// Takes a snapshot now.
    pub fn now() -> Mark {
        Mark {
            wall: wall_ns(),
            cpu: process_cpu_ns(),
        }
    }

    /// `(wall_ns, cpu_ns)` elapsed since this mark.
    pub fn elapsed(&self) -> (u64, u64) {
        let now = Mark::now();
        (now.wall - self.wall, now.cpu - self.cpu)
    }
}

/// A fixed reference computation, independent of the code under test,
/// made of the kinds of work the checker, caches and runtime do: sorting,
/// ordered-map inserts and lookups, string formatting and hashing, small
/// allocations, UTF-8 validation streaming through a buffer, and pointer
/// chasing through a buffer larger than the L2 cache. About half its time
/// is UTF-8 validation streaming through 256 KiB, the part a busy
/// neighbour slows most, as it slows the workloads more than the rest of
/// the mix. Its thread CPU time tracks how fast this machine runs such
/// work right now. Returns the CPU ns it took.
pub fn reference_ns() -> u64 {
    use std::fmt::Write as _;
    const SLOTS: u32 = 1 << 19;
    const STREAM_BYTES: usize = 256 * 1024;
    const STREAM_PASSES: usize = 72;
    thread_local! {
        // Reused across runs, so the reference leaves the allocator and
        // the resident set as it found them.
        static LINKS: std::cell::RefCell<Vec<u32>> = std::cell::RefCell::new(Vec::with_capacity(SLOTS as usize));
        static STREAM: Vec<u8> = (0..STREAM_BYTES).map(|i| b'a' + (i % 26) as u8).collect();
    }
    let start = thread_cpu_ns();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<u64> = (0..8_000).map(|_| next()).collect();
    v.sort_unstable();
    let mut map = std::collections::BTreeMap::new();
    for (i, k) in v.iter().step_by(4).enumerate() {
        map.insert(*k, i);
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut texts: Vec<String> = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let k = next();
        let hit = map.range(k..).next().map_or(0, |(_, v)| *v);
        let mut text = String::new();
        let _ = write!(text, "{k:x}:{hit}");
        for b in text.bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        texts.push(text);
    }
    let doc: String = texts.concat();
    for _ in 0..24 {
        hash = hash.wrapping_add(std::str::from_utf8(doc.as_bytes()).map_or(0, |s| s.len() as u64));
    }
    drop(texts);
    LINKS.with(|links| {
        let mut links = links.borrow_mut();
        links.clear();
        links.extend((0..SLOTS).map(|i| i.wrapping_mul(2_654_435_761) % SLOTS));
        let mut at = 0u32;
        for _ in 0..150_000 {
            at = links[at as usize];
            hash = hash.wrapping_add(u64::from(at));
        }
    });
    STREAM.with(|stream| {
        for pass in 0..STREAM_PASSES {
            let from = pass * 997 % 4096;
            hash = hash
                .wrapping_add(std::str::from_utf8(&stream[from..]).map_or(0, |s| s.len() as u64));
        }
    });
    std::hint::black_box(hash);
    thread_cpu_ns() - start
}

/// Resets the process's peak resident set size to its current size
/// (`/proc/self/clear_refs`), so [`peak_rss_mb`] covers what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
