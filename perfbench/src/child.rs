//! Child processes: spawn, reap with the child's own peak RSS, and a run
//! deadline that kills every child still alive.
//!
//! `std::process::Child::wait` does not report resource usage, so
//! children are reaped with `wait4`, which does. The wait is split in
//! two: `waitid(WNOWAIT)` blocks until the child exits but leaves it a
//! zombie, so its pid cannot be reused while the deadline thread might
//! still signal it; the pid leaves the live list, then `wait4` reaps it.

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// `struct rusage` (Linux): two `timeval`s, then 14 `long` counters of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn waitid(idtype: u32, id: u32, infop: *mut [u64; 16], options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const P_PID: u32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

/// Pids spawned and not yet reaped.
fn live() -> &'static Mutex<Vec<i32>> {
    static LIVE: OnceLock<Mutex<Vec<i32>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Starts the run deadline: when it passes, every live child is killed
/// and the benchmark exits with code 3 without printing a result.
///
/// The thread is deliberately detached: it either ends the process or
/// is ended with it.
pub fn arm_deadline(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let live = live().lock().unwrap_or_else(|p| p.into_inner());
        for &pid in live.iter() {
            // SAFETY: `kill` has no memory-safety preconditions; `pid` is
            // a child that has not been reaped, so it cannot name another
            // process.
            unsafe { kill(pid, SIGKILL) };
        }
        eprintln!(
            "perfbench: error: run exceeded {}s, {} child process(es) killed",
            limit.as_secs(),
            live.len()
        );
        std::process::exit(3);
    });
}

/// Spawns `cmd` and registers it with the deadline.
pub fn spawn(cmd: &mut Command) -> io::Result<Child> {
    let mut live = live().lock().expect("live-pid list poisoned");
    let child = cmd.spawn()?;
    live.push(child.id() as i32);
    Ok(child)
}

/// How a child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    /// When the exit was observed.
    pub at: Instant,
    /// Peak resident set size of the child itself, MiB.
    pub peak_rss_mb: f64,
}

impl Exit {
    /// Exit code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// Waits for `child` to exit and reaps it. Take its pipes first.
pub fn reap(child: Child) -> io::Result<Exit> {
    let pid = child.id() as i32;
    let mut info = [0u64; 16];
    loop {
        // SAFETY: `info` is a writable buffer of 128 bytes, the size of
        // `siginfo_t` on Linux.
        let r = unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) };
        if r == 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let at = Instant::now();
    let mut live = live().lock().expect("live-pid list poisoned");
    live.retain(|&p| p != pid);
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are valid for writes and `usage` has
    // the layout of Linux's `struct rusage`; the child is a zombie, so
    // the call returns at once.
    let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    drop(live);
    if r != pid {
        return Err(io::Error::last_os_error());
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        at,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// A finished one-shot command.
pub struct Output {
    /// How it ended.
    pub exit: Exit,
    /// Spawn-to-exit wall time.
    pub wall: Duration,
    /// Everything it wrote to stdout.
    pub stdout: String,
    /// Everything it wrote to stderr.
    pub stderr: String,
}

/// Runs `cmd` to completion, capturing its output.
pub fn run(cmd: &mut Command) -> io::Result<Output> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = spawn(cmd)?;
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut err = child.stderr.take().expect("stderr is piped");
    let (stdout, stderr) = std::thread::scope(|s| {
        let err_reader = s.spawn(move || {
            let mut buf = String::new();
            err.read_to_string(&mut buf).map(|_| buf)
        });
        let mut buf = String::new();
        let stdout = out.read_to_string(&mut buf).map(|_| buf);
        let stderr = err_reader.join().expect("stderr reader panicked");
        (stdout, stderr)
    });
    let exit = reap(child)?;
    Ok(Output {
        wall: exit.at.duration_since(start),
        exit,
        stdout: stdout?,
        stderr: stderr?,
    })
}

/// Runs `cmd` and fails unless it exits 0.
pub fn run_ok(cmd: &mut Command) -> Result<Output, String> {
    let shown = format!("{cmd:?}");
    let out = run(cmd).map_err(|e| format!("{shown}: {e}"))?;
    if !out.exit.success() {
        return Err(format!(
            "{shown} exited with {:?}: {}",
            out.exit.code,
            out.stderr.trim()
        ));
    }
    Ok(out)
}
