//! The one mechanism every end-to-end number comes from:
//! `spawn(argv) → (wall, maxrss, stdout)` around the real `iotscope`
//! binary, with the child's own `ru_maxrss` from `wait4` so every row's
//! memory is that child's and nobody else's.

use std::ffi::{c_int, c_long};
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads ru_maxrss through Linux wait4(2)");

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// timevals, then fourteen longs of which `ru_maxrss` (KiB) is the
/// first.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Exited normally with status 0.
    pub ok: bool,
    /// Peak resident set of the child, KiB.
    pub maxrss_kb: u64,
}

/// Block until `child` ends and reap it with its resource usage.
/// Consumes the handle: after `wait4` the pid is gone, and std's
/// `Child::wait`/`kill` must never see it again.
fn reap(child: Child) -> io::Result<Reaped> {
    let pid = c_int::try_from(child.id()).expect("pid fits c_int");
    let mut status: c_int = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals of the exact types wait4(2) writes; `pid` is a child of
        // this process that has not been waited for (we own the `Child`).
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    Ok(Reaped {
        // WIFEXITED && WEXITSTATUS == 0
        ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        maxrss_kb: u64::try_from(usage.ru_maxrss).unwrap_or(0),
    })
}

/// Peak resident set of *this* process so far, KiB (`VmHWM`).
///
/// std spawns through vfork-style `posix_spawn`: until it execs, the
/// child runs in the harness's address space, and Linux folds that
/// address space's high-water mark into the child's `ru_maxrss` at exec.
/// A child's reported peak is therefore never below the harness's own,
/// and is the child's own only while the harness stays the smaller.
pub fn harness_peak_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One finished run of the program.
#[derive(Debug)]
pub struct Ran {
    /// Spawn → exit.
    pub wall: Duration,
    pub maxrss_kb: u64,
    pub stdout: Vec<u8>,
    /// Exited with status 0.
    pub ok: bool,
}

impl Ran {
    pub fn stdout_text(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }
}

/// Run `bin args…` to completion. stderr passes through, so a failing
/// rep explains itself in the benchmark's own stderr.
pub fn spawn(bin: &Path, args: &[&str]) -> io::Result<Ran> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);
    let reaped = reap(child)?;
    let wall = start.elapsed();
    read?;
    Ok(Ran {
        wall,
        maxrss_kb: reaped.maxrss_kb,
        stdout,
        ok: reaped.ok,
    })
}

/// A line of the daemon's stdout the harness waits for, stamped when it
/// was read.
#[derive(Debug, Clone)]
pub struct Marker {
    pub at: Instant,
    pub line: String,
}

/// A running `iotscope serve`. A reader thread drains its stdout for
/// the whole lifetime (the alert log would otherwise fill the pipe and
/// stall ingest) and forwards the two lines the harness times:
/// `serving on …` and `ingest complete: …`.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    pub spawned: Instant,
    markers: Receiver<Marker>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    pub fn spawn(bin: &Path, args: &[&str]) -> io::Result<Daemon> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, markers) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { return };
                if line.starts_with("serving on ") || line.starts_with("ingest complete: ") {
                    let at = Instant::now();
                    // The harness may have stopped listening; keep draining.
                    let _ = tx.send(Marker { at, line });
                }
            }
        });
        Ok(Daemon {
            child: Some(child),
            spawned,
            markers,
            reader: Some(reader),
        })
    }

    /// The next marker line, or an error if the daemon says nothing
    /// within `timeout` (or exits first).
    pub fn next_marker(&self, timeout: Duration) -> io::Result<Marker> {
        self.markers.recv_timeout(timeout).map_err(|e| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!("daemon printed no marker line: {e}"),
            )
        })
    }

    /// Kill the daemon, reap it, and return its peak RSS.
    pub fn stop(mut self) -> io::Result<Reaped> {
        self.stop_inner()
            .expect("a daemon that was not stopped yet has a child")
    }

    fn stop_inner(&mut self) -> Option<io::Result<Reaped>> {
        let mut child = self.child.take()?;
        // Already-exited children make kill() fail with ESRCH/EINVAL;
        // reaping is what matters either way.
        let _ = child.kill();
        let reaped = reap(child);
        if let Some(reader) = self.reader.take() {
            // The pipe's write end died with the child, so this ends.
            let _ = reader.join();
        }
        Some(reaped)
    }
}

impl Drop for Daemon {
    /// A failure path must not leave a daemon behind.
    fn drop(&mut self) {
        let _ = self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_reports_wall_rss_stdout_and_status() {
        let ran = spawn(Path::new("sh"), &["-c", "echo hello; exit 0"]).unwrap();
        assert!(ran.ok);
        assert_eq!(ran.stdout, b"hello\n");
        assert!(ran.maxrss_kb > 0, "wait4 filled ru_maxrss");
        assert!(ran.wall > Duration::ZERO);
        let failed = spawn(Path::new("sh"), &["-c", "echo partial; exit 3"]).unwrap();
        assert!(!failed.ok);
        assert_eq!(failed.stdout, b"partial\n");
    }

    #[test]
    fn daemon_markers_are_forwarded_and_stop_reaps() {
        let script = "echo noise; echo 'serving on http://127.0.0.1:1'; \
                      echo 'ingest complete: 143 hours'; exec sleep 30";
        let daemon = Daemon::spawn(Path::new("sh"), &["-c", script]).unwrap();
        let a = daemon.next_marker(Duration::from_secs(5)).unwrap();
        let b = daemon.next_marker(Duration::from_secs(5)).unwrap();
        assert!(a.line.starts_with("serving on "));
        assert!(b.line.starts_with("ingest complete: "));
        assert!(b.at >= a.at && a.at >= daemon.spawned);
        let start = Instant::now();
        let reaped = daemon.stop().unwrap();
        assert!(!reaped.ok, "killed, not exited");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "did not wait for sleep"
        );
    }
}
