//! Open-loop HTTP/1.1 load: requests go out on a fixed schedule whether or
//! not earlier ones were answered, pipelined over at most two keep-alive
//! connections, all driven by the calling thread alone.
//!
//! Every request is timed from its due time, so a stall also charges the
//! requests queued behind it; how late each send ran against its schedule
//! is recorded separately, so a generator that fell behind shows as such
//! instead of as server latency.
//!
//! Waiting uses `ppoll(2)` with the thread's timer slack lowered to 1 ns:
//! socket receive timeouts and `poll(2)` round to scheduler ticks, which
//! would make a 1000 req/s schedule late by milliseconds. While it drives
//! a schedule the thread also runs at nice -10 (when allowed to): the
//! server under test shares the machine's two cores, and a real client
//! would not wait for the server's threads to yield a core before sending.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Most connections a schedule may use (the machine's two cores).
pub const MAX_CONNS: usize = 2;

/// One scheduled request.
pub struct Req {
    /// Connection it is sent on (requests on one connection are answered
    /// in order).
    pub conn: usize,
    /// Due time from the start of the schedule.
    pub due: Duration,
    /// The whole HTTP request.
    pub bytes: Vec<u8>,
    /// Keep the response body for checking.
    pub keep: bool,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Done {
    /// HTTP status, or 0 when the request got no response.
    pub status: u16,
    /// Due time from the start of the schedule, µs.
    pub due_us: f64,
    /// How late the send ran against the due time, µs.
    pub late_us: f64,
    /// Due time to the last response byte, µs.
    pub latency_us: f64,
    /// Response body, when asked for.
    pub body: Option<Vec<u8>>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;
const PRIO_PROCESS: i32 = 0;

/// Raises the calling thread's scheduling priority until dropped, so that
/// processes spawned outside [`drive`] keep the default priority.
struct Priority;

impl Priority {
    fn raise() -> Priority {
        // SAFETY: setpriority only changes the calling thread's nice value
        // (per-thread on Linux for `who == 0`); a refusal is harmless.
        unsafe {
            setpriority(PRIO_PROCESS, 0, -10);
        }
        Priority
    }
}

impl Drop for Priority {
    fn drop(&mut self) {
        // SAFETY: as in `raise`; lowering back to the default never fails.
        unsafe {
            setpriority(PRIO_PROCESS, 0, 0);
        }
    }
}

/// Waits until a descriptor is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `PollFd`s laid
    // out as `struct pollfd`, its length is passed as `nfds`, `ts` outlives
    // the call, and a null signal mask leaves the mask unchanged.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

struct Conn {
    stream: TcpStream,
    outbox: Vec<u8>,
    inbox: Vec<u8>,
    /// Indices of sent, unanswered requests, oldest first.
    pending: VecDeque<usize>,
    alive: bool,
}

/// Locates one response at the front of `buf`: `(status, body start,
/// total length)`, or `None` while the head is incomplete.
fn frame(buf: &[u8]) -> Result<Option<(u16, usize, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response without a status code")?;
    let mut len = 0usize;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(|_| "bad Content-Length")?;
            }
        }
    }
    Ok(Some((status, head_end + 4, head_end + 4 + len)))
}

/// Sends `reqs` (sorted by due time) to `addr` on their schedule and
/// collects every outcome, index-aligned with `reqs`. Requests still
/// unanswered `drain` after the last due time count as failed.
pub fn drive(addr: &str, reqs: &[&Req], drain: Duration) -> Result<Vec<Done>, String> {
    // SAFETY: PR_SET_TIMERSLACK only changes this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
    let _priority = Priority::raise();
    let nconns = reqs.iter().map(|r| r.conn + 1).max().unwrap_or(0);
    if nconns > MAX_CONNS {
        return Err(format!(
            "{nconns} connections requested, at most {MAX_CONNS}"
        ));
    }
    let mut conns = Vec::with_capacity(nconns);
    for _ in 0..nconns {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        conns.push(Conn {
            stream,
            outbox: Vec::new(),
            inbox: Vec::new(),
            pending: VecDeque::new(),
            alive: true,
        });
    }
    let mut done: Vec<Done> = reqs
        .iter()
        .map(|r| Done {
            due_us: r.due.as_secs_f64() * 1e6,
            ..Done::default()
        })
        .collect();
    let last_due = reqs.last().map(|r| r.due).unwrap_or_default();
    let mut buf = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        while next < reqs.len() && reqs[next].due <= now {
            let r = &reqs[next];
            let c = &mut conns[r.conn];
            done[next].late_us = (now - r.due).as_secs_f64() * 1e6;
            if c.alive {
                c.outbox.extend_from_slice(&r.bytes);
                c.pending.push_back(next);
            }
            next += 1;
        }
        for c in conns.iter_mut().filter(|c| c.alive && !c.outbox.is_empty()) {
            match c.stream.write(&c.outbox) {
                Ok(n) => {
                    c.outbox.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => c.alive = false,
            }
        }
        let outstanding = conns.iter().any(|c| c.alive && !c.pending.is_empty());
        if next == reqs.len() && !outstanding {
            break;
        }
        let now = start.elapsed();
        let deadline = if next < reqs.len() {
            reqs[next].due
        } else {
            last_due + drain
        };
        if next == reqs.len() && now >= deadline {
            break;
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: if !c.alive {
                    0
                } else if c.outbox.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                },
                revents: 0,
            })
            .collect();
        wait(&mut fds, deadline.saturating_sub(now));
        for c in conns.iter_mut().filter(|c| c.alive) {
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        c.alive = false;
                        break;
                    }
                    Ok(n) => c.inbox.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.alive = false;
                        break;
                    }
                }
            }
            let at = start.elapsed();
            while let Some((status, body_at, total)) = frame(&c.inbox)? {
                if c.inbox.len() < total {
                    break;
                }
                let Some(i) = c.pending.pop_front() else {
                    return Err("response without a request".into());
                };
                let d = &mut done[i];
                d.status = status;
                d.latency_us = (at - reqs[i].due).as_secs_f64() * 1e6;
                if reqs[i].keep {
                    d.body = Some(c.inbox[body_at..total].to_vec());
                }
                c.inbox.drain(..total);
            }
        }
    }
    Ok(done)
}

/// Poisson arrival times at `rate` per second over `span`, from `rng`,
/// conditioned on their count: `rate * span` times drawn uniformly over
/// the span and sorted. Given its count, a Poisson process's arrival times
/// are distributed exactly so; traffic stays as bursty as Poisson traffic,
/// and every schedule of one length sends the same number of requests.
pub fn poisson_dues(rate: f64, span: Duration, rng: &mut gale_tensor::Rng) -> Vec<Duration> {
    let n = (rate * span.as_secs_f64()).round() as usize;
    let mut out: Vec<Duration> = (0..n).map(|_| span.mul_f64(rng.f64())).collect();
    out.sort_unstable();
    out
}
